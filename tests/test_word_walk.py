"""Every walk of a given word goes through ``transport._steps``.

* A word whose move fails is reported with the same ``move_index`` by
  every function that replays it.
* The 1-D oracle reads the realized map and the flux charge off one
  replay: each move is applied once per request.
"""

import json
from fractions import Fraction
from random import Random

import pytest

from endflow import serialize, transport
from endflow.cli import main
from endflow.errors import NonPositiveBlockError
from endflow.extmath import INF
from endflow.gen import random_preserving_word, random_star
from endflow.measure import base_state
from endflow.morphism import identity_morphism, push_word
from endflow.raystar import RayStar, compare_oracle, realize_word
from endflow.transport import (
    BalloonMove,
    MoveWord,
    apply_word,
    charge_of_word,
    invert_word,
    is_measure_preserving,
    region_transfer,
)

TWO_RAYS = RayStar(Fraction(2), ((Fraction(1),), (Fraction(1),)), (INF, INF))


TREE = TWO_RAYS.to_tree()
WALKERS = {
    "apply_word": apply_word,
    "charge_of_word": charge_of_word,
    "is_measure_preserving": is_measure_preserving,
    "invert_word": invert_word,
    "region_transfer": lambda w: region_transfer(w, {"c"}),
    "push_word": lambda w: push_word(identity_morphism(TREE), w),
    "realize_word": lambda w: realize_word(TWO_RAYS, w),
    "compare_oracle": lambda w: compare_oracle(TWO_RAYS, w),
}


@pytest.mark.parametrize("walk", WALKERS.values(), ids=WALKERS.keys())
def test_every_walker_tags_the_failing_move(walk):
    # move 0 leaves the center at 3/2, move 1 takes 2 from it
    word = MoveWord(TREE, base_state(TREE), (
        BalloonMove(("c", "r0c0"), Fraction(1, 2)),
        BalloonMove(("c", "r1c0"), Fraction(2)),
    ))
    with pytest.raises(NonPositiveBlockError) as err:
        walk(word)
    assert err.value.move_index == 1
    assert str(err.value) == (
        "block 'c' would drop to -1/2 moving 2 across ('c', 'r1c0')"
    )


@pytest.fixture
def counted_applies(monkeypatch):
    """The moves every runner applies, in order; a test clears the list
    once its inputs are made."""
    applied = []
    apply = transport._Runner.apply

    def counting(self, move):
        applied.append(move)
        return apply(self, move)

    monkeypatch.setattr(transport._Runner, "apply", counting)
    return applied


def _oracle_case(seed):
    rng = Random(seed)
    star = random_star(rng)
    tree = star.to_tree()
    return star, random_preserving_word(rng, tree, base_state(tree))


@pytest.mark.parametrize("seed", range(3))
def test_compare_oracle_applies_each_move_once(seed, counted_applies):
    star, word = _oracle_case(seed)
    assert word.moves
    counted_applies.clear()
    assert compare_oracle(star, word)
    assert counted_applies == list(word.moves)


@pytest.mark.parametrize("seed", range(3))
def test_oracle_command_applies_each_move_once(
    seed, tmp_path, capsys, counted_applies
):
    star, word = _oracle_case(seed)
    star_p, word_p = tmp_path / "star.json", tmp_path / "word.json"
    star_p.write_text(json.dumps(serialize.star_to_json(star)))
    word_p.write_text(json.dumps(serialize.word_to_json(word)))
    counted_applies.clear()
    assert main(["oracle", "--star", str(star_p), "--word", str(word_p)]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True
    assert counted_applies == list(word.moves)
