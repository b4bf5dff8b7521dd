"""Every walk of a given word goes through ``transport._walk``.

* A word whose move fails is reported with the same ``move_index`` by
  every function that replays it.
* The 1-D oracle reads the realized map and the flux charge off one
  replay: each move is applied once per request.
* Every complete walk of a word from its base keeps its end, so every
  reader and walker of a word shares one walk (``align_step``,
  ``check_diagram``, ``invert_word``, ``push_word``, ``realize_word``);
  a walk that raises or is abandoned keeps nothing.  ``align_step``
  starts its level from its words' ends and never changes them.
"""

import json
from fractions import Fraction
from random import Random

import pytest

from endflow import serialize, transport
from endflow.cli import main
from endflow.errors import NonPositiveBlockError, NotLiftableError
from endflow.extmath import INF
from endflow.charge import EndCharge
from endflow.gen import (
    random_morphism,
    random_preserving_word,
    random_star,
    random_tree,
    random_valid_charge,
)
from endflow.measure import base_state
from endflow.morphism import (
    TreeMorphism,
    check_diagram,
    identity_morphism,
    push_word,
)
from endflow.raystar import (
    RayStar,
    charge_from_definition,
    compare_oracle,
    realize_word,
)
from endflow.section import align_step, build_section
from endflow.transport import (
    BalloonMove,
    MoveWord,
    apply_word,
    charge_of_word,
    empty_word,
    extensionally_equal,
    invert_word,
    is_measure_preserving,
    region_transfer,
)
from endflow.tree import BalloonTree

TWO_RAYS = RayStar(Fraction(2), ((Fraction(1),), (Fraction(1),)), (INF, INF))


TREE = TWO_RAYS.to_tree()
# a charge the two rays admit, moving mass from the first end to the second
CHARGE = EndCharge(TREE, {"r0e": Fraction(1), "r1e": Fraction(-1)})
OUTER = frozenset({"c", "r0c0", "r1c0"})
WALKERS = {
    "apply_word": apply_word,
    "charge_of_word": charge_of_word,
    "is_measure_preserving": is_measure_preserving,
    "invert_word": invert_word,
    "region_transfer": lambda w: region_transfer(w, {"c"}),
    "push_word": lambda w: push_word(identity_morphism(TREE), w),
    "realize_word": lambda w: realize_word(TWO_RAYS, w),
    "compare_oracle": lambda w: compare_oracle(TWO_RAYS, w),
    "align_step": lambda w: _align(w.base, w, empty_word(w.base)),
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


def _copy(word):
    return MoveWord(word.tree, word.base, word.moves)


def _failing_word():
    # move 0 leaves the center at 3/2, move 1 takes 2 from it
    return MoveWord(TREE, base_state(TREE), (
        BalloonMove(("c", "r0c0"), Fraction(1, 2)),
        BalloonMove(("c", "r1c0"), Fraction(2)),
    ))


@pytest.mark.parametrize("seed", range(3))
def test_realize_then_charge_applies_each_move_once(seed, counted_applies):
    star, word = _oracle_case(seed)
    counted_applies.clear()
    h = realize_word(star, word)
    charge = charge_of_word(word)
    assert counted_applies == list(word.moves)
    # the kept replay ran on the builder's unit; it reads as the word's own
    fresh = _copy(word)
    assert charge == charge_of_word(fresh)
    assert apply_word(word) == apply_word(fresh)
    assert realize_word(star, fresh).pieces == h.pieces


@pytest.mark.parametrize("seed", range(3))
def test_the_readers_of_a_word_share_one_replay(seed, counted_applies):
    _, word = _oracle_case(seed)
    counted_applies.clear()
    got = (
        is_measure_preserving(word),
        charge_of_word(word),
        apply_word(word),
        region_transfer(word, {"c"}),
        extensionally_equal(word, word),
    )
    assert counted_applies == list(word.moves)
    fresh = _copy(word)
    assert got == (
        is_measure_preserving(fresh),
        charge_of_word(fresh),
        apply_word(fresh),
        region_transfer(fresh, {"c"}),
        True,
    )
    # a reader hands back copies: changing them leaves the kept replay
    state, flux = got[2]
    state.blocks["c"] += 1
    flux.flux[("c", "r0c0")] += 1
    assert apply_word(word) == apply_word(fresh)


@pytest.mark.parametrize("walk", WALKERS.values(), ids=WALKERS.keys())
def test_a_failing_word_fails_alike_every_time(walk, counted_applies):
    word = _failing_word()
    for _ in range(2):
        counted_applies.clear()
        with pytest.raises(NonPositiveBlockError) as err:
            walk(word)
        assert err.value.move_index == 1
        assert str(err.value) == (
            "block 'c' would drop to -1/2 moving 2 across ('c', 'r1c0')"
        )
        assert counted_applies == list(word.moves)
    assert word == _failing_word()


def _align_case():
    mu = base_state(TREE)
    word = MoveWord(TREE, mu, (BalloonMove(("c", "r0c0"), Fraction(1, 2)),))
    target = MoveWord(TREE, mu, (BalloonMove(("c", "r1c0"), Fraction(1, 3)),))
    return mu, word, target


def _align(mu, word, target):
    return align_step(mu, frozenset(), OUTER, word, target, CHARGE)


def test_align_step_keeps_its_words_ends(counted_applies):
    mu, word, target = _align_case()
    _align(mu, word, target)
    counted_applies.clear()
    ends = [apply_word(w) for w in (word, target)]
    assert counted_applies == []
    assert ends == [apply_word(_copy(w)) for w in (word, target)]


def test_align_step_from_kept_ends_applies_only_its_level(counted_applies):
    mu, word, target = _align_case()
    for w in (word, target):
        apply_word(w)
    counted_applies.clear()
    h = _align(mu, word, target)
    assert h.moves
    assert counted_applies == list(h.moves)
    assert h == _align(mu, _copy(word), _copy(target))


def test_align_step_never_changes_a_kept_end():
    mu, word, target = _align_case()
    ends = [apply_word(w) for w in (word, target)]
    kept = [vars(w)["_end"] for w in (word, target)]
    for _ in range(2):
        _align(mu, word, target)
        assert all(vars(w)["_end"] is r for w, r in zip((word, target), kept))
        assert [apply_word(w) for w in (word, target)] == ends


def test_a_section_charge_is_its_own_replay(counted_applies):
    rng = Random(5)
    tree = random_tree(rng, max_depth=4, max_nodes=40)
    mu = base_state(tree)
    a = random_valid_charge(rng, tree, mu)
    word = build_section(tree, mu, a)
    assert word.moves
    counted_applies.clear()
    assert charge_of_word(word) == a
    assert len(counted_applies) == len(word)


def test_a_replayed_word_equals_a_fresh_copy():
    _, word = _oracle_case(0)
    before = repr(word)
    charge_of_word(word)
    fresh = _copy(word)
    assert word == fresh and fresh == word
    assert repr(word) == repr(fresh) == before


def _diagram_case(seed):
    rng = Random(seed)
    pi = random_morphism(rng)
    mu = base_state(pi.source)
    word = random_preserving_word(rng, pi.source, mu, avoid=pi.collapsed_nodes)
    return pi, mu, word


@pytest.mark.parametrize("seed", range(3))
def test_check_diagram_walks_each_word_once(seed, counted_applies):
    pi, mu, word = _diagram_case(seed)
    pushed = push_word(pi, _copy(word))
    assert word.moves
    counted_applies.clear()
    assert check_diagram(pi, mu, word)
    assert counted_applies == list(word.moves) + list(pushed.moves)


@pytest.mark.parametrize("seed", range(3))
def test_invert_then_charge_applies_each_move_once(seed, counted_applies):
    _, word = _oracle_case(seed)
    counted_applies.clear()
    inverse = invert_word(word)
    charge = charge_of_word(word)
    assert counted_applies == list(word.moves)
    fresh = _copy(word)
    assert inverse == invert_word(fresh)
    assert charge == charge_of_word(fresh)


@pytest.mark.parametrize("seed", range(3))
def test_push_then_charge_shares_one_walk(seed, counted_applies):
    pi, _, word = _diagram_case(seed)
    counted_applies.clear()
    pushed = push_word(pi, word)
    charge = charge_of_word(word)
    assert counted_applies == list(word.moves)
    fresh = _copy(word)
    assert pushed == push_word(pi, fresh)
    assert charge == charge_of_word(fresh)


def test_an_abandoned_walk_keeps_nothing(counted_applies):
    # c and r0c0 collapse onto c; move 1 crosses the collapsed edge
    target = BalloonTree(
        root="c",
        children={"c": ("r0e", "r1c0"), "r1c0": ("r1e",)},
        weights={"c": Fraction(3), "r1c0": Fraction(1)},
        tails={"r0e": INF, "r1e": INF},
    )
    pi = TreeMorphism(TREE, target, {v: v for v in TREE.nodes} | {"r0c0": "c"})
    assert pi.validate() == []
    word = MoveWord(TREE, base_state(TREE), (
        BalloonMove(("c", "r1c0"), Fraction(1, 2)),
        BalloonMove(("c", "r0c0"), Fraction(1, 4)),
    ))
    with pytest.raises(NotLiftableError):
        push_word(pi, word)
    counted_applies.clear()
    apply_word(word)
    assert counted_applies == list(word.moves)


def test_an_empty_word_is_walked_and_kept():
    # invert_word and realize_word read the end of a walk of no moves
    word = empty_word(base_state(TREE))
    assert invert_word(word) == word
    assert "_end" in vars(word)
    h = realize_word(TWO_RAYS, _copy(word))
    assert charge_from_definition(TWO_RAYS, h, 2).is_zero()
