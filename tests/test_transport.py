import re
from fractions import Fraction
from random import Random

import pytest

from endflow.charge import charge_eval, linear_combine, validate_charge
from endflow.errors import (
    BadSupportError,
    ChargeUndefinedError,
    MassNotConservedError,
    NonPositiveBlockError,
    TreeMismatchError,
)
from endflow.gen import random_preserving_word, random_region, random_tree
from endflow.measure import base_state
from endflow.transport import (
    BalloonMove,
    FluxField,
    MoveWord,
    Rearrange,
    _rearrangement_moves,
    _Runner,
    apply_move,
    apply_word,
    charge_of_word,
    concat,
    empty_word,
    extensionally_equal,
    invert_word,
    is_measure_preserving,
    region_transfer,
)
from endflow.tree import compactly_equivalent, region_ends


@pytest.fixture
def w_star(star_tree):
    mu = base_state(star_tree)
    return MoveWord(
        star_tree,
        mu,
        (
            BalloonMove(("r", "u"), Fraction(3)),
            BalloonMove(("u", "l1"), Fraction(3)),
            BalloonMove(("v", "l2"), Fraction(-3)),
            BalloonMove(("r", "v"), Fraction(-3)),
        ),
    )


def test_single_balloon_move(star_tree):
    mu = base_state(star_tree)
    zero = FluxField(star_tree, {})
    state, flux = apply_move(mu, zero, BalloonMove(("r", "u"), Fraction(3)))
    assert state.blocks["r"] == 1 and state.blocks["u"] == 5
    assert flux[("r", "u")] == 3


@pytest.mark.parametrize("edge", ["ab", ("a", "b", "c"), ("a",), None])
def test_balloon_move_refuses_a_malformed_edge(edge):
    with pytest.raises(ValueError, match=f"edge {re.escape(repr(edge))}"):
        BalloonMove(edge, Fraction(1))


def test_balloon_move_reads_a_list_edge_and_an_int_amount():
    mv = BalloonMove(["a", "b"], 2)
    assert type(mv.edge) is tuple and mv.edge == ("a", "b")
    assert type(mv.amount) is Fraction and mv.amount == 2
    assert mv == BalloonMove(("a", "b"), Fraction(2))


def test_noop_rearrange(star_tree):
    mu = base_state(star_tree)
    zero = FluxField(star_tree, {})
    mv = Rearrange(
        frozenset({"r", "u", "v"}),
        {"r": Fraction(4), "u": Fraction(2), "v": Fraction(1)},
    )
    state, flux = apply_move(mu, zero, mv)
    assert state == mu
    assert all(x == 0 for x in flux.flux.values())


def test_move_below_zero_raises(star_tree):
    mu = base_state(star_tree)
    zero = FluxField(star_tree, {})
    state, flux = apply_move(mu, zero, BalloonMove(("r", "u"), Fraction(3)))
    with pytest.raises(NonPositiveBlockError):
        apply_move(state, flux, BalloonMove(("r", "v"), Fraction(-3)))


def test_rearrange_guards(star_tree):
    mu = base_state(star_tree)
    zero = FluxField(star_tree, {})
    bad = [
        (MassNotConservedError, {"r": Fraction(1), "u": Fraction(1)}),
        (BadSupportError, {"u": Fraction(2), "v": Fraction(1)}),
        (BadSupportError, {"r": Fraction(4), "l3": Fraction(5)}),
    ]
    for err, masses in bad:
        mv = Rearrange(frozenset(masses), masses)
        with pytest.raises(err) as applied:
            apply_move(mu, zero, mv)
        # so does inverting the one-move word: the runner checks first
        with pytest.raises(err) as inverted:
            invert_word(MoveWord(star_tree, mu, (mv,)))
        assert str(inverted.value) == str(applied.value)


# the moves the tests above hand to apply_move, the failing ones included
APPLY_MOVE_CASES = [
    BalloonMove(("r", "u"), Fraction(3)),
    Rearrange(
        frozenset({"r", "u", "v"}),
        {"r": Fraction(4), "u": Fraction(2), "v": Fraction(1)},
    ),
    BalloonMove(("r", "v"), Fraction(-3)),
    Rearrange(frozenset({"r", "u"}), {"r": Fraction(1), "u": Fraction(1)}),
    Rearrange(frozenset({"u", "v"}), {"u": Fraction(2), "v": Fraction(1)}),
    Rearrange(frozenset({"r", "l3"}), {"r": Fraction(4), "l3": Fraction(5)}),
]


@pytest.mark.parametrize("move", APPLY_MOVE_CASES)
def test_apply_move_is_the_one_move_word_plus_the_flux(star_tree, move):
    mu = base_state(star_tree)
    flux = FluxField(
        star_tree, {("r", "v"): Fraction(1, 2), ("u", "l1"): Fraction(-2)}
    )
    word = MoveWord(star_tree, mu, (move,))
    try:
        state, moved = apply_word(word)
    except Exception as err:
        with pytest.raises(type(err)) as applied:
            apply_move(mu, flux, move)
        assert str(applied.value) == str(err)
        assert applied.value.move_index == err.move_index == 0
        return
    total = {e: flux[e] + moved[e] for e in star_tree.edges}
    assert apply_move(mu, flux, move) == (state, FluxField(star_tree, total))


def test_apply_move_refuses_a_flux_of_another_tree(star_tree):
    zero = FluxField(random_tree(Random(0)), {})
    with pytest.raises(TreeMismatchError, match="flux field"):
        apply_move(base_state(star_tree), zero, BalloonMove(("r", "u"), 1))


def test_empty_word_is_identity(star_tree):
    mu = base_state(star_tree)
    state, flux = apply_word(empty_word(mu))
    assert state == mu
    assert all(x == 0 for x in flux.flux.values())


def test_word_example(star_tree, w_star):
    state, flux = apply_word(w_star)
    assert state.blocks == {"r": 4, "u": 2, "v": 1}
    assert flux[("r", "u")] == 3
    assert flux[("u", "l1")] == 3
    assert flux[("r", "v")] == -3
    assert flux[("v", "l2")] == -3
    assert flux[("r", "l3")] == 0


def test_word_failure_carries_index(star_tree, w_star):
    swapped = MoveWord(
        star_tree,
        w_star.base,
        (w_star.moves[1], w_star.moves[0]) + w_star.moves[2:],
    )
    with pytest.raises(NonPositiveBlockError) as err:
        apply_word(swapped)
    assert err.value.move_index == 0


def test_is_measure_preserving(star_tree, w_star):
    assert is_measure_preserving(w_star)
    assert is_measure_preserving(empty_word(w_star.base))
    leak = MoveWord(
        star_tree,
        w_star.base,
        (
            BalloonMove(("r", "l3"), Fraction(1)),
            BalloonMove(("u", "l1"), Fraction(-1)),
            BalloonMove(("r", "u"), Fraction(-1)),
        ),
    )
    state, _ = apply_word(leak)
    assert state.blocks == w_star.base.blocks
    assert not is_measure_preserving(leak)


def test_charge_of_word(star_tree, w_star):
    c = charge_of_word(w_star)
    assert c.values == {"l1": 3, "l2": -3, "l3": 0}
    assert validate_charge(w_star.base, c)
    assert charge_of_word(empty_word(w_star.base)).is_zero()
    twice = concat(w_star, w_star)
    assert charge_of_word(twice).values == {"l1": 6, "l2": -6, "l3": 0}


def test_charge_undefined_for_nonpreserving(star_tree):
    mu = base_state(star_tree)
    w = MoveWord(star_tree, mu, (BalloonMove(("r", "u"), Fraction(1)),))
    with pytest.raises(ChargeUndefinedError):
        charge_of_word(w)


def test_inversion(star_tree, w_star):
    mu = base_state(star_tree)
    assert invert_word(empty_word(mu)) == empty_word(mu)
    round_trip = concat(w_star, invert_word(w_star))
    state, flux = apply_word(round_trip)
    assert state == mu
    assert all(x == 0 for x in flux.flux.values())


def test_region_transfer(star_tree, w_star):
    assert region_transfer(w_star, {"u", "l1"}) == 3
    assert region_transfer(w_star, {"u", "l1", "v", "l2"}) == 0
    assert region_transfer(w_star, set(star_tree.nodes)) == 0


def test_charge_additivity_on_random_words():
    rng = Random(31)
    for _ in range(50):
        t = random_tree(rng)
        mu = base_state(t)
        w1 = random_preserving_word(rng, t, mu)
        w2 = random_preserving_word(rng, t, mu)
        c1, c2 = charge_of_word(w1), charge_of_word(w2)
        assert charge_of_word(concat(w1, w2)) == linear_combine(1, c1, 1, c2)
        assert charge_of_word(invert_word(w1)) == linear_combine(
            -1, c1, 0, c1
        )


def test_kirchhoff_for_preserving_words():
    rng = Random(32)
    for _ in range(40):
        t = random_tree(rng)
        w = random_preserving_word(rng, t)
        _, flux = apply_word(w)
        for v in t.block_nodes:
            if v != t.root:
                assert flux.divergence(v) == 0


def test_transfer_independent_of_representative():
    rng = Random(33)
    for _ in range(40):
        t = random_tree(rng)
        w = random_preserving_word(rng, t)
        a = random_region(rng, t)
        b = random_region(rng, t)
        if compactly_equivalent(t, a, b):
            assert region_transfer(w, a) == region_transfer(w, b)
        c = charge_of_word(w)
        assert region_transfer(w, a) == charge_eval(c, region_ends(t, a))


def test_rearrange_decomposition_matches():
    rng = Random(34)
    for _ in range(40):
        t = random_tree(rng)
        mu = base_state(t)
        w = random_preserving_word(rng, t, mu, transfers=0, shuffles=3)
        runner = _Runner(mu)
        for mv in w.moves:
            before = runner.state()
            replaced = runner.apply(mv)
            if isinstance(mv, Rearrange):
                anchor = t.top(mv.support)
                steps = _rearrangement_moves(t, anchor, replaced, mv.masses)
                moves = tuple(BalloonMove(e, d) for e, d in steps)
                direct = MoveWord(t, before, (mv,))
                routed = MoveWord(t, before, moves)
                assert extensionally_equal(direct, routed)
