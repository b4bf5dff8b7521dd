from fractions import Fraction
from random import Random

import pytest

from endflow.charge import charge_eval, linear_combine, validate_charge
from endflow.errors import (
    BadSupportError,
    ChargeUndefinedError,
    MassNotConservedError,
    NonPositiveBlockError,
)
from endflow.gen import random_preserving_word, random_region, random_tree
from endflow.measure import base_state
from endflow.transport import (
    BalloonMove,
    FluxField,
    MoveWord,
    Rearrange,
    _Runner,
    apply_move,
    apply_word,
    charge_of_word,
    concat,
    empty_word,
    extensionally_equal,
    invert_word,
    is_measure_preserving,
    rearrange_to_moves,
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
        # the decomposition runs the runner's checks, so it fails alike
        with pytest.raises(err) as decomposed:
            rearrange_to_moves(star_tree, mu, mv.support, mv.masses)
        assert str(decomposed.value) == str(applied.value)


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
            if isinstance(mv, Rearrange):
                before = runner.state()
                moves = rearrange_to_moves(t, runner, mv.support, mv.masses)
                direct = MoveWord(t, before, (mv,))
                routed = MoveWord(t, before, tuple(moves))
                assert extensionally_equal(direct, routed)
            runner.apply(mv)
