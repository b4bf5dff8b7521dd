from fractions import Fraction
from random import Random

import pytest

from endflow.charge import EndCharge
from endflow.errors import (
    ChargeUndefinedError,
    CutTooShallowError,
    NonPositiveMassError,
    RealizationError,
    TreeMismatchError,
)
from endflow.extmath import INF, is_inf
from endflow.gen import random_preserving_word, random_star
from endflow.measure import base_state
from endflow.raystar import (
    RayStar,
    _PLBuilder,
    charge_from_definition,
    compare_oracle,
    image_intervals,
    invert_plmap,
    iset_mass,
    iset_normalize,
    iset_subtract,
    preimage_intervals,
    realize_word,
    region_intervals,
)
from endflow.section import build_section
from endflow.transport import (
    BalloonMove,
    MoveWord,
    _Runner,
    charge_of_word,
    concat,
    empty_word,
    invert_word,
)


@pytest.fixture
def three_star():
    return RayStar(Fraction(4), ((Fraction(1),), (Fraction(1),), (Fraction(1),)), (INF, INF, INF))


@pytest.fixture
def push_word_fixture(three_star):
    tree = three_star.to_tree()
    mu = base_state(tree)
    return MoveWord(
        tree,
        mu,
        (
            BalloonMove(("r1c0", "r1e"), Fraction(-3)),
            BalloonMove(("c", "r1c0"), Fraction(-3)),
            BalloonMove(("c", "r0c0"), Fraction(3)),
            BalloonMove(("r0c0", "r0e"), Fraction(3)),
        ),
    )


def test_star_tree_round_trip(three_star):
    tree = three_star.to_tree()
    rebuilt = RayStar.from_tree(tree, 3, 1)
    assert rebuilt.cells == three_star.cells
    assert rebuilt.tails == three_star.tails
    assert rebuilt.center_mass == three_star.center_mass


def test_identity_realization(three_star):
    tree = three_star.to_tree()
    h = realize_word(three_star, empty_word(base_state(tree)))
    assert all(p.slope == 1 and p.a == 0 for p in h.pieces)
    assert charge_from_definition(three_star, h, 5).is_zero()


def test_push_through_center(three_star, push_word_fixture):
    h = realize_word(three_star, push_word_fixture)
    assert h.eventual_shift(0) == 3
    assert h.eventual_shift(1) == -3
    assert h.eventual_shift(2) == 0
    assert all(abs(p.slope) == 1 for p in h.pieces)


def test_zero_charge_word_has_zero_shifts(three_star):
    tree = three_star.to_tree()
    mu = base_state(tree)
    rng = Random(61)
    w = random_preserving_word(rng, tree, mu, transfers=0, shuffles=3)
    assert charge_of_word(w).is_zero()
    h = realize_word(three_star, w)
    for i in range(3):
        assert h.eventual_shift(i) == 0


def test_charge_from_definition_cut_independent(three_star, push_word_fixture):
    h = realize_word(three_star, push_word_fixture)
    base_cut = h.last_breakpoint() + 1
    charges = [
        charge_from_definition(three_star, h, base_cut + k) for k in (0, 7, 100)
    ]
    assert charges[0].values == {"r0e": 3, "r1e": -3, "r2e": 0}
    assert charges[0] == charges[1] == charges[2]


def test_cut_too_shallow(three_star, push_word_fixture):
    h = realize_word(three_star, push_word_fixture)
    with pytest.raises(CutTooShallowError):
        charge_from_definition(three_star, h, Fraction(1, 2))


def test_realize_requires_preserving(three_star):
    tree = three_star.to_tree()
    mu = base_state(tree)
    w = MoveWord(tree, mu, (BalloonMove(("c", "r0c0"), Fraction(1)),))
    with pytest.raises(ChargeUndefinedError):
        realize_word(three_star, w)


def test_edge_move_off_the_star_is_rejected(three_star):
    # the runner realize_word shares its unit with checks every edge
    tree = three_star.to_tree()
    mu = base_state(tree)
    for edge in (("r0c0", "c"), ("r0c0", "r1e"), ("c", "r0e"), ("x", "y")):
        word = MoveWord(tree, mu, (BalloonMove(edge, Fraction(1, 2)),))
        with pytest.raises(TreeMismatchError):
            realize_word(three_star, word)


def test_edge_move_beyond_the_region_mass_is_rejected(three_star):
    # the center holds 4 and r0c0 holds 1
    for amount in (5, -2):
        builder = _PLBuilder(three_star, 1)
        with pytest.raises(ArithmeticError):
            builder._shift(("c", "r0c0"), amount)


def test_edge_move_beyond_the_region_mass_is_a_realization_error(three_star):
    builder = _PLBuilder(three_star, 1)
    with pytest.raises(RealizationError, match="more mass than the region"):
        builder._shift(("c", "r0c0"), 5)


def test_edge_move_off_the_unit_is_refused_not_rounded(three_star):
    # every interval end of the star is an integer, so its own unit is 1;
    # the runner in front of the builder refuses what that unit misses
    mu = base_state(three_star.to_tree())
    runner = _Runner(mu, 1)
    with pytest.raises(
        ValueError, match=r"^1/3 is not a whole number of units 1/1$"
    ):
        runner.apply(BalloonMove(("c", "r0c0"), Fraction(1, 3)))
    assert runner.state() == mu
    # a builder on a finer unit takes the move
    builder = _PLBuilder(three_star, 6)
    assert builder.unit == 6
    builder._shift(("c", "r0c0"), 2)
    builder._shift(("c", "r0c0"), -2)
    h = builder.to_plmap()
    assert [(p.lo, p.a, p.slope) for p in h.pieces] == [(0, 0, 1)] * 4


@pytest.mark.parametrize(
    "center, cells, tails, where",
    [
        (0, ((1,), (1,)), (INF, INF), "the center"),
        (-2, ((1,), (1,)), (INF, INF), "the center"),
        (4, ((1, 2), (1, Fraction(-1, 3))), (INF, INF), r"cell \(1, 1\)"),
        (4, ((0, 2), (1, 1)), (INF, INF), r"cell \(0, 0\)"),
        (4, ((1,), (1,)), (INF, 0), "the tail of ray 1"),
        (4, ((1,), (1,)), (-3, INF), "the tail of ray 0"),
    ],
)
def test_star_rejects_nonpositive_masses(center, cells, tails, where):
    with pytest.raises(NonPositiveMassError, match=where) as err:
        RayStar(center, cells, tails)
    assert isinstance(err.value, ValueError)


def test_star_accepts_positive_and_infinite_masses():
    star = RayStar(Fraction(1, 9), ((Fraction(1, 7),), (3,)), (Fraction(1, 5), INF))
    assert star.tails == (Fraction(1, 5), INF)


def test_compare_oracle_on_section_words(three_star):
    tree = three_star.to_tree()
    mu = base_state(tree)
    a = EndCharge(
        tree,
        {"r0e": Fraction(5, 2), "r1e": Fraction(-3, 2), "r2e": Fraction(-1)},
    )
    w = build_section(tree, mu, a)
    assert compare_oracle(three_star, w)


def test_compare_oracle_randomized():
    rng = Random(62)
    for _ in range(40):
        star = random_star(rng)
        tree = star.to_tree()
        w = random_preserving_word(rng, tree, base_state(tree))
        assert compare_oracle(star, w)
        h = realize_word(star, w)
        assert all(abs(p.slope) == 1 for p in h.pieces)


def test_transient_finite_tail_flux():
    star = RayStar(
        Fraction(4),
        ((Fraction(1),), (Fraction(1),), (Fraction(1),)),
        (INF, INF, Fraction(5)),
    )
    tree = star.to_tree()
    mu = base_state(tree)
    w = MoveWord(
        tree,
        mu,
        (
            # dip into the finite tail and come back, then a real transfer
            BalloonMove(("r2c0", "r2e"), Fraction(1, 2)),
            BalloonMove(("r2c0", "r2e"), Fraction(-1, 2)),
            BalloonMove(("r0c0", "r0e"), Fraction(-2)),
            BalloonMove(("c", "r0c0"), Fraction(-2)),
            BalloonMove(("c", "r1c0"), Fraction(2)),
            BalloonMove(("r1c0", "r1e"), Fraction(2)),
        ),
    )
    assert charge_of_word(w).values == {"r0e": -2, "r1e": 2, "r2e": 0}
    assert compare_oracle(star, w)
    h = realize_word(star, w)
    assert h.eventual_shift(2) == 0


def test_composition_matches_pointwise():
    rng = Random(63)
    for _ in range(15):
        star = random_star(rng, max_rays=3, max_depth=2)
        tree = star.to_tree()
        mu = base_state(tree)
        w1 = random_preserving_word(rng, tree, mu, transfers=2, shuffles=1)
        w2 = random_preserving_word(rng, tree, mu, transfers=2, shuffles=1)
        h1 = realize_word(star, w1)
        h2 = realize_word(star, w2)
        h12 = realize_word(star, concat(w1, w2))
        for i in range(star.ray_count):
            assert h12.eventual_shift(i) == h1.eventual_shift(
                i
            ) + h2.eventual_shift(i)
        # sample points compose: h12 agrees with h2 after h1
        from endflow.extmath import is_inf

        for i in range(star.ray_count):
            length = star.ray_length(i)
            if is_inf(length):
                xs = [Fraction(k, 2) for k in range(1, 13)]
            else:
                xs = [length * Fraction(k, 8) for k in range(1, 8)]
            for x in xs:
                loc, y = h1.apply(i, x)
                assert h12.apply(i, x) == h2.apply(loc, y)


def test_interval_algebra():
    a = [(0, Fraction(0), Fraction(2)), (0, Fraction(1), Fraction(3))]
    assert iset_normalize(a) == [(0, 0, 3)]
    assert iset_mass(a) == 3
    b = [(0, Fraction(1), Fraction(2))]
    assert iset_subtract(a, b) == [(0, 0, 1), (0, 2, 3)]
    tail = [(1, Fraction(0), INF)]
    assert iset_mass(tail) is INF
    assert iset_subtract(tail, [(1, Fraction(1), INF)]) == [(1, 0, 1)]


def test_difference_identity_by_intervals(three_star, push_word_fixture):
    h = realize_word(three_star, push_word_fixture)
    star = three_star
    # regions sharing the same tails differ by finite mass
    A = region_intervals(star, ["r0c0", "r0e", "r1e", "c"])
    B = region_intervals(star, ["r0e", "r1e", "r1c0"])
    preA = preimage_intervals(h, A)
    preB = preimage_intervals(h, B)
    lhs = iset_mass(iset_subtract(preA, preB)) - iset_mass(
        iset_subtract(preB, preA)
    )
    rhs = iset_mass(preimage_intervals(h, iset_subtract(A, B))) - iset_mass(
        preimage_intervals(h, iset_subtract(B, A))
    )
    assert lhs == rhs


def test_image_preimage_inverse(three_star, push_word_fixture):
    h = realize_word(three_star, push_word_fixture)
    region = region_intervals(three_star, ["r0c0", "c"])
    there = image_intervals(h, region)
    back = image_intervals(invert_plmap(h), there)
    assert iset_mass(iset_subtract(back, region)) == 0
    assert iset_mass(iset_subtract(region, back)) == 0
    # measure of the image equals the pulled-back measure of the region
    assert iset_mass(preimage_intervals(h, region)) == iset_mass(
        image_intervals(invert_plmap(h), region)
    )


def test_cancelling_moves_realize_to_the_identity():
    star = random_star(Random(81))
    tree = star.to_tree()
    mu = base_state(tree)
    for edge in tree.edges:
        d = min(m for m in map(mu.node_mass, edge) if not is_inf(m)) / 2
        for sign in (1, -1):
            w = MoveWord(
                tree,
                mu,
                (BalloonMove(edge, sign * d), BalloonMove(edge, -sign * d)),
            )
            assert _is_identity(star, realize_word(star, w))


def _is_identity(star, h):
    """One piece per location, each the identity: a = 0, slope 1."""
    return [(p.src, p.dst, p.lo, p.a, p.slope) for p in h.pieces] == [
        (loc, loc, 0, 0, 1) for loc in range(star.ray_count + 1)
    ]


def test_a_word_followed_by_its_inverse_realizes_to_the_identity():
    """Deficits of a shuffle are served in reverse preorder, so the
    inverse shuffle's edge steps undo this one's segment by segment."""
    not_identity = []
    for seed in range(300):
        rng = Random(seed)
        star = random_star(rng)
        w = random_preserving_word(rng, star.to_tree())
        h = realize_word(star, concat(w, invert_word(w)))
        if not _is_identity(star, h):
            not_identity.append(seed)
    assert not_identity == []
