from fractions import Fraction
from random import Random

import pytest

from endflow.charge import EndCharge, charge_eval, zero_charge
from endflow.errors import (
    AlignPreconditionError,
    BadDecompositionError,
    InfeasibleTransferError,
    InvalidChargeError,
    RangeError,
    TreeMismatchError,
)
from endflow.extmath import INF, NEG_INF
from endflow.gen import random_preserving_word, random_tree, random_valid_charge
from endflow.measure import base_state
from endflow.section import (
    Exhaustion,
    _cut_problems,
    align_step,
    build_section,
    factorize,
    feasibility_interval,
    forced_flux,
    retract,
    solve_balloon_parameter,
)
from endflow.transport import (
    BalloonMove,
    MoveWord,
    apply_word,
    charge_of_word,
    concat,
    empty_word,
    extensionally_equal,
    is_measure_preserving,
    region_transfer,
)
from endflow.tree import BalloonTree, region_ends
from endflow.verify import solve_flux_by_elimination


def test_forced_flux_examples(star_tree):
    a = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    flux = forced_flux(star_tree, a)
    assert flux[("r", "u")] == 3
    assert flux[("u", "l1")] == 3
    assert flux[("r", "v")] == -3
    assert flux[("v", "l2")] == -3
    assert flux[("r", "l3")] == 0
    zero = forced_flux(star_tree, zero_charge(star_tree))
    assert all(x == 0 for x in zero.flux.values())


def test_forced_flux_with_infinite_third_tail(star_tree):
    variant = BalloonTree(
        root="r",
        children=star_tree.children,
        weights=star_tree.weights,
        tails={"l1": INF, "l2": INF, "l3": INF},
    )
    a = EndCharge(
        variant, {"l1": Fraction(1), "l2": Fraction(1), "l3": Fraction(-2)}
    )
    flux = forced_flux(variant, a)
    assert flux[("r", "l3")] == -2
    assert flux[("r", "u")] == 1
    assert flux[("r", "v")] == 1
    assert flux[("u", "l1")] == 1
    assert flux[("v", "l2")] == 1


def test_forced_flux_rejects_bad_charge(star_tree):
    with pytest.raises(InvalidChargeError):
        forced_flux(star_tree, EndCharge(star_tree, {"l1": Fraction(1)}))


def test_forced_flux_matches_elimination_oracle():
    rng = Random(41)
    for _ in range(30):
        t = random_tree(rng)
        a = random_valid_charge(rng, t)
        assert forced_flux(t, a).flux == solve_flux_by_elimination(t, a)


def test_feasibility_interval(star_tree):
    mu = base_state(star_tree)
    iv = feasibility_interval(mu, {"u", "l1"}, {"v", "l2", "l3", "r"})
    assert iv.low is NEG_INF and iv.high is INF
    iv = feasibility_interval(mu, {"v"}, {"r"})
    assert (iv.low, iv.high) == (-1, 4)
    iv = feasibility_interval(mu, {"l3"}, {"r"})
    assert (iv.low, iv.high) == (-5, 4)
    with pytest.raises(BadDecompositionError):
        feasibility_interval(mu, {"r", "v"}, {"r"})


def test_solve_balloon_parameter(star_tree):
    mu = base_state(star_tree)
    assert solve_balloon_parameter(mu, {"v"}, {"r"}, 0) == 0
    assert solve_balloon_parameter(mu, {"v"}, {"r"}, 2) == Fraction(1, 2)
    assert solve_balloon_parameter(mu, {"v"}, {"r"}, Fraction(-1, 2)) == Fraction(-1, 2)
    # infinite side uses the bounded gauge
    t = solve_balloon_parameter(mu, {"u", "l1"}, {"r", "v", "l2"}, 7)
    assert t == Fraction(7, 8)
    with pytest.raises(InfeasibleTransferError):
        solve_balloon_parameter(mu, {"v"}, {"r"}, -1)
    with pytest.raises(InfeasibleTransferError):
        solve_balloon_parameter(mu, {"v"}, {"r"}, 4)
    with pytest.raises(InfeasibleTransferError):
        solve_balloon_parameter(mu, {"v"}, {"r"}, 5)


def test_align_step_from_scratch(star_tree):
    mu = base_state(star_tree)
    a = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    h = align_step(
        mu, frozenset(), frozenset({"r", "u", "v"}), empty_word(mu),
        empty_word(mu), a,
    )
    state, flux = apply_word(h)
    assert state.blocks == mu.blocks
    assert flux[("r", "u")] == 3
    assert flux[("r", "v")] == -3
    assert flux[("r", "l3")] == 0
    for region in ({"u", "l1"}, {"v", "l2"}, {"l3"}):
        assert region_transfer(h, region) == charge_eval(
            a, region_ends(star_tree, region)
        )


def test_align_step_trivial_when_zero(star_tree):
    mu = base_state(star_tree)
    h = align_step(
        mu, frozenset(), frozenset({"r", "u", "v"}), empty_word(mu),
        empty_word(mu), zero_charge(star_tree),
    )
    assert len(h) == 0


def test_align_step_checks_hypotheses(star_tree):
    mu = base_state(star_tree)
    biased = EndCharge(star_tree, {"l1": Fraction(1)})  # total nonzero
    with pytest.raises(AlignPreconditionError):
        align_step(
            mu, frozenset(), frozenset({"r", "u", "v"}), empty_word(mu),
            empty_word(mu), biased,
        )


BLOCKS = frozenset({"r", "u", "v"})
SPLIT = {"l1": Fraction(3), "l2": Fraction(-3)}
ALIGN_PRECONDITIONS = {
    "cut_holds_end_leaf": (
        frozenset(), BLOCKS | {"l1"}, SPLIT, "cut contains non-block nodes"
    ),
    "cut_not_downward_closed": (
        frozenset({"u"}), BLOCKS, SPLIT, "inner cut not downward closed"
    ),
    "inner_not_in_outer": (
        frozenset({"r", "u"}), frozenset({"r", "v"}), SPLIT,
        "inside the outer cut",
    ),
    "states_disagree_on_inner": (
        frozenset({"r"}), BLOCKS, SPLIT, "disagree on inner cut"
    ),
    # the only piece is the whole tree, wholly beyond the empty outer cut,
    # and nothing has moved into it while the charge asks for 1
    "piece_beyond_outer_misses_target": (
        frozenset(), frozenset(), {"l3": Fraction(1)}, "transfer mismatch"
    ),
}


@pytest.mark.parametrize(
    "inner, outer, values, match",
    ALIGN_PRECONDITIONS.values(),
    ids=ALIGN_PRECONDITIONS.keys(),
)
def test_align_step_rejects_bad_cuts_and_states(
    star_tree, inner, outer, values, match
):
    mu = base_state(star_tree)
    # moves mass off the root, so the word and the empty target disagree
    # on every cut holding the root
    word = MoveWord(star_tree, mu, (BalloonMove(("r", "u"), Fraction(1)),))
    a = EndCharge(star_tree, values)
    with pytest.raises(AlignPreconditionError, match=match):
        align_step(mu, inner, outer, word, empty_word(mu), a)


def test_align_step_sentinel_on_smuggled_charge(star_tree):
    # total is zero, so the hypothesis on the whole tree passes, but the
    # finite tail cannot absorb 6 units: the interval check must fire
    mu = base_state(star_tree)
    smuggled = EndCharge(
        star_tree, {"l1": Fraction(6), "l3": Fraction(-6)}
    )
    with pytest.raises(InfeasibleTransferError):
        align_step(
            mu, frozenset(), frozenset({"r", "u", "v"}), empty_word(mu),
            empty_word(mu), smuggled,
        )


def test_build_section_example(star_tree):
    mu = base_state(star_tree)
    a = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    word = build_section(star_tree, mu, a)
    assert is_measure_preserving(word)
    assert charge_of_word(word) == a
    _, flux = apply_word(word)
    assert flux == forced_flux(star_tree, a)


def test_build_section_zero_is_empty(star_tree):
    mu = base_state(star_tree)
    assert len(build_section(star_tree, mu, zero_charge(star_tree))) == 0


def test_build_section_rejects_inadmissible(star_tree):
    mu = base_state(star_tree)
    with pytest.raises(InvalidChargeError):
        build_section(
            star_tree, mu, EndCharge(star_tree, {"l1": Fraction(1)})
        )


def test_build_section_round_trip_randomized():
    rng = Random(42)
    for _ in range(60):
        t = random_tree(rng, max_depth=rng.randint(2, 6), max_nodes=48)
        mu = base_state(t)
        a = random_valid_charge(rng, t, mu)
        word = build_section(t, mu, a)
        assert charge_of_word(word) == a
        _, flux = apply_word(word)
        assert flux == forced_flux(t, a)


def test_build_section_with_coarse_exhaustion(star_tree):
    mu = base_state(star_tree)
    a = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    coarse = Exhaustion.from_depths(star_tree, [2])
    word = build_section(star_tree, mu, a, coarse)
    assert charge_of_word(word) == a


BAD_EXHAUSTIONS = {
    "not_downward_closed": (
        (frozenset({"u"}), BLOCKS), "level 0 not downward closed at 'u'"
    ),
    "foreign_id": (
        (frozenset({"r", "zz"}), BLOCKS),
        "level 0 contains non-block nodes; level 1 does not contain level 0",
    ),
    "shrinking": (
        (BLOCKS, frozenset({"r"}), BLOCKS), "level 1 does not contain level 0"
    ),
    "not_covering": (
        (frozenset({"r"}), frozenset({"r", "u"})),
        "exhaustion does not cover all block nodes",
    ),
}


@pytest.mark.parametrize(
    "levels, problem", BAD_EXHAUSTIONS.values(), ids=BAD_EXHAUSTIONS.keys()
)
def test_build_section_rejects_bad_exhaustion(star_tree, levels, problem):
    # the section's levels are checked here once; _align trusts them
    mu = base_state(star_tree)
    a = EndCharge(star_tree, SPLIT)
    with pytest.raises(ValueError) as err:
        build_section(star_tree, mu, a, Exhaustion(star_tree, levels))
    assert str(err.value) == "invalid exhaustion: " + problem


def test_build_section_rejects_exhaustion_of_another_tree(star_tree):
    other = BalloonTree(
        root="r",
        children={"r": ("u", "l1")},
        weights={"r": Fraction(1), "u": Fraction(1)},
        tails={"l1": INF},
        closed={"u"},
    )
    mu = base_state(star_tree)
    a = EndCharge(star_tree, SPLIT)
    with pytest.raises(TreeMismatchError):
        build_section(star_tree, mu, a, Exhaustion.default(other))


def test_exhaustion_validation(star_tree):
    bad = Exhaustion(star_tree, (frozenset({"u"}),))
    problems = bad.validate()
    assert any("downward closed" in p for p in problems)
    assert any("cover" in p for p in problems)
    good = Exhaustion.default(star_tree)
    assert good.validate() == []


def test_factorize(star_tree):
    rng = Random(43)
    mu = base_state(star_tree)
    w = random_preserving_word(rng, star_tree, mu)
    kernel, a = factorize(w)
    assert a == charge_of_word(w)
    assert charge_of_word(kernel).is_zero()
    s = build_section(star_tree, mu, a)
    assert extensionally_equal(concat(s, kernel), w)


def test_factorize_empty(star_tree):
    mu = base_state(star_tree)
    kernel, a = factorize(empty_word(mu))
    assert a.is_zero()
    assert len(kernel) == 0


def test_factorize_zero_charge_word_is_its_own_kernel(star_tree):
    mu = base_state(star_tree)
    rng = Random(44)
    w = random_preserving_word(rng, star_tree, mu, transfers=0, shuffles=3)
    assert charge_of_word(w).is_zero()
    kernel, a = factorize(w)
    assert a.is_zero()
    assert extensionally_equal(kernel, w)


def test_retract(star_tree):
    mu = base_state(star_tree)
    w = MoveWord(
        star_tree,
        mu,
        build_section(
            star_tree,
            mu,
            EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)}),
        ).moves,
    )
    assert extensionally_equal(retract(w, 0), w)
    assert charge_of_word(retract(w, 1)).is_zero()
    half = charge_of_word(retract(w, Fraction(1, 2)))
    assert half.values == {"l1": Fraction(3, 2), "l2": Fraction(-3, 2), "l3": 0}
    with pytest.raises(RangeError):
        retract(w, Fraction(3, 2))
    with pytest.raises(RangeError):
        retract(w, Fraction(-1, 2))


def test_retract_fixes_kernel_words(star_tree):
    rng = Random(45)
    mu = base_state(star_tree)
    w = random_preserving_word(rng, star_tree, mu, transfers=0, shuffles=2)
    for tau in (0, Fraction(1, 3), Fraction(1, 2), 1):
        assert extensionally_equal(retract(w, tau), w)


def test_truncation_stability(star_tree):
    from endflow.gen import refine_ends

    rng = Random(46)
    mu = base_state(star_tree)
    a = EndCharge(star_tree, {"l1": Fraction(3), "l2": Fraction(-3)})
    fine = refine_ends(rng, star_tree)
    a_fine = EndCharge(fine, dict(a.values))
    _, coarse_flux = apply_word(build_section(star_tree, mu, a))
    _, fine_flux = apply_word(build_section(fine, base_state(fine), a_fine))
    for (p, c) in star_tree.edges:
        if (p, c) in fine_flux.flux:
            assert coarse_flux[(p, c)] == fine_flux[(p, c)]
        else:
            pos = star_tree.child_map(p).index(c)
            assert coarse_flux[(p, c)] == fine_flux[(p, fine.child_map(p)[pos])]


def _walking_cut_problems(tree, cut):
    """Reference: the node-by-node walk ``_cut_problems`` used for every cut."""
    out = []
    if any(v in tree.tails or v not in tree.preorder_index for v in cut):
        out.append("contains non-block nodes")
    for v in cut:
        p = tree.parent.get(v)
        if p is not None and p not in cut:
            out.append(f"not downward closed at {v!r}")
    return out


def test_cut_problems_match_the_node_walk(sample_trees):
    rng = Random(31)
    seen = set()
    for tree in sample_trees:
        blocks = frozenset(tree.block_nodes)
        cuts = [frozenset(), blocks, tree.node_set, frozenset({"zz"})]
        cuts += Exhaustion.default(tree).levels
        for _ in range(20):
            some = frozenset(v for v in tree.nodes if rng.random() < 0.5)
            cuts += [some, some & blocks, some | {"zz"}]
        for cut in cuts:
            got = _cut_problems(tree, cut)
            assert got == _walking_cut_problems(tree, cut)
            seen.add(bool(got))
    assert seen == {False, True}


def _scanning_levels(tree, depths):
    """Reference: the per-depth scan ``from_depths`` used before it sorted."""
    return tuple(
        frozenset(v for v in tree.block_nodes if tree.depth[v] < d)
        for d in depths
    )


def test_from_depths_matches_the_scan(sample_trees):
    rng = Random(32)
    for tree in sample_trees:
        top = max(tree.depth.values())
        depth_lists = [
            range(1, top + 2),
            [3, 1, 2, 2, 0],
            [-4, top + 10, 1, top + 10, -1],
            [],
            [rng.randint(-2, top + 3) for _ in range(12)],
        ]
        for depths in depth_lists:
            ex = Exhaustion.from_depths(tree, depths)
            assert ex.levels == _scanning_levels(tree, depths)
