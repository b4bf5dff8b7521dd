from fractions import Fraction
from random import Random

import pytest

from endflow.errors import InfiniteDifferenceError
from endflow.extmath import INF, is_inf
from endflow.gen import (
    random_region,
    random_state,
    random_tree,
    random_valid_charge,
    small_fraction,
)
from endflow.measure import (
    MeasureState,
    base_state,
    j_value,
    mass,
    mu_equivalent,
    omega_finite_ends,
)
from endflow.section import build_section
from endflow.transport import MoveWord, _replay
from endflow.tree import check_region, compactly_equivalent


def test_mass_of_regions(star_tree):
    mu = base_state(star_tree)
    assert mass(mu, {"r", "u", "v"}) == 7
    assert mass(mu, {"l3"}) == 5
    assert mass(mu, {"u", "l1"}) is INF


def test_omega_finite_ends(star_tree):
    mu = base_state(star_tree)
    assert omega_finite_ends(mu) == {"l3"}
    all_finite = MeasureState(
        star_tree,
        mu.blocks,
        {"l1": Fraction(1), "l2": Fraction(2), "l3": Fraction(5)},
    )
    assert omega_finite_ends(all_finite) == {"l1", "l2", "l3"}
    all_infinite = MeasureState(
        star_tree, mu.blocks, {"l1": INF, "l2": INF, "l3": INF}
    )
    assert omega_finite_ends(all_infinite) == frozenset()


def test_mu_equivalence(star_tree):
    mu = base_state(star_tree)
    assert mu_equivalent(mu, {"u", "l1"}, {"u", "l1", "l3"})
    assert not mu_equivalent(mu, {"u", "l1"}, {"u"})


def test_compact_equivalence_implies_mu_equivalence():
    rng = Random(5)
    for _ in range(50):
        t = random_tree(rng)
        mu = random_state(rng, t)
        a = frozenset(v for v in t.nodes if rng.random() < 0.5)
        b = frozenset(v for v in t.nodes if rng.random() < 0.5)
        if compactly_equivalent(t, a, b):
            assert mu_equivalent(mu, a, b)


def test_j_value(star_tree):
    mu = base_state(star_tree)
    assert j_value(mu, {"u", "l1"}, {"u", "l1", "v"}) == -1
    assert j_value(mu, {"r", "l3"}, {"r", "l3"}) == 0
    assert j_value(mu, {"r", "l3"}, {"l3"}) == 4


def test_j_value_requires_equivalence(star_tree):
    mu = base_state(star_tree)
    with pytest.raises(InfiniteDifferenceError):
        j_value(mu, {"u", "l1"}, {"u"})


def _equivalent_triple(rng, tree, mu):
    infinite = {v for v in tree.end_leaves if is_inf(mu.tails[v])}
    finite = [v for v in tree.nodes if v not in infinite]
    shared = frozenset(v for v in infinite if rng.random() < 0.5)
    make = lambda: frozenset(v for v in finite if rng.random() < 0.5) | shared
    return make(), make(), make()


def test_finite_difference_identity():
    rng = Random(11)
    for _ in range(60):
        t = random_tree(rng)
        mu = random_state(rng, t)
        a, b, _ = _equivalent_triple(rng, t, mu)
        if is_inf(mass(mu, a)) or is_inf(mass(mu, b)):
            continue
        assert j_value(mu, a, b) == mass(mu, a) - mass(mu, b)


def test_cocycle_identity():
    rng = Random(12)
    for _ in range(60):
        t = random_tree(rng)
        mu = random_state(rng, t)
        a, b, c = _equivalent_triple(rng, t, mu)
        assert j_value(mu, a, b) + j_value(mu, b, c) == j_value(mu, a, c)


def test_disjoint_union_additivity():
    rng = Random(13)
    hits = 0
    for _ in range(200):
        t = random_tree(rng)
        mu = random_state(rng, t)
        a, c, _ = _equivalent_triple(rng, t, mu)
        b, d, _ = _equivalent_triple(rng, t, mu)
        b, d = b - a, d - c
        if (a & b) or (c & d):
            continue
        if not (mu_equivalent(mu, a, c) and mu_equivalent(mu, b, d)):
            continue
        hits += 1
        assert j_value(mu, a | b, c | d) == j_value(mu, a, c) + j_value(
            mu, b, d
        )
    assert hits > 20


def test_mass_is_finitely_additive():
    rng = Random(14)
    for _ in range(60):
        t = random_tree(rng)
        mu = random_state(rng, t)
        a = frozenset(v for v in t.nodes if rng.random() < 0.4)
        b = frozenset(v for v in t.nodes if rng.random() < 0.4) - a
        lhs = mass(mu, a | b)
        ra, rb = mass(mu, a), mass(mu, b)
        if is_inf(ra) or is_inf(rb):
            assert lhs is INF
        else:
            assert lhs == ra + rb


def test_j_value_perturbation_bound():
    # changing one block by eps moves any defined difference by at most eps
    rng = Random(15)
    for _ in range(40):
        t = random_tree(rng)
        mu = random_state(rng, t)
        a, b, _ = _equivalent_triple(rng, t, mu)
        v = rng.choice(list(t.block_nodes))
        eps = Fraction(1, rng.randint(2, 9))
        mu2 = MeasureState(
            t, {**mu.blocks, v: mu.blocks[v] + eps}, mu.tails
        )
        delta = j_value(mu2, a, b) - j_value(mu, a, b)
        assert abs(delta) <= eps


def _summing_mass(mu, region):
    """Reference: the summing loop ``mass`` used before it checked the
    tails first."""
    r = check_region(mu.tree, region)
    total = Fraction(0)
    for v in r:
        m = mu.node_mass(v)
        if is_inf(m):
            return INF
        total += m
    return total


def _states(rng, tree):
    """A base state, a random state, one whose tails are all finite, and
    runners caught halfway through a section."""
    mu = base_state(tree)
    states = [mu, random_state(rng, tree)]
    states.append(
        MeasureState(
            tree,
            states[1].blocks,
            {v: small_fraction(rng) for v in tree.end_leaves},
        )
    )
    word = build_section(tree, mu, random_valid_charge(rng, tree, mu))
    for k in (len(word.moves) // 3, len(word.moves) // 2):
        states.append(_replay(MoveWord(tree, mu, word.moves[:k])))
    return states


def test_mass_matches_the_summing_loop(sample_trees):
    rng = Random(77)
    kinds = set()
    for tree in sample_trees:
        for mu in _states(rng, tree):
            finite = [v for v in tree.end_leaves if not is_inf(mu.tails[v])]
            for _ in range(6):
                blocks = random_region(rng, tree, 0.5) - tree.end_leaf_set
                regions = [
                    blocks,
                    blocks | random_region(rng, tree, 0.5) & set(finite),
                    random_region(rng, tree, 0.5),
                    tree.node_set,
                    frozenset(),
                ]
                for r in regions:
                    got, want = mass(mu, r), _summing_mass(mu, r)
                    assert got == want
                    assert is_inf(got) == is_inf(want)
                    kinds.add((is_inf(got), bool(r & tree.end_leaf_set)))
    # regions without tails, with only finite tails, and with infinite ones
    assert kinds == {(False, False), (False, True), (True, True)}
