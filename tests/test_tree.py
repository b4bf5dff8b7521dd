from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from endflow.errors import MalformedRegionError
from endflow.extmath import INF
from endflow.gen import random_tree
from endflow.tree import (
    BalloonTree,
    compactly_equivalent,
    end_complement,
    end_intersection,
    end_union,
    ends_disjoint,
    region_ends,
    validate_tree,
)

LEAVES = ["l1", "l2", "l3"]
NODES = ["r", "u", "v", "l1", "l2", "l3"]


def test_fixture_is_valid(star_tree):
    assert validate_tree(star_tree) == []


def test_zero_weight_is_flagged(star_tree):
    broken = BalloonTree(
        root="r",
        children=star_tree.children,
        weights={**star_tree.weights, "v": Fraction(0)},
        tails=star_tree.tails,
    )
    problems = validate_tree(broken)
    assert any("non-positive weight at 'v'" in p for p in problems)


def test_no_end_leaf_is_flagged(star_tree):
    broken = BalloonTree(
        root="r",
        children=star_tree.children,
        weights={
            **star_tree.weights,
            "l1": Fraction(1),
            "l2": Fraction(1),
            "l3": Fraction(1),
        },
        tails={},
        closed=frozenset({"l1", "l2", "l3"}),
    )
    problems = validate_tree(broken)
    assert any("no End leaf" in p for p in problems)


def test_unreachable_and_multiparent_flagged():
    t = BalloonTree(
        root="a",
        children={"a": ("b",), "c": ("b",)},
        weights={"a": Fraction(1), "c": Fraction(2)},
        tails={"b": INF},
    )
    problems = validate_tree(t)
    assert any("multiple parents" in p for p in problems)
    assert any("unreachable" in p for p in problems)


def test_unreachable_nodes_are_reported_in_sorted_order():
    t = BalloonTree(
        root="a",
        children={"a": ("e",)},
        weights={v: Fraction(1) for v in ("a", "n4", "n2", "n3")},
        tails={"e": INF},
    )
    assert validate_tree(t) == [
        f"node {v!r} unreachable from root" for v in ("n2", "n3", "n4")
    ]


def test_a_child_listed_twice_is_no_cycle():
    t = BalloonTree(
        root="a",
        children={"a": ("e", "e")},
        weights={"a": Fraction(1)},
        tails={"e": INF},
    )
    assert validate_tree(t) == [
        "node 'e' is listed twice among the children of 'a'"
    ]


def test_a_real_cycle_is_still_reported():
    t = BalloonTree(
        root="a",
        children={"a": ("b", "e"), "b": ("c",), "c": ("b",)},
        weights={"a": Fraction(1), "b": Fraction(1), "c": Fraction(1)},
        tails={"e": INF},
    )
    problems = validate_tree(t)
    assert "cycle through node 'b'" in problems
    assert not any("listed twice" in p for p in problems)


def test_untagged_leaf_flagged():
    t = BalloonTree(
        root="a",
        children={"a": ("b", "e")},
        weights={"a": Fraction(1), "b": Fraction(1)},
        tails={"e": INF},
    )
    assert any("neither an End nor a Closed" in p for p in validate_tree(t))


def test_region_ends(star_tree):
    assert region_ends(star_tree, {"u", "l1"}) == {"l1"}
    assert region_ends(star_tree, set(star_tree.nodes)) == {"l1", "l2", "l3"}
    assert region_ends(star_tree, {"r", "u", "v"}) == frozenset()


def test_region_ends_rejects_foreign_nodes(star_tree):
    with pytest.raises(MalformedRegionError):
        region_ends(star_tree, {"nope"})


def test_compactly_equivalent(star_tree):
    assert compactly_equivalent(star_tree, {"u", "l1"}, {"u", "l1", "v"})
    assert not compactly_equivalent(star_tree, {"u", "l1"}, {"u"})
    assert compactly_equivalent(star_tree, {"v", "l2"}, {"v", "l2"})


def test_clopen_ops(star_tree):
    assert end_complement(star_tree, {"l1"}) == {"l2", "l3"}
    assert end_union(star_tree, {"l1"}, {"l2"}) == {"l1", "l2"}
    assert not ends_disjoint(star_tree, {"l1"}, {"l1", "l3"})
    assert end_intersection(star_tree, {"l1", "l2"}, {"l2", "l3"}) == {"l2"}


regions = st.sets(st.sampled_from(NODES)).map(frozenset)


@given(a=regions, b=regions)
def test_ends_of_union_and_complement(star_tree, a, b):
    t = star_tree
    assert region_ends(t, a | b) == region_ends(t, a) | region_ends(t, b)
    comp = frozenset(t.nodes) - a
    assert region_ends(t, comp) == end_complement(t, region_ends(t, a))


@given(a=regions, b=regions, c=regions)
def test_compact_equivalence_is_an_equivalence(star_tree, a, b, c):
    t = star_tree
    assert compactly_equivalent(t, a, a)
    assert compactly_equivalent(t, a, b) == compactly_equivalent(t, b, a)
    if compactly_equivalent(t, a, b) and compactly_equivalent(t, b, c):
        assert compactly_equivalent(t, a, c)


@given(a=regions, b=regions)
def test_compact_equivalence_matches_end_sets(star_tree, a, b):
    t = star_tree
    assert compactly_equivalent(t, a, b) == (
        region_ends(t, a) == region_ends(t, b)
    )


def _connected(tree, region):
    """Brute force: the region is reachable from any one of its nodes
    through parent and child links inside it."""
    if not region:
        return False
    start = next(iter(region))
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for w in (tree.parent.get(v), *tree.child_map(v)):
            if w in region and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == region


def _patches(rng, tree):
    """Connected patches grown from random nodes and from the root, every
    single node, and random (mostly disconnected) node sets."""
    out = [frozenset({v}) for v in tree.nodes]
    for start in [tree.root] * 3 + rng.sample(tree.nodes, 3):
        patch = {start}
        for _ in range(rng.randint(1, 6)):
            grow = sorted(
                w
                for v in patch
                for w in (tree.parent.get(v), *tree.child_map(v))
                if w is not None and w not in patch
            )
            if grow:
                patch.add(rng.choice(grow))
        out.append(frozenset(patch))
    for _ in range(4):
        out.append(frozenset(v for v in tree.nodes if rng.random() < 0.4))
    return out


def test_top_and_sums_below_match_brute_force():
    rng = Random(51)
    disconnected = 0
    for _ in range(30):
        tree = random_tree(rng)
        assert tree.top(frozenset()) is None
        values = {
            v: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for v in tree.nodes
        }
        whole = tree.sums_below(values)
        assert whole == {
            v: sum((values[u] for u in tree.subtree(v)), Fraction(0))
            for v in tree.nodes
        }
        for region in _patches(rng, tree):
            if not _connected(tree, region):
                disconnected += 1
                assert tree.top(region) is None
                continue
            top = min(region, key=tree.depth.__getitem__)
            assert tree.top(region) == top
            assert tree.sums_below(values, region) == {
                v: sum(
                    (values[u] for u in tree.subtree(v) & region), Fraction(0)
                )
                for v in region
            }
    assert disconnected > 0


def _stack_subtree(tree, v):
    """Reference: the stack walk ``subtree`` used before the preorder slice."""
    out = []
    stack = [v]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(tree.children.get(u, ()))
    return frozenset(out)


def test_subtree_is_the_stack_walk(sample_trees):
    for tree in sample_trees:
        assert validate_tree(tree) == []
        for v in tree.nodes:
            assert tree.subtree(v) == _stack_subtree(tree, v)
        assert tree.subtree(tree.root) == tree.node_set
