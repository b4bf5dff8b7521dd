"""Interval-set algebra of the ray-star oracle against plain set logic.

An interval set is a list of ``(loc, lo, hi)`` half-open intervals with
``hi`` possibly ``INF``.  Membership of sample points is compared with the
membership the inputs define directly; the samples include every
endpoint, every midpoint between endpoints and a point beyond every
finite endpoint, which is where infinite right ends show.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endflow.extmath import INF, is_inf
from endflow.raystar import iset_mass, iset_normalize, iset_subtract

LOCS = (0, 1)

small = st.builds(
    Fraction, st.integers(min_value=0, max_value=8), st.integers(1, 3)
)
interval = st.tuples(
    st.sampled_from(LOCS),
    small,
    st.one_of(small, st.just(INF)),
)
interval_set = st.lists(interval, max_size=4)


def member(iset, loc, x) -> bool:
    return any(l == loc and lo <= x and (is_inf(hi) or x < hi) for (l, lo, hi) in iset)


def samples(*isets):
    ends = sorted(
        {Fraction(0)}
        | {e for s in isets for (_, lo, hi) in s for e in (lo, hi) if not is_inf(e)}
    )
    points = set(ends)
    points.update((a + b) / 2 for a, b in zip(ends, ends[1:]))
    points.add(ends[-1] + 1)
    points.add(Fraction(-1))
    return [(loc, x) for loc in LOCS for x in sorted(points)]


def check_normal_form(iset):
    for (loc, lo, hi) in iset:
        assert loc in LOCS
        assert is_inf(hi) or lo < hi
    for (l1, lo1, hi1), (l2, lo2, hi2) in zip(iset, iset[1:]):
        assert (l1, lo1) < (l2, lo2)
        if l1 == l2:
            # disjoint and not touching: touching pieces are merged
            assert not is_inf(hi1) and hi1 < lo2


@settings(max_examples=300, deadline=None)
@given(interval_set, interval_set)
def test_interval_algebra_matches_set_logic(a, b):
    norm = iset_normalize(a)
    diff = iset_subtract(a, b)
    # what of a lies inside b, as a difference
    inter = iset_subtract(a, diff)
    for s in (norm, diff, inter):
        check_normal_form(s)
    for (loc, x) in samples(a, b):
        in_a, in_b = member(a, loc, x), member(b, loc, x)
        assert member(norm, loc, x) == in_a
        assert member(diff, loc, x) == (in_a and not in_b)
        assert member(inter, loc, x) == (in_a and in_b)

    mass = iset_mass(a)
    if any(is_inf(hi) for (_, _, hi) in a):
        assert mass is INF
    else:
        assert mass == sum((hi - lo for (_, lo, hi) in norm), Fraction(0))
        # a splits into the part outside b and the part inside it
        assert mass == iset_mass(diff) + iset_mass(inter)


def test_subtract_two_infinite_tails():
    a = [(0, Fraction(1), INF)]
    b = [(0, Fraction(5, 2), INF)]
    assert iset_subtract(a, b) == [(0, 1, Fraction(5, 2))]
    assert iset_subtract(b, a) == []


def test_subtract_bounded_piece_from_infinite_tail():
    tail = [(0, Fraction(0), INF)]
    assert iset_subtract(tail, [(0, Fraction(1), Fraction(2))]) == [
        (0, 0, 1),
        (0, 2, INF),
    ]


# a set of at most one interval skips the merge: it must give what the
# merge gives for that interval listed twice, as a fresh list of tuples
@pytest.mark.parametrize(
    "interval",
    [
        (0, Fraction(1), Fraction(1)),
        (0, Fraction(3), Fraction(1, 2)),
        (1, Fraction(1, 2), INF),
        (1, Fraction(1, 2), Fraction(5, 2)),
    ],
    ids=["empty", "inverted", "infinite", "bounded"],
)
def test_one_interval_normalizes_as_the_merge_does(interval):
    one = [interval]
    got = iset_normalize(one)
    assert got == iset_normalize([interval, interval])
    assert got is not one
    assert all(type(t) is tuple for t in got)
    assert iset_normalize([list(interval)]) == got


def test_the_empty_set_normalizes_to_a_fresh_empty_list():
    empty = []
    got = iset_normalize(empty)
    assert got == [] and got is not empty
