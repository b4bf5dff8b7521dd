"""How build_section's work grows with the tree, read from call counts.

cProfile call counts repeat exactly for the same code and inputs, so a
cost that grows faster than the tree shows as a ratio between two sizes,
where a timing bound could not tell it from noise.  Each shape is built
at three sizes, each twice the last, and every ratio of consecutive
counts must stay under its bound.  ``TOTAL_BOUND`` still admits the bug
sentinel's state copy, O(n) per deep balloon; the exact agreement check
(``Fraction.__eq__``) and the tree walks (``BalloonTree.child_map``)
must grow linearly on chains, where every level adds four blocks, and
on chains with a finite tail off every cell, where the tails never join a
cut and so pile up as hanging roots.
"""

import cProfile
import pstats
from fractions import Fraction
from random import Random

import pytest

from endflow.charge import EndCharge
from endflow.extmath import INF
from endflow.measure import base_state
from endflow.raystar import RayStar
from endflow.section import build_section
from endflow.tree import BalloonTree

TOTAL_BOUND = 3.8
LINEAR_BOUND = 2.2


def _block_mass(rng):
    return Fraction(rng.randint(4, 12), 4)


def _chain(depth):
    """A 4-ray star of ``depth`` cells per ray, infinite tails."""
    rng = Random(f"chain:{depth}")
    cells = tuple(tuple(_block_mass(rng) for _ in range(depth)) for _ in range(4))
    return RayStar(Fraction(rng.randint(4, 12), 2), cells, (INF,) * 4).to_tree()


def _tailed_chain(depth):
    """Two rays of ``depth`` cells, a tail of mass 2 off every cell and an
    infinite tail at each ray's end."""
    rng = Random(f"tailed:{depth}")
    children = {"c": ("a0", "b0")}
    weights = {"c": Fraction(rng.randint(4, 12), 2)}
    tails = {}
    for ray in "ab":
        for k in range(depth):
            v = f"{ray}{k}"
            weights[v] = _block_mass(rng)
            nxt = f"{ray}{k + 1}" if k + 1 < depth else f"{ray}e"
            children[v] = (nxt, f"{v}t")
            tails[f"{v}t"] = Fraction(2)
        tails[f"{ray}e"] = INF
    return BalloonTree(
        root="c", children=children, weights=weights, tails=tails
    )


def _binary(depth):
    """A complete binary tree, blocks above ``depth``, infinite ends at it."""
    rng = Random(f"binary:{depth}")
    children, weights, tails = {}, {}, {}
    stack = [("", 0)]
    while stack:
        path, d = stack.pop()
        v = "n" + path
        if d == depth:
            tails[v] = INF
            continue
        weights[v] = _block_mass(rng)
        children[v] = (v + "0", v + "1")
        stack += [(path + "1", d + 1), (path + "0", d + 1)]
    return BalloonTree(root="n", children=children, weights=weights, tails=tails)


def _paired_charge(tree):
    """Magnitudes 3/4, 1/2, 1, 1/4 in turn, each with its negative, spread
    over the ends in a seeded order: the number of halving installments
    stays steady from size to size."""
    ends = list(tree.end_leaves)
    half = len(ends) // 2
    steps = (Fraction(3, 4), Fraction(1, 2), Fraction(1), Fraction(1, 4))
    amounts = [steps[i % len(steps)] for i in range(half)]
    values = amounts + [-x for x in amounts] + [Fraction(0)] * (len(ends) % 2)
    Random(len(ends)).shuffle(values)
    return EndCharge(tree, dict(zip(ends, values)))


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


COUNTED = {
    "Fraction.__eq__": _key(Fraction.__eq__),
    "BalloonTree.child_map": _key(BalloonTree.child_map),
}


def _tailed_charge(tree):
    """+1/2 and -1/2 on the two infinite ends, nothing on the tails."""
    return EndCharge(tree, {"ae": Fraction(1, 2), "be": Fraction(-1, 2)})


def _call_counts(tree, charge):
    mu = base_state(tree)
    a = charge(tree)
    build_section(tree, mu, a)  # warm-up: fills the tree's cached structure
    prof = cProfile.Profile()
    prof.enable()
    build_section(tree, mu, a)
    prof.disable()
    stats = pstats.Stats(prof).stats
    counts = {"total": sum(row[1] for row in stats.values())}
    for name, key in COUNTED.items():
        counts[name] = stats[key][1] if key in stats else 0
    return counts


LINEAR = {"Fraction.__eq__", "BalloonTree.child_map"}
SHAPES = {
    "chain": (_chain, _paired_charge, (64, 128, 256), LINEAR),
    "binary": (_binary, _paired_charge, (7, 8, 9), set()),
    "tailed_chain": (_tailed_chain, _tailed_charge, (64, 128, 256), LINEAR),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_call_counts_per_doubling(shape):
    build, charge, sizes, linear = SHAPES[shape]
    counts = [_call_counts(build(n), charge) for n in sizes]
    for small, big in zip(counts, counts[1:]):
        assert big["total"] / small["total"] <= TOTAL_BOUND, counts
        for name in linear:
            assert small[name] > 0, counts
            assert big[name] / small[name] <= LINEAR_BOUND, counts
