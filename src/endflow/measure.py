"""Measure states on balloon trees.

A state assigns a positive mass to every block and a positive (possibly
infinite) mass to every tail.  Mass of a region is the plain sum, with
infinity absorbing.  The signed volume difference j_value(a, b) =
mass(a - b) - mass(b - a) is defined exactly when the regions differ only
by finite mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InfiniteDifferenceError
from .extmath import INF, ExtMass, as_frac, as_mass, is_inf
from .tree import BalloonTree, EndSet, check_region


@dataclass(frozen=True)
class MeasureState:
    """Block and tail masses over one fixed tree."""

    tree: BalloonTree
    blocks: Mapping[str, Fraction]
    tails: Mapping[str, ExtMass]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", {k: as_frac(v) for k, v in self.blocks.items()}
        )
        object.__setattr__(
            self, "tails", {k: as_mass(v) for k, v in self.tails.items()}
        )

    def validate(self) -> list:
        out = []
        if set(self.blocks) != set(self.tree.block_nodes):
            out.append("block masses do not cover exactly the block nodes")
        if set(self.tails) != self.tree.end_leaf_set:
            out.append("tail masses do not cover exactly the End leaves")
        for v, m in sorted(self.blocks.items()):
            if m <= 0:
                out.append(f"non-positive block mass at {v!r}")
        for v, m in sorted(self.tails.items()):
            if not is_inf(m) and m <= 0:
                out.append(f"non-positive tail mass at {v!r}")
        return out

    def node_mass(self, v: str) -> ExtMass:
        if v in self.tails:
            return self.tails[v]
        return self.blocks[v]


def base_state(t: BalloonTree) -> MeasureState:
    """The state declared by the tree itself (the reference measure)."""
    return MeasureState(
        t,
        {v: t.weights[v] for v in t.block_nodes},
        {v: t.tails[v] for v in t.end_leaves},
    )


def mass(mu: MeasureState, region: Iterable[str]) -> ExtMass:
    """Total mass of a region; infinite when an infinite tail is in it.

    The tails are checked first, so a region holding an infinite tail
    costs one scan of its tails and no arithmetic."""
    r = check_region(mu.tree, region)
    tails = mu.tails
    if any(map(is_inf, map(tails.__getitem__, filter(tails.__contains__, r)))):
        return INF
    return sum(map(mu.node_mass, r), Fraction(0))


def omega_finite_ends(mu: MeasureState) -> EndSet:
    """End leaves whose tail carries finite mass."""
    return frozenset(v for v in mu.tree.end_leaves if not is_inf(mu.tails[v]))


def mu_equivalent(mu: MeasureState, a: Iterable[str], b: Iterable[str]) -> bool:
    """True iff the regions differ only by a finite-mass set."""
    ra = check_region(mu.tree, a)
    rb = check_region(mu.tree, b)
    return not any(
        mu.tree.is_end_leaf(v) and is_inf(mu.tails[v]) for v in ra ^ rb
    )


def j_value(mu: MeasureState, a: Iterable[str], b: Iterable[str]) -> Fraction:
    """mass(a - b) - mass(b - a), exact; requires mu-equivalence."""
    ra = check_region(mu.tree, a)
    rb = check_region(mu.tree, b)
    if not mu_equivalent(mu, ra, rb):
        raise InfiniteDifferenceError(
            "regions differ by infinite mass; difference undefined"
        )
    left = mass(mu, ra - rb)
    right = mass(mu, rb - ra)
    return left - right
