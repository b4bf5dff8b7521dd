"""Finitely additive end charges on the leaf-cylinder algebra.

A charge is stored at leaf granularity; its value on any clopen end set is
the sum over member leaves, so finite additivity is built in.  A charge is
admissible for a measure when its total is zero and it vanishes on every
finite-mass end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import TreeMismatchError
from .extmath import as_frac
from .measure import MeasureState, omega_finite_ends
from .tree import BalloonTree, _check_ends


@dataclass(frozen=True)
class EndCharge:
    """Rational value per End leaf of one fixed tree (zero where omitted)."""

    tree: BalloonTree
    values: Mapping[str, Fraction]

    def __post_init__(self):
        foreign = set(self.values) - self.tree.end_leaf_set
        if foreign:
            raise TreeMismatchError(
                f"charge values on non-End nodes: {sorted(foreign)}"
            )
        full = {v: Fraction(0) for v in self.tree.end_leaves}
        for k, v in self.values.items():
            full[k] = as_frac(v)
        object.__setattr__(self, "values", full)

    def __getitem__(self, leaf: str) -> Fraction:
        return self.values[leaf]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))


def zero_charge(t: BalloonTree) -> EndCharge:
    return EndCharge(t, {})


def charge_eval(c: EndCharge, ends: Iterable[str]) -> Fraction:
    """Value of the charge on a clopen end set (sum over member leaves)."""
    es = _check_ends(c.tree, ends)
    return sum((c.values[v] for v in es), Fraction(0))


def validate_charge(mu: MeasureState, c: EndCharge) -> bool:
    """Admissibility: total zero and zero on every finite-mass end."""
    if mu.tree != c.tree:
        raise TreeMismatchError("charge and measure live on different trees")
    if c.total() != 0:
        return False
    return all(c.values[v] == 0 for v in omega_finite_ends(mu))


def linear_combine(
    alpha: Fraction, c1: EndCharge, beta: Fraction, c2: EndCharge
) -> EndCharge:
    if c1.tree != c2.tree:
        raise TreeMismatchError("charges live on different trees")
    a, b = as_frac(alpha), as_frac(beta)
    return EndCharge(
        c1.tree,
        {v: a * c1.values[v] + b * c2.values[v] for v in c1.tree.end_leaves},
    )


def scale_charge(alpha: Fraction, c: EndCharge) -> EndCharge:
    return linear_combine(alpha, c, Fraction(0), c)
