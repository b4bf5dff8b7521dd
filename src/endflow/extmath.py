"""Exact extended-rational arithmetic.

All masses in this package are ``fractions.Fraction`` values or one of the
two infinity sentinels below.  Floats are rejected everywhere so that every
comparison in the test suites is an exact equality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union


class Inf:
    """Signed infinity sentinel, absorbing under addition."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "inf" if self.sign > 0 else "-inf"

    def __neg__(self) -> "Inf":
        return NEG_INF if self.sign > 0 else INF

    def __add__(self, other):
        if isinstance(other, Inf) and other.sign != self.sign:
            raise ArithmeticError("inf - inf is undefined")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Inf) and other.sign == self.sign:
            raise ArithmeticError("inf - inf is undefined")
        return self

    def __rsub__(self, other):
        return -self

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("Inf", self.sign))

    def __lt__(self, other):
        if self is other:
            return False
        if isinstance(other, Inf):
            return self.sign < other.sign
        return self.sign < 0

    def __gt__(self, other):
        if self is other:
            return False
        if isinstance(other, Inf):
            return self.sign > other.sign
        return self.sign > 0

    def __le__(self, other):
        return self is other or self < other

    def __ge__(self, other):
        return self is other or self > other


INF = Inf(1)
NEG_INF = Inf(-1)

ExtMass = Union[Fraction, Inf]


def is_inf(x: ExtMass) -> bool:
    return isinstance(x, Inf)


def as_frac(x) -> Fraction:
    """Coerce ints/Fractions/strings to Fraction; floats are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def as_mass(x) -> ExtMass:
    if isinstance(x, Inf):
        if x is NEG_INF:
            raise ValueError("masses cannot be -inf")
        return x
    return as_frac(x)


def mass_str(x: ExtMass) -> str:
    """Render a mass as 'p/q' (reduced, 'p' when integral) or 'inf'."""
    if isinstance(x, Inf):
        if x is NEG_INF:
            raise ValueError("-inf has no serialized form")
        return "inf"
    return str(x)


def frac_str(x: Fraction) -> str:
    return str(as_frac(x))


_RATIONAL = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def parse_frac(s: str) -> Fraction:
    """Parse 'p/q' or 'p'; rejects 'inf', decimals and anything else."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {type(s).__name__}")
    m = _RATIONAL.match(s.strip())
    if not m:
        raise ValueError(f"bad rational {s!r}: expected 'p/q' or 'p'")
    p, q = m.groups()
    return Fraction(int(p), int(q) if q else 1)


def parse_mass(s: str, frac=parse_frac) -> ExtMass:
    """Parse 'p/q', 'p' or the token 'inf'; ``frac`` reads all but the
    token."""
    if isinstance(s, str) and s.strip() == "inf":
        return INF
    return frac(s)
