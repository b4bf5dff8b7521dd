"""Exception hierarchy.

``EndflowError`` covers everything the package raises on bad input.
``InfeasibleTransferError`` is special: on inputs derived from a valid
charge it can never fire, so any occurrence outside the hand-doctored
test cases signals a bug (the CLI maps it to exit code 3).
``RealizationError`` is the ray-star oracle's counterpart: the 1-D
realization of a valid measure-preserving word never breaks its own
invariants, so it too signals a bug and maps to exit code 3.
"""

from __future__ import annotations


class EndflowError(Exception):
    """Base class for all package errors."""


class MalformedRegionError(EndflowError):
    """A region or end set references nodes foreign to the tree."""


class TreeMismatchError(EndflowError):
    """Objects built over different trees were combined."""


class NonPositiveBlockError(EndflowError):
    """A move would drive a block or finite tail to zero or below."""


class MassNotConservedError(EndflowError):
    """Rearrangement masses do not sum to the current support mass."""


class BadSupportError(EndflowError):
    """Rearrangement support is empty, disconnected, or touches a tail."""


class InfiniteDifferenceError(EndflowError):
    """Signed volume difference requested for non mu-equivalent regions."""


class ChargeUndefinedError(EndflowError):
    """End charge requested for a word that does not preserve its measure."""


class InvalidChargeError(EndflowError):
    """Charge fails membership in the admissible space for the measure."""


class BadDecompositionError(EndflowError):
    """Balloon and complement regions overlap."""


class InfeasibleTransferError(EndflowError):
    """Requested transfer lies outside the open feasibility interval."""


class RealizationError(EndflowError, ArithmeticError):
    """The 1-D realization of a word broke one of its invariants: a move
    took more mass than its region holds, or the laid-out map is not a
    bijection."""


class NonPositiveMassError(EndflowError, ValueError):
    """A ray star was given a zero or negative mass."""


class AlignPreconditionError(EndflowError):
    """Alignment step invoked with words that violate its hypotheses."""


class NotLiftableError(EndflowError):
    """Word touches a collapsed subtree and cannot be pushed forward."""


class CutTooShallowError(EndflowError):
    """Tail cut lies inside the breakpoint range of a piecewise map."""


class RangeError(EndflowError):
    """Retraction parameter outside [0, 1]."""
