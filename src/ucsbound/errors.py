"""Exception types shared across the package.

Input-validation failures subclass ValueError so callers that only know
the standard hierarchy still catch them.  Outcome failures (a check or a
bisection that did not end the way the caller asked for) subclass
RuntimeError instead: the inputs were fine, the result was not.
"""

from __future__ import annotations


class UcsBoundError(Exception):
    """Base class for every error this package raises on purpose."""


class DegenerateDenominator(UcsBoundError, ZeroDivisionError):
    """The entropy denominator of a ratio objective is numerically zero."""


class RankDeficient(UcsBoundError, ValueError):
    """A bit of a coupling is constant, so it has no correlation."""


class InfeasibleCorrelation(UcsBoundError, ValueError):
    """A requested joint mass lies outside the Frechet window of its marginals."""


class EmptyFeasible(UcsBoundError, ValueError):
    """No candidate family satisfies the mean constraint."""


class GridTooLarge(UcsBoundError, MemoryError):
    """The search's seed scan has more cells than its fixed cap, checked before any work."""


class BracketFailure(UcsBoundError, RuntimeError):
    """Bisection endpoints do not straddle the sign change they were given."""


class VerificationFailed(UcsBoundError, RuntimeError):
    """A reference value was not reproduced within tolerance.

    Carries both sides of the comparison so callers can print a diff
    instead of a bare traceback.
    """

    def __init__(self, message: str, *, measured=None, expected=None):
        super().__init__(message)
        self.measured = measured
        self.expected = expected


class NotClosed(UcsBoundError, ValueError):
    """A family of sets is not closed under pairwise union."""


class DimensionTooLarge(UcsBoundError, ValueError):
    """A ground-set size above ``ucslab.MAX_ENUM_N`` (5), the lab's one cap: "ground-set
    size must be in 1..5, got ...", the message a plain ``ValueError`` gives below 1."""
