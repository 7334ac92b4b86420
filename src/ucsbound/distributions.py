"""The reference blended OR-entropy objective over plain atoms.

An exchangeable distribution of a pair (P, Q) of Bernoulli parameters
is given as a list of ``(x, y, mass)`` atoms; each atom's mass is split
evenly over the orders (x, y) and (y, x), so either order may be
written.  Each coordinate's marginal then puts mass m/2 on x and m/2 on
y for every atom.

A candidate in the certificate search is an :class:`ExtremeFamily`: a
mixture of two symmetrised pair-blocks whose marginal mean hits a
target t.  A single block of mean at most t is not a candidate: paired
with the block (1, 1) it scores no higher (see :mod:`ucsbound.optimizer`).
:func:`mixed_or_entropy` and :func:`entropy_ratio` evaluate the
objective those candidates are scored by, straight from its definition.
The objective is linear in alpha, so :func:`ratio_terms` gives a
family's three alpha-free terms, and both are blends of those terms.
None of this shares code with the search, so :mod:`ucsbound.optimizer`
uses :func:`ratio_terms` as the oracle that re-evaluates every reported
bound.  Each of its sums is ``math.fsum``, the correctly rounded sum
of its float terms, so the oracle's bits are the same on every Python:
the built-in ``sum`` compensates its rounding from Python 3.12 on and
not before.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .errors import DegenerateDenominator
from .scalars import (
    binary_entropy,
    max_entropy_or_prob_fullcorr,
    or_prob,
    require_prob,
)

__all__ = [
    "MASS_TOL",
    "DENOM_FLOOR",
    "ExtremeFamily",
    "RatioTerms",
    "mixed_or_entropy",
    "ratio_terms",
    "entropy_ratio",
]

# Total mass must equal one to within this.
MASS_TOL = 1e-9
# A marginal mean entropy at or below this is numerically zero.
DENOM_FLOOR = 1e-14


class _ExtremeFamily(NamedTuple):
    a1: float
    a2: float
    t: float
    b1: float
    b2: float


class ExtremeFamily(_ExtremeFamily):
    """Mixture of two symmetrised pair-blocks with marginal mean t.

    The low block puts mass 1/2 on each order of (a1, a2) and has block
    mean a = (a1+a2)/2 <= t.  The high block (b1, b2) with block mean
    b > t receives the unique weight beta that lifts the overall
    marginal mean to exactly t; beta = 0 when a = t.  a may exceed t by
    up to 1e-12 of roundoff, but never reach b.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExtremeFamily:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            require_prob(value, name)
        if self.a2 < self.a1:
            raise ValueError("need a1 <= a2")
        if self.b2 < self.b1:
            raise ValueError("need b1 <= b2")
        if self.a_mean > self.t + 1e-12:
            raise ValueError(f"low-block mean {self.a_mean!r} exceeds target {self.t!r}")
        if self.b_mean <= self.t:
            raise ValueError(f"high-block mean {self.b_mean!r} must exceed target {self.t!r}")
        if self.b_mean <= self.a_mean:
            raise ValueError(
                f"high-block mean {self.b_mean!r} must exceed low-block mean {self.a_mean!r}"
            )
        return self

    @property
    def a_mean(self) -> float:
        return 0.5 * (self.a1 + self.a2)

    @property
    def b_mean(self) -> float:
        return 0.5 * (self.b1 + self.b2)

    @property
    def beta(self) -> float:
        """Weight on the high block making the marginal mean equal t."""
        beta = (self.t - self.a_mean) / (self.b_mean - self.a_mean)
        # a_mean can sit a hair above t from roundoff; keep beta a weight.
        # It is at most 1 already, as t < b_mean and rounded subtraction
        # keeps that order.
        return max(0.0, beta)

    def atoms(self) -> list[tuple[float, float, float]]:
        """The pair distribution as ``(x, y, mass)`` atoms, one per block.

        The high block is left out when beta = 0.
        """
        beta = self.beta
        atoms = [(self.a1, self.a2, 1.0 - beta)]
        if beta > 0.0:
            atoms.append((self.b1, self.b2, beta))
        return atoms

    def argmin_dict(self) -> dict:
        """Flat mapping used in JSON reports."""
        return {
            "a1": self.a1,
            "a2": self.a2,
            "b1": self.b1,
            "b2": self.b2,
            "beta": self.beta,
        }


def mixed_or_entropy(atoms: Iterable[tuple[float, float, float]], alpha: float) -> float:
    """Expected OR entropy under an alpha-blend of couplings, in bits.

    ``atoms`` are the ``(x, y, mass)`` atoms of an exchangeable pair
    distribution of (P, Q).  With (P, Q) drawn from it:

    * independent part: both coordinates are resampled independently
      from the marginal, the bits are OR-ed independently, and the term
      is E[h(P + Q - PQ)] over that product;
    * correlated part: (P, Q) stays joint and each pair contributes the
      best achievable OR entropy at full correlation,
      h(max_entropy_or_prob_fullcorr(P, Q)).

    The blend is (1-alpha) * independent + alpha * correlated, linear in
    alpha by construction.  Raises ``ValueError`` on a value outside
    [0, 1], a negative or non-finite mass, no atoms, or a total mass
    more than :data:`MASS_TOL` from 1.
    """
    alpha = require_prob(alpha, "alpha")
    return _blend(*_or_terms(list(atoms)), alpha)


def _blend(independent: float, correlated: float, alpha: float) -> float:
    """(1-alpha) * independent + alpha * correlated: the alpha-blend, written once."""
    return (1.0 - alpha) * independent + alpha * correlated


def _or_terms(atoms: list[tuple[float, float, float]]) -> tuple[float, float]:
    """The independent and correlated OR entropies of ``atoms``, checked as
    :func:`mixed_or_entropy` says."""
    if not atoms:
        raise ValueError("need at least one atom")
    for x, y, m in atoms:
        require_prob(x, "atom value")
        require_prob(y, "atom value")
        if not (math.isfinite(m) and m >= 0.0):
            raise ValueError(f"atom masses must be finite and >= 0, got {m!r}")
    total = math.fsum(m for _, _, m in atoms)
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"atom masses must sum to 1, got {total!r}")
    marginal = [(v, 0.5 * m) for x, y, m in atoms for v in (x, y)]
    independent = math.fsum(
        mi * mj * binary_entropy(or_prob(vi, vj))
        for vi, mi in marginal
        for vj, mj in marginal
    )
    correlated = math.fsum(m * binary_entropy(max_entropy_or_prob_fullcorr(x, y)) for x, y, m in atoms)
    return independent, correlated


class RatioTerms(NamedTuple):
    """A family's entropy ratio at every alpha: none of its terms depends on alpha.

    ``independent`` and ``correlated`` are the two parts of
    :func:`mixed_or_entropy`, ``denom`` the marginal mean entropy.
    """

    independent: float
    correlated: float
    denom: float

    def ratio(self, alpha: float) -> float:
        """The ratio at ``alpha``, bit for bit :func:`entropy_ratio`'s.

        Raises ``ValueError`` unless alpha is in [0, 1].
        """
        alpha = require_prob(alpha, "alpha")
        return _blend(self.independent, self.correlated, alpha) / self.denom


def ratio_terms(family: ExtremeFamily) -> RatioTerms:
    """The alpha-free terms of a family's entropy ratio, in one oracle pass.

    The denominator is the sum of m * (h(x) + h(y)) / 2 over the
    family's atoms.  Raises :class:`DegenerateDenominator` when the
    marginal carries no entropy (all atoms at 0 or 1), since the ratio
    is then meaningless.
    """
    atoms = family.atoms()
    denom = math.fsum(0.5 * m * (binary_entropy(x) + binary_entropy(y)) for x, y, m in atoms)
    if denom <= DENOM_FLOOR:
        raise DegenerateDenominator(
            f"marginal mean entropy {denom!r} is numerically zero"
        )
    return RatioTerms(*_or_terms(atoms), denom)


def entropy_ratio(family: ExtremeFamily, alpha: float) -> float:
    """Blended OR entropy of a family divided by its marginal mean entropy.

    This is the quantity the certificate search minimises over families,
    ``ratio_terms(family).ratio(alpha)``.  Raises
    :class:`DegenerateDenominator` as :func:`ratio_terms` does, and
    ``ValueError`` unless alpha is in [0, 1].
    """
    return ratio_terms(family).ratio(alpha)
