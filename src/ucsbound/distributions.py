"""Finite distributions over probabilities and the blended OR-entropy objective.

The certificate machinery works with two small distribution types:

* :class:`AtomDist`, a finite distribution over values in [0, 1],
  thought of as a distribution over Bernoulli parameters.
* :class:`SymmetricPairDist`, an exchangeable finite distribution over
  pairs of such values, stored with unordered support.

A candidate in the certificate search is an :class:`ExtremeFamily`: a
mixture of at most two symmetrised pair-blocks whose marginal mean hits
a target t.  :func:`mixed_or_entropy` and :func:`entropy_ratio` evaluate
the objective those candidates are scored by.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DegenerateDenominator
from .scalars import (
    binary_entropy,
    max_entropy_or_prob_fullcorr,
    or_prob,
    require_prob,
)

__all__ = [
    "MERGE_TOL",
    "MASS_TOL",
    "AtomDist",
    "SymmetricPairDist",
    "ExtremeFamily",
    "mixed_or_entropy",
    "entropy_ratio",
]

# Atoms closer than this are considered the same support point and are
# merged (mass-weighted) on construction.
MERGE_TOL = 1e-12

# Total mass must equal one to within this.
MASS_TOL = 1e-9


def _merged(pairs: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort (value, mass) pairs and merge values within MERGE_TOL.

    Merged atoms keep the mass-weighted mean of their values, so a merge
    never moves a support point by more than the tolerance itself.
    """
    out: list[list[float]] = []
    for value, mass in sorted(pairs):
        if out and value - out[-1][0] <= MERGE_TOL:
            prev_v, prev_m = out[-1]
            total = prev_m + mass
            out[-1] = [(prev_v * prev_m + value * mass) / total, total]
        else:
            out.append([value, mass])
    return [(v, m) for v, m in out]


@dataclass(frozen=True)
class AtomDist:
    """Finite distribution over values in [0, 1].

    ``values`` is strictly increasing and ``masses`` holds matching
    positive weights summing to one.  Construct via :meth:`from_pairs`
    unless the atoms are already clean.
    """

    values: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.masses) or not self.values:
            raise ValueError("values and masses must be equal-length and nonempty")
        for v in self.values:
            require_prob(v, "atom value")
        for m in self.masses:
            if not m > 0.0:
                raise ValueError(f"atom masses must be positive, got {m!r}")
        for lo, hi in zip(self.values, self.values[1:]):
            if hi <= lo:
                raise ValueError("atom values must be strictly increasing")
        total = sum(self.masses)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"atom masses must sum to 1, got {total!r}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "AtomDist":
        merged = _merged(pairs)
        return cls(tuple(v for v, _ in merged), tuple(m for _, m in merged))

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return sum(v * m for v, m in zip(self.values, self.masses))

    def mean_entropy(self) -> float:
        """Expected binary entropy E[h(V)] in bits."""
        return sum(m * binary_entropy(v) for v, m in zip(self.values, self.masses))

    def to_json_dict(self) -> dict:
        return {"atoms": [{"value": v, "mass": m} for v, m in zip(self.values, self.masses)]}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "AtomDist":
        return cls.from_pairs((a["value"], a["mass"]) for a in payload["atoms"])

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "AtomDist":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class SymmetricPairDist:
    """Exchangeable finite distribution over pairs of values in [0, 1].

    Canonical storage keeps one entry per unordered pair {x, y} with the
    combined mass of both orders; ``pairs`` is lexicographically sorted
    with x <= y inside each entry.  :meth:`ordered_atoms` expands back
    to ordered support when a computation genuinely needs it.
    """

    pairs: tuple[tuple[float, float], ...]
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.masses) or not self.pairs:
            raise ValueError("pairs and masses must be equal-length and nonempty")
        for x, y in self.pairs:
            require_prob(x, "pair value")
            require_prob(y, "pair value")
            if y < x:
                raise ValueError(f"canonical pairs need x <= y, got ({x!r}, {y!r})")
        for m in self.masses:
            if not m > 0.0:
                raise ValueError(f"pair masses must be positive, got {m!r}")
        for lo, hi in zip(self.pairs, self.pairs[1:]):
            if hi <= lo:
                raise ValueError("canonical pairs must be strictly increasing")
        total = sum(self.masses)
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"pair masses must sum to 1, got {total!r}")

    @classmethod
    def from_pairs(cls, entries: Iterable[tuple[float, float, float]]) -> "SymmetricPairDist":
        """Build from (x, y, mass) entries in either order, symmetrising.

        Masses on (x, y) and (y, x) are pooled onto the sorted key.
        Keys whose coordinates each agree within MERGE_TOL are merged.
        """
        accum: dict[tuple[float, float], float] = {}
        for x, y, mass in entries:
            key = (x, y) if x <= y else (y, x)
            accum[key] = accum.get(key, 0.0) + mass
        merged: list[tuple[tuple[float, float], float]] = []
        for key, mass in sorted(accum.items()):
            if merged:
                (px, py), pm = merged[-1]
                if abs(key[0] - px) <= MERGE_TOL and abs(key[1] - py) <= MERGE_TOL:
                    total = pm + mass
                    merged[-1] = (
                        ((px * pm + key[0] * mass) / total, (py * pm + key[1] * mass) / total),
                        total,
                    )
                    continue
            merged.append((key, mass))
        return cls(tuple(k for k, _ in merged), tuple(m for _, m in merged))

    def __len__(self) -> int:
        return len(self.pairs)

    def ordered_atoms(self) -> list[tuple[float, float, float]]:
        """Ordered support: off-diagonal mass split evenly across both orders."""
        out: list[tuple[float, float, float]] = []
        for (x, y), m in zip(self.pairs, self.masses):
            if x == y:
                out.append((x, y, m))
            else:
                out.append((x, y, 0.5 * m))
                out.append((y, x, 0.5 * m))
        return out

    def marginal(self) -> AtomDist:
        """Distribution of either coordinate (they agree, by exchangeability)."""
        contrib: list[tuple[float, float]] = []
        for (x, y), m in zip(self.pairs, self.masses):
            if x == y:
                contrib.append((x, m))
            else:
                contrib.append((x, 0.5 * m))
                contrib.append((y, 0.5 * m))
        return AtomDist.from_pairs(contrib)

    def to_json_dict(self) -> dict:
        return {"atoms": [{"x": x, "y": y, "mass": m} for (x, y), m in zip(self.pairs, self.masses)]}

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SymmetricPairDist":
        return cls.from_pairs((a["x"], a["y"], a["mass"]) for a in payload["atoms"])

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "SymmetricPairDist":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class ExtremeFamily:
    """Mixture of at most two symmetrised pair-blocks with marginal mean t.

    The low block puts mass 1/2 on each order of (a1, a2) and has block
    mean a = (a1+a2)/2 <= t.  An optional high block (b1, b2) with block
    mean b > t receives the unique weight beta that lifts the overall
    marginal mean to exactly t; with no high block, beta = 0 and the
    mean constraint is the inequality a <= t.
    """

    a1: float
    a2: float
    t: float
    b1: float | None = None
    b2: float | None = None

    def __post_init__(self) -> None:
        require_prob(self.a1, "a1")
        require_prob(self.a2, "a2")
        require_prob(self.t, "t")
        if self.a2 < self.a1:
            raise ValueError("need a1 <= a2")
        if (self.b1 is None) != (self.b2 is None):
            raise ValueError("b1 and b2 must be given together or not at all")
        if self.a_mean > self.t + 1e-12:
            raise ValueError(f"low-block mean {self.a_mean!r} exceeds target {self.t!r}")
        if self.b1 is not None:
            require_prob(self.b1, "b1")
            require_prob(self.b2, "b2")
            if self.b2 < self.b1:
                raise ValueError("need b1 <= b2")
            if self.b_mean <= self.t:
                raise ValueError(
                    f"high-block mean {self.b_mean!r} must exceed target {self.t!r}"
                )

    @property
    def a_mean(self) -> float:
        return 0.5 * (self.a1 + self.a2)

    @property
    def b_mean(self) -> float | None:
        if self.b1 is None:
            return None
        return 0.5 * (self.b1 + self.b2)

    @property
    def beta(self) -> float:
        """Weight on the high block making the marginal mean equal t."""
        if self.b1 is None:
            return 0.0
        gap = self.b_mean - self.a_mean
        beta = (self.t - self.a_mean) / gap
        # a_mean can sit a hair above t from roundoff; keep beta a weight.
        return min(1.0, max(0.0, beta))

    def pair_dist(self) -> SymmetricPairDist:
        """The pair distribution this family denotes."""
        beta = self.beta
        entries = [(self.a1, self.a2, 1.0 - beta)]
        if self.b1 is not None and beta > 0.0:
            entries.append((self.b1, self.b2, beta))
        return SymmetricPairDist.from_pairs(entries)

    def marginal(self) -> AtomDist:
        return self.pair_dist().marginal()

    def argmin_dict(self) -> dict:
        """Flat mapping used in JSON reports."""
        return {
            "a1": self.a1,
            "a2": self.a2,
            "b1": self.b1,
            "b2": self.b2,
            "beta": self.beta,
        }


def mixed_or_entropy(dist: SymmetricPairDist, alpha: float) -> float:
    """Expected OR entropy under an alpha-blend of couplings, in bits.

    With (P, Q) drawn from ``dist``:

    * independent part: both coordinates are resampled independently
      from the marginal, the bits are OR-ed independently, and the term
      is E[h(P + Q - PQ)] over that product;
    * correlated part: (P, Q) stays joint and each pair contributes the
      best achievable OR entropy at full correlation,
      h(max_entropy_or_prob_fullcorr(P, Q)).

    The blend is (1-alpha) * independent + alpha * correlated, linear in
    alpha by construction.
    """
    alpha = require_prob(alpha, "alpha")
    marg = dist.marginal()
    independent = 0.0
    for vi, mi in zip(marg.values, marg.masses):
        for vj, mj in zip(marg.values, marg.masses):
            independent += mi * mj * binary_entropy(or_prob(vi, vj))
    correlated = 0.0
    for (x, y), m in zip(dist.pairs, dist.masses):
        correlated += m * binary_entropy(max_entropy_or_prob_fullcorr(x, y))
    return (1.0 - alpha) * independent + alpha * correlated


def entropy_ratio(family: ExtremeFamily, alpha: float) -> float:
    """Blended OR entropy of a family divided by its marginal mean entropy.

    This is the quantity the certificate search minimises over families.
    Raises :class:`DegenerateDenominator` when the marginal carries no
    entropy (all atoms at 0 or 1), since the ratio is then meaningless.
    """
    dist = family.pair_dist()
    denom = dist.marginal().mean_entropy()
    if denom <= 1e-14:
        raise DegenerateDenominator(
            f"marginal mean entropy {denom!r} is numerically zero"
        )
    return mixed_or_entropy(dist, alpha) / denom
