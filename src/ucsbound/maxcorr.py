"""Maximal correlation of a two-by-two Bernoulli coupling, in closed form.

The maximal correlation of (X, Y) ~ P is the second singular value of

    B[x, y] = P(x, y) / (sqrt(P_X(x)) * sqrt(P_Y(y))).

For two bits with P(X = 1) = p, P(Y = 1) = q and P(X = 1, Y = 1) = r,
the top singular value is 1 and the second is |det B|, the absolute
Pearson correlation

    |r - p q| / (sqrt(p (1 - p)) * sqrt(q (1 - q))).
"""

from __future__ import annotations

import math

from .errors import InfeasibleCorrelation, RankDeficient
from .scalars import require_prob

__all__ = ["maximal_correlation", "binary_coupling"]


def binary_coupling(p: float, q: float, joint_on: float) -> tuple[float, float, float]:
    """Coupling of Bernoulli(p) and Bernoulli(q) with P(1, 1) = joint_on, as (p, q, joint_on).

    Feasibility is the Frechet window

        max(0, p + q - 1)  <=  joint_on  <=  min(p, q);

    outside it some cell would need negative mass and
    :class:`InfeasibleCorrelation` is raised.  A joint_on within 1e-12
    of the window is clipped into it.
    """
    p = require_prob(p, "p")
    q = require_prob(q, "q")
    r = float(joint_on)
    lo = max(0.0, p + q - 1.0)
    hi = min(p, q)
    if math.isnan(r) or r < lo - 1e-12 or r > hi + 1e-12:
        raise InfeasibleCorrelation(
            f"joint on-mass {r!r} outside Frechet window [{lo!r}, {hi!r}] "
            f"for marginals p={p!r}, q={q!r}"
        )
    return p, q, min(hi, max(lo, r))


def maximal_correlation(coupling: tuple[float, float, float]) -> float:
    """Maximal correlation of a :func:`binary_coupling`, capped at 1.

    Raises :class:`RankDeficient` when either bit is constant.
    """
    p, q, r = coupling
    # Roots first: p (1 - p) q (1 - q) underflows to 0 for marginals near 1e-200.
    sx = math.sqrt(p * (1.0 - p))
    sy = math.sqrt(q * (1.0 - q))
    if sx == 0.0 or sy == 0.0:
        raise RankDeficient(f"a constant bit has no correlation, got marginals p={p!r}, q={q!r}")
    # r >= 1/2 forces p, q >= 1/2, where 1 - r, 1 - p and 1 - q are exact:
    # from them r - pq does not cancel when both marginals are near 1.
    if r >= 0.5:
        a, b = 1.0 - p, 1.0 - q
        cov = (1.0 - r) - a - b + a * b
    else:
        cov = r - p * q
    return min(1.0, abs(cov) / sx / sy)
