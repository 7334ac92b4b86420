"""Maximal correlation of finite joint distributions.

The maximal correlation of (X, Y) ~ P is computed spectrally: form

    B[x, y] = P(x, y) / (sqrt(P_X(x)) * sqrt(P_Y(y)))

over the support and take the second-largest singular value.  The top
singular value of B is always 1 (witnessed by the square-root-marginal
vectors), which the tests use as a self-check on the decomposition.

For 2x2 joints the second singular value coincides with the absolute
Pearson correlation, giving an independent route the suite compares
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from ._lazy import lazy_import
from .errors import InfeasibleCorrelation, RankDeficient
from .scalars import require_prob

np = lazy_import("numpy")

__all__ = [
    "JointDist",
    "pearson",
    "correlation_spectrum",
    "maximal_correlation",
    "binary_coupling",
]

_MASS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class JointDist:
    """Joint distribution of two finite variables as a labelled matrix.

    ``matrix[i, j]`` is P(X = x_labels[i], Y = y_labels[j]).  Entries
    must be nonnegative (a tolerance of -1e-12 absorbs roundoff from
    arithmetic that produced the matrix) and sum to one.
    """

    x_labels: tuple
    y_labels: tuple
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.shape != (len(self.x_labels), len(self.y_labels)):
            raise ValueError(
                f"matrix shape {m.shape} does not match labels "
                f"({len(self.x_labels)}, {len(self.y_labels)})"
            )
        if m.size == 0:
            raise ValueError("joint distribution must be nonempty")
        if not np.all(np.isfinite(m)):
            raise ValueError("joint matrix must be finite")
        if m.min() < -1e-12:
            raise ValueError(f"joint matrix has negative mass {m.min()!r}")
        total = float(m.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"joint matrix must sum to 1, got {total!r}")

    def x_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def y_marginal(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


def _numeric_labels(labels: Sequence) -> np.ndarray:
    try:
        return np.asarray([float(v) for v in labels])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"labels must be numeric for moment computations: {labels!r}") from exc


def pearson(joint: JointDist) -> float:
    """Pearson correlation of the labelled values under the joint.

    Labels are interpreted as real values.  Raises
    :class:`RankDeficient` if either variable is almost-surely constant,
    since the correlation is then undefined.
    """
    xs = _numeric_labels(joint.x_labels)
    ys = _numeric_labels(joint.y_labels)
    px = joint.x_marginal()
    py = joint.y_marginal()
    ex = float(px @ xs)
    ey = float(py @ ys)
    var_x = float(px @ (xs - ex) ** 2)
    var_y = float(py @ (ys - ey) ** 2)
    if var_x <= 0.0 or var_y <= 0.0:
        raise RankDeficient("a variable with zero variance has no Pearson correlation")
    exy = float((np.outer(xs - ex, ys - ey) * joint.matrix).sum())
    # Roots first: var_x * var_y underflows to 0 for marginals near 1e-200.
    return exy / (math.sqrt(var_x) * math.sqrt(var_y))


def correlation_spectrum(joint: JointDist) -> np.ndarray:
    """Singular values (descending) of the normalised joint over its support.

    Rows and columns with zero marginal mass are dropped first; if fewer
    than two of either remain the spectrum carries no correlation
    information and :class:`RankDeficient` is raised.
    """
    px = joint.x_marginal()
    py = joint.y_marginal()
    rows = px > 0.0
    cols = py > 0.0
    if int(rows.sum()) < 2 or int(cols.sum()) < 2:
        raise RankDeficient(
            "need at least two rows and two columns with mass, got "
            f"{int(rows.sum())} x {int(cols.sum())}"
        )
    sub = joint.matrix[np.ix_(rows, cols)]
    # Roots first, as in pearson(): the product of tiny marginals underflows.
    normaliser = np.outer(np.sqrt(px[rows]), np.sqrt(py[cols]))
    return np.linalg.svd(sub / normaliser, compute_uv=False)


def maximal_correlation(joint: JointDist) -> float:
    """Second singular value of the normalised joint, clipped into [0, 1]."""
    spectrum = correlation_spectrum(joint)
    return float(min(1.0, max(0.0, spectrum[1])))


def binary_coupling(p: float, q: float, joint_on: float) -> JointDist:
    """2x2 coupling of Bernoulli(p) and Bernoulli(q) with P(1,1) = joint_on.

    Feasibility is the Frechet window

        max(0, p + q - 1)  <=  joint_on  <=  min(p, q);

    outside it some cell would need negative mass and
    :class:`InfeasibleCorrelation` is raised.  Labels are (0, 1) so
    :func:`pearson` applies directly.
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
    r = min(hi, max(lo, r))
    matrix = np.array(
        [
            [1.0 - p - q + r, q - r],
            [p - r, r],
        ]
    )
    # Clamp the roundoff shadow of the feasibility check.
    matrix[matrix < 0.0] = 0.0
    return JointDist((0, 1), (0, 1), matrix)

