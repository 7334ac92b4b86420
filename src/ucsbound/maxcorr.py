"""Maximal correlation of a two-by-two joint distribution, in closed form.

The maximal correlation of (X, Y) ~ P is the second singular value of

    B[x, y] = P(x, y) / (sqrt(P_X(x)) * sqrt(P_Y(y))).

For a 2x2 joint both singular values follow from the squared Frobenius
norm F^2 = s1^2 + s2^2 and the determinant |det B| = s1 * s2:
(s1 +- s2)^2 = F^2 +- 2 |det B|.  The top value s1 is always 1
(witnessed by the square-root-marginal vectors); it is computed, not
assumed, so the tests can use it as a self-check on the arithmetic.  The
second equals the absolute Pearson correlation, which :func:`pearson`
computes by the moment formula as an independent route.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import InfeasibleCorrelation, RankDeficient
from .scalars import require_prob

__all__ = [
    "JointDist",
    "pearson",
    "correlation_spectrum",
    "maximal_correlation",
    "binary_coupling",
]

_MASS_TOL = 1e-9


class _JointDist(NamedTuple):
    x_labels: tuple
    y_labels: tuple
    matrix: tuple


class JointDist(_JointDist):
    """Joint distribution of two binary variables as a labelled 2x2 matrix.

    ``matrix[i][j]`` is P(X = x_labels[i], Y = y_labels[j]), stored as
    two tuples of floats.  Entries must be finite and nonnegative (a
    tolerance of -1e-12 absorbs roundoff from arithmetic that produced
    the matrix) and sum to one.  Any other shape raises ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, x_labels: tuple, y_labels: tuple, matrix) -> JointDist:
        try:
            m = tuple(tuple(float(v) for v in row) for row in matrix)
        except TypeError as exc:
            raise ValueError("joint matrix must be rows of numbers") from exc
        rows = [len(row) for row in m]
        if rows != [2, 2] or len(x_labels) != 2 or len(y_labels) != 2:
            raise ValueError(
                f"need a 2x2 matrix and two labels per axis, got rows of {rows} "
                f"and ({len(x_labels)}, {len(y_labels)}) labels"
            )
        cells = m[0] + m[1]
        if not all(map(math.isfinite, cells)):
            raise ValueError("joint matrix must be finite")
        if min(cells) < -1e-12:
            raise ValueError(f"joint matrix has negative mass {min(cells)!r}")
        total = sum(cells)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"joint matrix must sum to 1, got {total!r}")
        return tuple.__new__(cls, (x_labels, y_labels, m))

    def x_marginal(self) -> tuple[float, float]:
        (m00, m01), (m10, m11) = self.matrix
        return m00 + m01, m10 + m11

    def y_marginal(self) -> tuple[float, float]:
        (m00, m01), (m10, m11) = self.matrix
        return m00 + m10, m01 + m11


def _numeric_labels(labels: Sequence) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in labels)
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
    ex = px[0] * xs[0] + px[1] * xs[1]
    ey = py[0] * ys[0] + py[1] * ys[1]
    var_x = px[0] * (xs[0] - ex) ** 2 + px[1] * (xs[1] - ex) ** 2
    var_y = py[0] * (ys[0] - ey) ** 2 + py[1] * (ys[1] - ey) ** 2
    if var_x <= 0.0 or var_y <= 0.0:
        raise RankDeficient("a variable with zero variance has no Pearson correlation")
    exy = sum(
        m * ((x - ex) * (y - ey)) for row, x in zip(joint.matrix, xs) for m, y in zip(row, ys)
    )
    # Roots first: var_x * var_y underflows to 0 for marginals near 1e-200.
    return exy / (math.sqrt(var_x) * math.sqrt(var_y))


def correlation_spectrum(joint: JointDist) -> tuple[float, float]:
    """Both singular values, descending, of the normalised joint.

    A row or column with zero marginal mass leaves the spectrum without
    correlation information, and :class:`RankDeficient` is raised.
    """
    px = joint.x_marginal()
    py = joint.y_marginal()
    if min(px) <= 0.0 or min(py) <= 0.0:
        raise RankDeficient(
            f"need two rows and two columns with mass, got marginals {px} and {py}"
        )
    # Roots first, as in pearson(): the product of tiny marginals underflows.
    rx = [math.sqrt(v) for v in px]
    ry = [math.sqrt(v) for v in py]
    b = [[m / (r * c) for m, c in zip(row, ry)] for row, r in zip(joint.matrix, rx)]
    (b00, b01), (b10, b11) = b
    # F^2 + 2 det B and F^2 - 2 det B as sums of squares, which do not
    # cancel: one is (s1 + s2)^2, the other (s1 - s2)^2.
    top = 0.5 * (math.hypot(b00 + b11, b01 - b10) + math.hypot(b00 - b11, b01 + b10))
    # s2 = |det B| / s1 keeps its relative precision when s2 is tiny.
    return top, abs(b00 * b11 - b01 * b10) / top


def maximal_correlation(joint: JointDist) -> float:
    """Second singular value of the normalised joint, clipped into [0, 1]."""
    return min(1.0, max(0.0, correlation_spectrum(joint)[1]))


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
    # With r in [lo, hi], only P(0, 0) can round below 0: clamp it.
    m00 = max(0.0, 1.0 - p - q + r)
    return JointDist((0, 1), (0, 1), ((m00, q - r), (p - r, r)))
