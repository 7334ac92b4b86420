"""Certificate search: the worst-case entropy ratio over candidate families.

The quantity of interest, for a mean target t in (0, 1/2) and a blend
weight alpha, is the infimum of :func:`ucsbound.distributions.entropy_ratio`
over all :class:`~ucsbound.distributions.ExtremeFamily` candidates.  A
value above 1 certifies t as a valid frequency lower bound; the best
such certificate over alpha is what :func:`gamma_hat` reports, and
:func:`find_tmax` bisects for the largest certifiable t.
:class:`SearchConfig` holds the search's three knobs and their
defaults; the command line reads it only for the three commands that
search.

Candidate class
---------------
A candidate is a low block (a1, a2) of mean a <= t and a high block
(b1, b2) of mean b > t, which gets weight beta = (t - a) / (b - a).  A
lone block of mean a <= t is not searched: pairing it with (1, 1),
always a high block, scales its denominator H/2 and correlated term P by
1 - beta and its independent term S/4 by (1 - beta)^2, since every term
touching the value 1 is h(1) = 0.  So R(a1, a2, 1, 1) =
[(1-alpha)(1-beta) S/4 + alpha P] / (H/2) <= R(a1, a2), equal at a = t.

Means below the target
----------------------
A certificate at t covers every mean below t.  Mix any law of the pair
(P, Q) of mean m < t with the atom (1, 1) at weight eps = (t - m)/(1 - m):
the mean becomes (1 - eps) m + eps = t.  Every OR touching the value 1
is 1, h(1) = 0 and fullcorr(1, q) = 1, so the independent term scales
by (1 - eps)^2 and the correlated term and the denominator by 1 - eps:
the mixed ratio is [(1-alpha)(1-eps) ind + alpha cor] / denom, at most
the law's own at every alpha.  So at every alpha the infimum over laws
of mean t is at most the infimum over laws of mean m, and the best bound
over alpha does not rise with t.  Over all laws that is exact.  The
mixture of a two-block law has three blocks, though, so for the
candidate class it holds given the paper's reduction to two
blocks; the tests check it on the face numerically.

Searched face
-------------
The search covers the face a1 = a2 = a <= t, b2 = 1, where every
minimum of the class found so far lies; the tests audit that by a
descent over all four numbers.  It is a finding, not a theorem: the
reported value is an upper estimate of the infimum over the class.  On
the face the high mean (b1 + 1)/2 >= 1/2 exceeds t, beta =
2(t - a) / (b1 + 1 - 2a), and the terms touching 1 vanish, so

    ind = (1-beta)^2 h(2a - a^2) + beta (1-beta) h(a + b1 - a b1)
          + (beta/2)^2 h(2 b1 - b1^2)
    cor = (1-beta) h(fullcorr(a, a))
    R   = [(1-alpha) ind + alpha cor] / [(1-beta) h(a) + (beta/2) h(b1)]

The diagonal a = b1
-------------------
A numerical finding, not a theorem: near the threshold the face's
minimiser lies on a = b1 (at t = 0.375 and 0.38234, Newton in 50 digits
from the search's argmin lands there; at t = 0.3 the small-a basin wins
instead).  On that line beta = 2(t - a)/(1 - a), 1 - beta/2 =
(1 - t)/(1 - a), ind = (1 - beta/2)^2 h(2a - a^2) and denom =
(1 - beta/2) h(a), so the ratio is a function of a alone:

    R_diag(a) = (1-alpha) (1-t)/(1-a) h(2a - a^2)/h(a)
              + alpha (1 + a - 2t)/(1-t) h(fc(a))/h(a)

with fc(a) = fullcorr(a, a), which is 1/2 for a in [1/4, 1/2].  At
(t, alpha) = (0.38234, 0.035) its minimum, in 40 digits, is
1.000008892937076088... at a = 0.330062244237798946..., beta ~
0.1560675: the published reference point.  The tests check it against
the search.

Search scheme
-------------
1. a seed scan of ``grid_points_per_axis`` points per coordinate on
   sin^2 axes, dense at both ends, where h' is steepest:
   a = t sin^2(pi k / 2g) for k < g, so a = 0 is in and a = t, a row
   of copies of the point mass, is not; b1 = sin^2(pi k / 2(g - 1)).
   A cell's ind/denom and cor/denom do not depend on alpha, so they
   are kept, as columns in scan order.  They are built a row of a at
   a time from the formula above (``_seed_cells``), which the line
   objective (``_line``) writes out again in the same float
   operations; the tests hold the two to the same bits on every
   cell.  Each run of 8 consecutive cells keeps its least ind/denom
   and least cor/denom, whose blend bounds every blend in the run
   from below, and each group of 8 consecutive runs keeps the least
   of its runs', which bounds every run in it.  A scan at a new alpha
   visits the runs by increasing bound and stops at the first whose
   bound is above the k-th lowest blend so far, so it blends only the
   cells of runs that can hold one of the k lowest.  It ranks the
   groups first and ranks a group's runs only when the group comes up,
   so a group whose bound is too high costs one bound, not eight;
2. of the ``multistart_count`` lowest cells, each with no lower
   8-neighbour on the seed grid starts a cyclic per-coordinate Brent
   line search with a shrinking trust window, clipped to the face at
   every step, the only box rule (``_line``).  A cell with a lower
   neighbour lies on the slope of a basin that a lower cell starts in
   (the rule of multi-level single linkage, Rinnooy Kan and Timmer
   1987), so ``multistart_count`` caps the starts but does not fix
   their number.  An inner search's ``evaluations`` counts its seed-cell
   blends and its line-objective calls, the polish's (step 3) among
   them; it makes more line calls at small t, where the starts crawl
   towards the point mass.  Each start runs all its rounds before the
   next starts.  Each line search starts at the window centre, the
   current point, whose value is known, so it never ends worse than it
   began.  The last round's line searches
   converge to 1e-10; an earlier round's only hand a start point to
   the next, narrower window, so they stop at 1e-2 of their own
   window.  Along a, 4 of the ratio's 6 entropies move, along b1 3;
   the rest are computed once per line;
3. the best refined point is polished by nested Brent (Brent 1973,
   ch. 5) in a one-cell window, over a of the minimum over b1, as a
   coordinate search crawls along a curved valley;
4. the reported minimum is re-evaluated through the reference
   implementation in :mod:`ucsbound.distributions`, so the fast path
   cannot silently drift from the definition it is searching over.
   The reference gives a family's three alpha-free terms (independent
   and correlated entropy, and the denominator) in one pass; a search
   keeps them by family, so each family it scores passes through the
   reference once, and its ratio at any alpha is a blend of its terms.

The point mass at t, the family a1 = a2 = t with beta = 0, is also
scored through the reference implementation; at small t it is the
worst case, which refinement only approaches.

For a fixed family the ratio is linear in alpha, so the inner minimum
is a lower envelope of lines and concave on [0, 1].  :func:`gamma_hat`
maximises it on one seed scan per t, by the lines of refined families
(steps 1, 2 and 4): a secant search for the zero of the lines' slopes,
switching to the maximum of the envelope of every line found so far
(Kelley 1960) where the secant stalls on a kink.  Only the point at the
alpha it reports is polished, and its family joins those it scores the
bound over, so a search over alpha polishes once.  At alpha = 1 the
worst families are known in closed form, one b1 for every t, so that
end costs no inner search.  :func:`find_tmax` bisects over t.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import operator
import time
from typing import NamedTuple

from .distributions import DENOM_FLOOR, ExtremeFamily, RatioTerms, ratio_terms
from .errors import (
    BracketFailure,
    DegenerateDenominator,
    EmptyFeasible,
    GridTooLarge,
    VerificationFailed,
)
from .scalars import _LN2, binary_entropy, max_entropy_or_prob_fullcorr, require_prob

__all__ = [
    "SearchConfig",
    "InnerSearchReport",
    "BoundCertificate",
    "ThresholdCertificate",
    "inner_inf",
    "gamma_hat",
    "find_tmax",
    "verify_reference_point",
    "REFERENCE_T",
    "REFERENCE_ALPHA",
    "REFERENCE_RATIO",
    "REFERENCE_LOW_VALUE",
    "REFERENCE_BETA",
    "BASELINE_THRESHOLD",
]

# Published reference evaluation this package is expected to reproduce:
# at t = 0.38234 and blend weight alpha = 0.035 the worst-case ratio is
# 1.00000889, attained at a1 = a2 = b1 ~ 0.3300622, b2 = 1 with high-block
# weight beta ~ 0.1560676.
REFERENCE_T = 0.38234
REFERENCE_ALPHA = 0.035
REFERENCE_RATIO = 1.00000889
REFERENCE_LOW_VALUE = 0.3300622
REFERENCE_BETA = 0.1560676

# Threshold certified without the blended objective (alpha = 0), i.e. by
# the independent-coupling argument alone: (3 - sqrt 5) / 2.  It is also
# the golden-section fraction of Brent's search and of the alpha = 1 b1.
BASELINE_THRESHOLD = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(math.ulp(1.0))
# The search over alpha stops once the envelope of the lines it found
# peaks within _ALPHA_GAP_TOL of its best value, once its bracket is
# narrower than _ALPHA_REFINE_TOL, or after _ALPHA_MAX_SEARCHES tried
# alphas, alpha = 1 among them.
_ALPHA_REFINE_TOL = 1e-4
_ALPHA_GAP_TOL = 1e-10
_ALPHA_MAX_SEARCHES = 16
# Absolute tolerance of each Brent line search (see _brent_min): the last
# refinement round and the polish use _PARAM_TOL; an earlier round only
# hands a start point to the next, narrower window, so it uses
# _ROUND_TOL_FRACTION of its own window.
_PARAM_TOL = 1e-10
_ROUND_TOL_FRACTION = 1e-2
# Seed cells per run of the scan's bound, and runs per group of runs
# (see _FaceSearch._candidates).
_RUN = 8
# Largest seed scan, in cells.
_MAX_SEED_CELLS = 1 << 20


class _SearchConfig(NamedTuple):
    grid_points_per_axis: int = 64
    refine_rounds: int = 6
    multistart_count: int = 16


class SearchConfig(_SearchConfig):
    """Knobs of the seed-scan-plus-refinement search.

    The defaults are the search of every certificate, the published
    check's included, which they reproduce to ~1e-9.
    Each knob must be an integer, a numpy one included, and is stored as
    an int.  A grid of more than 2^20 seed cells raises
    :class:`GridTooLarge`, before any work.  Construction validates;
    ``_replace`` and ``_make`` do not, so build a changed copy as
    ``SearchConfig(**{**config._asdict(), ...})``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SearchConfig:
        knobs = []
        for name, value in zip(cls._fields, super().__new__(cls, *args, **kwargs)):
            try:
                knobs.append(operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        g, rounds, starts = knobs
        if g < 2:
            raise ValueError("grid_points_per_axis must be >= 2")
        if g * g > _MAX_SEED_CELLS:
            raise GridTooLarge(
                f"a grid of {g} points per axis has {g * g} seed cells, "
                f"more than the {_MAX_SEED_CELLS} a search allows"
            )
        if rounds < 0:
            raise ValueError("refine_rounds must be >= 0")
        if starts < 1:
            raise ValueError("multistart_count must be >= 1")
        return tuple.__new__(cls, knobs)

    def to_json_dict(self) -> dict:
        return self._asdict()


def _json(value):
    """``value`` as JSON data: a family as its ``argmin_dict``, any other
    record (a named tuple) as a dict of its fields, other tuples as lists."""
    if isinstance(value, ExtremeFamily):
        return value.argmin_dict()
    if hasattr(value, "_asdict"):
        return {k: _json(v) for k, v in value._asdict().items()}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value


class InnerSearchReport(NamedTuple):
    """Result of one worst-case-ratio search at fixed (alpha, t)."""

    alpha: float
    t: float
    min_ratio: float
    argmin: ExtremeFamily
    evaluations: int

    def to_json_dict(self) -> dict:
        return _json(self)


class BoundCertificate(NamedTuple):
    """Best certificate over alpha, or at a pinned alpha, at one mean target t.

    ``alpha_gap`` is the maximum over alpha of the envelope of the
    lines the search found, less ``gamma_hat_lower``: how much more a
    better alpha could add unless a new family is found.  It is never
    negative: where rounding puts the peak below the bound, it is 0.
    It is None when alpha is pinned.
    """

    t: float
    alpha_star: float
    gamma_hat_lower: float
    argmin: ExtremeFamily
    evaluations: int
    config: SearchConfig
    alpha_gap: float | None = None
    wall_time_ms: float | None = None

    @property
    def certifies(self) -> bool:
        """Whether the worst-case ratio clears 1."""
        return self.gamma_hat_lower > 1.0

    def to_json_dict(self) -> dict:
        return _json(self)


class ThresholdCertificate(NamedTuple):
    """Outcome of bisecting for the largest certifiable mean target."""

    t_certified: float
    t_ceiling: float
    margin: float
    bracket: tuple[float, float]
    endpoint_bounds: tuple[float, float]
    steps: int
    certificate: BoundCertificate
    wall_time_ms: float | None = None

    def to_json_dict(self) -> dict:
        return _json(self)


def _brent_min(
    f, lo: float, hi: float, tol: float, start: tuple[float, float] | None = None
) -> tuple[float, float]:
    """Minimum of f on [lo, hi] by Brent's method (Brent 1973, ch. 5).

    Parabolic steps with a golden-section fallback; the point x is
    accepted once the bracket lies within 2 * tol1 of it, tol1 =
    sqrt(eps) * |x| + tol / 3, the rule of the bounded ``fminbound``
    form of the method.  f may return +inf: a parabola through such a
    value has no finite vertex, so the step falls back to golden
    section.

    ``start`` is an optional pair (x0, f(x0)) with x0 in [lo, hi]; the
    search then starts there instead of at the golden point, spends no
    call on x0, and returns a value no higher than f(x0).
    """
    a, b = lo, hi
    if start is None:
        x = a + BASELINE_THRESHOLD * (b - a)
        fx = f(x)
    else:
        x, fx = start
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            # Take the vertex if it falls inside the bracket and the step
            # is under half the one before last.
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                if x + d - a < tol2 or b - x - d < tol2:
                    d = tol1 if x < xm else -tol1
                golden = False
        if golden:
            e = (b if x < xm else a) - x
            d = BASELINE_THRESHOLD * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d >= 0.0 else -tol1))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _least_per_run(values: list) -> list:
    """The least of each run of ``_RUN`` consecutive values, the last run
    possibly shorter, in one pass over ``values``."""
    # One iterator read _RUN times per call of min: the full runs, in order.
    least = list(map(min, *[iter(values)] * _RUN))
    if len(values) % _RUN:
        least.append(min(values[len(least) * _RUN :]))
    return least


def _require_t(t: float) -> float:
    """``t`` as a float; raises :class:`EmptyFeasible` unless it is in (0, 1/2)."""
    t = float(t)
    if math.isnan(t) or not 0.0 < t < 0.5:
        raise EmptyFeasible(f"t must lie in (0, 1/2), got {t!r}")
    return t


class _FaceSearch:
    """Seed scan and refinement on the face (a, a; b1, 1), bound to one (t, config).

    A point is the list [a, b1].  The seed cells keep their
    alpha-independent ind/denom and cor/denom in columns, each run of
    ``_RUN`` cells keeps the least of each, and each group of ``_RUN``
    runs the least of its runs', so a search over alpha re-scans only
    the runs whose bound can reach the lowest cells.  The reference
    terms of each family scored are kept by family, so a search passes
    a family through the oracle once, whatever the alphas it is scored at.
    """

    def __init__(self, t: float, config: SearchConfig):
        self.t = t = _require_t(t)
        self.config = config
        self.evaluations = 0
        g = config.grid_points_per_axis
        self._a_axis = [t * math.sin(0.5 * math.pi * k / g) ** 2 for k in range(g)]
        self._b1_axis = [math.sin(0.5 * math.pi * k / (g - 1)) ** 2 for k in range(g)]
        self._ind, self._cor, self._place = self._seed_cells()
        if not self._place:
            raise DegenerateDenominator(
                f"at t={t!r} no seed cell has an entropy denominator above "
                f"{DENOM_FLOOR!r}; t is too small to search"
            )
        # Run r, the cells from r * _RUN on, keeps its least ind/denom and
        # least cor/denom, from which a scan bounds the run's blends; group
        # q, the runs from q * _RUN on, keeps the least of its runs'.
        self._runs = _least_per_run(self._ind), _least_per_run(self._cor)
        self._groups = _least_per_run(self._runs[0]), _least_per_run(self._runs[1])
        self._oracle: dict[ExtremeFamily, RatioTerms] = {}

    def _seed_cells(self) -> tuple[list, list, list]:
        """The seed cells as columns in scan order: ind/denom, cor/denom
        and the grid place i * g + j of a = a_axis[i], b1 = b1_axis[j].

        The face formula (module docstring), a row of a at a time: the
        entropies of a are taken once a row, those of b1 once a column,
        and only the cross term h(a + b1 - a b1) once a cell, written out
        as :func:`~ucsbound.scalars.binary_entropy` computes it.  Only
        a = 0 with b1 = 0 or 1 carries no entropy; it is left out.
        """
        t, h, log2, log1p = self.t, binary_entropy, math.log2, math.log1p
        g = len(self._b1_axis)
        columns = [(b1, b1 + 1.0, h(b1), h(b1 + b1 - b1 * b1)) for b1 in self._b1_axis]
        ind_col, cor_col, places = [], [], []
        for i, a in enumerate(self._a_axis):
            ha = h(a)
            gap, ha2 = 2.0 * (t - a), ha + ha
            sa4, pa = 4.0 * h(a + a - a * a), h(max_entropy_or_prob_fullcorr(a, a))
            for place, (b1, b1_1, hb, sb) in enumerate(columns, i * g):
                beta = gap / (b1_1 - a - a)
                nb = 1.0 - beta
                w1, w2 = 0.5 * nb, 0.5 * beta
                denom = w1 * ha2 + w2 * hb
                if denom > DENOM_FLOOR:
                    x = a + b1 - a * b1
                    cross = (
                        0.0 if x <= 0.0 or x >= 1.0
                        else -(x * log2(x) + (1.0 - x) * log1p(-x) / _LN2)
                    )
                    ind = w1 * w1 * sa4 + w2 * w2 * sb + 2.0 * w1 * w2 * (cross + cross)
                    ind_col.append(ind / denom)
                    cor_col.append(nb * pa / denom)
                    places.append(place)
        return ind_col, cor_col, places

    # -- seed scan ---------------------------------------------------------

    def _candidates(self, alpha: float) -> list[list[float]]:
        """The seed cells, as [a, b1], among the ``multistart_count`` lowest
        that have no lower 8-neighbour on the grid, ties in scan order.

        Runs are visited in increasing order of their bound
        (1 - alpha) min ind + alpha min cor.  Rounding is monotone, so no
        blend in a run is below its bound, and the scan stops at the
        first run whose bound is above the k-th lowest blend so far: no
        cell of it or of a later run can displace one.  Only the blends
        of visited runs are computed and counted.

        The runs are ordered in two levels.  The heap starts with the
        groups, each bounded by its least ind and least cor, a bound no
        run of it goes below; a group's runs enter the heap when it
        pops.  A group's key (bound, first cell, 0) is at most each of
        its runs' (bound, first cell, 1), so the runs pop in the same
        order as from one heap of them all, and the scan blends the same
        runs.  A group whose bound is above the k-th lowest blend stops
        the scan too: every run yet to pop has a bound at least as high.

        A lower neighbour of one of the lowest cells is one of them too,
        so the test needs no other cell.  The lowest cell always passes.
        """
        w = 1.0 - alpha
        k = self.config.multistart_count
        ind, cor = self._ind, self._cor
        run_ind, run_cor = self._runs
        span = _RUN * _RUN  # cells per group
        heap = [
            (w * lo_ind + alpha * lo_cor, q * span, 0)
            for q, (lo_ind, lo_cor) in enumerate(zip(*self._groups))
        ]
        heapq.heapify(heap)
        # The k lowest (blend, scan index) so far, in order.
        best = []
        while heap:
            bound, start, is_run = heapq.heappop(heap)
            if len(best) == k and bound > best[-1][0]:
                break
            if not is_run:
                for r in range(start // _RUN, min((start + span) // _RUN, len(run_ind))):
                    heapq.heappush(heap, (w * run_ind[r] + alpha * run_cor[r], r * _RUN, 1))
                continue
            cells = range(start, min(start + _RUN, len(ind)))
            self.evaluations += len(cells)
            for c in cells:
                entry = (w * ind[c] + alpha * cor[c], c)
                if len(best) < k or entry < best[-1]:
                    bisect.insort(best, entry)
                    del best[k:]
        g = self.config.grid_points_per_axis
        value = {divmod(self._place[c], g): v for v, c in best}
        return [
            [self._a_axis[i], self._b1_axis[j]]
            for (i, j), v in value.items()
            if not any(
                value.get((i + di, j + dj), math.inf) < v
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
            )
        ]

    # -- refinement --------------------------------------------------------

    def _line(self, x: list, ci: int, alpha: float):
        """The search objective along coordinate ``ci`` of ``x`` = [a, b1].

        The face formula as :meth:`_seed_cells` writes it, in the same
        float operations: the entropies of the coordinate held are
        computed here, once, and a call computes the 2 or 3 that move and
        the cross term.  Points are not checked against the face:
        :meth:`_refine` and :meth:`_polish` clip every window to it.
        +inf marks a degenerate denominator.
        """
        t, w, h = self.t, 1.0 - alpha, binary_entropy
        log2, log1p, corr = math.log2, math.log1p, max_entropy_or_prob_fullcorr
        a0, b0 = x
        if ci:
            ha0 = h(a0)
            held = a0, ha0 + ha0, 4.0 * h(a0 + a0 - a0 * a0), h(corr(a0, a0))
        else:
            held = b0, h(b0), h(b0 + b0 - b0 * b0)

        def objective(u: float) -> float:
            self.evaluations += 1
            if ci:
                (a, ha2, sa4, pa), b1, hb, sb = held, u, h(u), h(u + u - u * u)
            else:
                ha = h(u)
                a, ha2, sa4, pa = u, ha + ha, 4.0 * h(u + u - u * u), h(corr(u, u))
                b1, hb, sb = held
            beta = 2.0 * (t - a) / (b1 + 1.0 - a - a)
            nb = 1.0 - beta
            w1, w2 = 0.5 * nb, 0.5 * beta
            denom = w1 * ha2 + w2 * hb
            if denom <= DENOM_FLOOR:
                return math.inf
            x = a + b1 - a * b1
            cross = 0.0 if x <= 0.0 or x >= 1.0 else -(x * log2(x) + (1.0 - x) * log1p(-x) / _LN2)
            ind = w1 * w1 * sa4 + w2 * w2 * sb + 2.0 * w1 * w2 * (cross + cross)
            return (w * ind + alpha * (nb * pa)) / denom

        return objective

    def _window(self, x: list, ci: int, width: float) -> tuple[float, float]:
        """The face's range of coordinate ``ci``, within ``width`` of x[ci]."""
        top = self.t if ci == 0 else 1.0
        return max(0.0, x[ci] - width), min(top, x[ci] + width)

    def _refine(self, alpha: float, points: list) -> tuple[float, list]:
        """The lowest point reached by refining each of ``points`` in turn:
        a round is a line search per coordinate, kept only if lower, in a
        window that shrinks by 0.35 a round.  Points move in place."""
        cfg = self.config
        ends = []
        for x in points:
            best = self._line(x, 0, alpha)(x[0])
            window = 1.0 / (cfg.grid_points_per_axis - 1)
            for r in range(cfg.refine_rounds):
                last = r == cfg.refine_rounds - 1
                tol = _PARAM_TOL if last else max(_PARAM_TOL, _ROUND_TOL_FRACTION * window)
                for ci in range(2):
                    lo, hi = self._window(x, ci, window)
                    # Start at the window centre, whose value is already known.
                    v, fv = _brent_min(self._line(x, ci, alpha), lo, hi, tol, (x[ci], best))
                    if fv < best:
                        x[ci] = v
                        best = fv
                window *= 0.35
            ends.append((best, x))
        return min(ends)

    def _polish(self, alpha: float, best: float, x: list) -> tuple[float, list]:
        """Nested Brent in a one-cell window around x: over a, of the minimum over b1."""
        if not self.config.refine_rounds:
            return best, x
        window = 1.0 / (self.config.grid_points_per_axis - 1)
        b_lo, b_hi = self._window(x, 1, window)
        argmin_b1 = {}

        def over_b1(a: float) -> float:
            y = [a, x[1]]
            argmin_b1[a], fv = _brent_min(self._line(y, 1, alpha), b_lo, b_hi, _PARAM_TOL)
            return fv

        a, fa = _brent_min(over_b1, *self._window(x, 0, window), _PARAM_TOL)
        return (fa, [a, argmin_b1[a]]) if fa < best else (best, x)

    # -- public entry ------------------------------------------------------

    def _refined(self, alpha: float) -> tuple[float, list]:
        """Steps 1 and 2 at ``alpha``: the lowest refined value and its point."""
        return self._refine(alpha, self._candidates(alpha))

    def _terms(self, family: ExtremeFamily) -> RatioTerms:
        """The reference terms of ``family``, from one oracle pass per search."""
        terms = self._oracle.get(family)
        if terms is None:
            terms = self._oracle[family] = ratio_terms(family)
        return terms

    def _scored(self, alpha: float, x: list) -> tuple[float, ExtremeFamily]:
        """Step 4: the lower reference ratio of x's family and the point mass, and its family."""
        a, b1 = x
        family = ExtremeFamily(a, a, self.t, b1, 1.0)
        # Authoritative value: the reference implementation, not the fast path.
        min_ratio = self._terms(family).ratio(alpha)
        point = ExtremeFamily(self.t, self.t, self.t, 1.0, 1.0)
        point_ratio = self._terms(point).ratio(alpha)
        if point_ratio <= min_ratio:
            family, min_ratio = point, point_ratio
        return min_ratio, family

    def inner_min(self, alpha: float) -> InnerSearchReport:
        before = self.evaluations
        _, x = self._polish(alpha, *self._refined(alpha))
        return InnerSearchReport(alpha, self.t, *self._scored(alpha, x), self.evaluations - before)


def inner_inf(alpha: float, t: float, config: SearchConfig | None = None) -> InnerSearchReport:
    """Worst-case entropy ratio over candidate families at fixed (alpha, t).

    Raises :class:`EmptyFeasible` when t is outside (0, 1/2).  The
    report's ``min_ratio`` is computed by the reference objective at the
    argmin, so it differs from the infimum over the face (module
    docstring) only by how well the search converged, never by formula
    drift.  :class:`SearchConfig` caps the seed scan at 2^20 cells.  Raises
    :class:`DegenerateDenominator` when t is so small (about 1e-16) that
    no seed cell's denominator clears 1e-14.

    At alpha = 1 the minimum is known in closed form (the lemma in
    ``_best_alpha``): it is 0, and the reported argmin is
    :func:`_alpha_one_family`, whatever the config.  No seed is scanned
    there and the report counts 0 evaluations; for t up to ~1.44e-14,
    where no such family has a denominator above 1e-14, it raises
    :class:`DegenerateDenominator`.
    """
    alpha = require_prob(alpha, "alpha")
    if alpha == 1.0:
        family, terms = _alpha_one_family(_require_t(t))
        return InnerSearchReport(1.0, family.t, terms.ratio(1.0), family, evaluations=0)
    return _FaceSearch(t, config or SearchConfig()).inner_min(alpha)


def _envelope(lines, alpha: float) -> float:
    """Lower envelope min(c + s * alpha) of lines (c, s)."""
    return min(c + s * alpha for c, s in lines)


def _envelope_argmax(lines) -> tuple[float, float]:
    """Maximiser over [0, 1] of the lower envelope of lines (c, s), and the maximum.

    The envelope is concave and piecewise linear, so it peaks at an end
    of [0, 1] or where a rising line meets one that does not rise.  Of
    equal maxima the lowest alpha is returned.
    """
    lines = list(lines)
    points = [0.0, 1.0]
    for c_up, s_up in lines:
        for c_down, s_down in lines:
            if s_up > 0.0 >= s_down:
                a = (c_down - c_up) / (s_up - s_down)
                if 0.0 < a < 1.0:
                    points.append(a)
    best = max(points, key=lambda a: (_envelope(lines, a), -a))
    return best, _envelope(lines, best)


def gamma_hat(
    t: float,
    alphas: str | float = "auto",
    config: SearchConfig | None = None,
) -> BoundCertificate:
    """Best worst-case-ratio certificate over the blend weight alpha.

    ``alphas`` is ``"auto"`` or one weight in [0, 1], which is pinned.
    ``"auto"`` maximises the inner minimum over alpha in [0, 1].  Each
    family's ratio is linear in alpha, so every inner search yields a
    line through its argmin, and the slope of the lowest line found at
    alpha is a supergradient of the concave minimum there.  The search
    starts at alpha = 0, so that weight is always among those scored,
    and stops there if the slope is not positive.
    Otherwise the other end, alpha = 1, takes the line of a closed-form
    family instead of an inner search (the lemma is in ``_best_alpha``).
    The search then brackets the slope's change of sign and steps by
    Illinois secant; when the envelope gap has not halved since the
    step before, it takes the envelope's maximiser instead, which lands
    on a kink exactly.  A pinned alpha needs one inner search,
    :func:`inner_inf`; a pinned alpha = 1 needs none.

    Each evaluated alpha is scored by the least reference ratio, at that
    alpha, over every family the search found, so the bound is one that
    no family seen contradicts.  The families that steer are refined,
    not polished; the best alpha by that score has its point polished,
    and is reported, with its score over every family and the family
    attaining it, once no other evaluated alpha scores higher (a polish
    that lowers the best score moves the polish to the new best).

    ``"auto"`` always needs the alpha = 1 family, so for t up to
    ~1.44e-14, where its denominator cannot clear 1e-14, it raises
    :class:`DegenerateDenominator` naming t; above that cut it returns a
    bound.
    """
    cfg = config or SearchConfig()
    started = time.perf_counter()
    if isinstance(alphas, str):
        if alphas != "auto":
            raise ValueError(f'alphas must be "auto" or a number, got {alphas!r}')
        face = _FaceSearch(t, cfg)
        best_alpha, value, family, alpha_gap = _best_alpha(face)
        t, evaluations = face.t, face.evaluations
    else:
        report = inner_inf(alphas, t, cfg)
        best_alpha, value, family, alpha_gap = report.alpha, report.min_ratio, report.argmin, None
        t, evaluations = report.t, report.evaluations
    wall_ms = (time.perf_counter() - started) * 1000.0
    return BoundCertificate(
        t=t,
        alpha_star=best_alpha,
        gamma_hat_lower=value,
        argmin=family,
        evaluations=evaluations,
        config=cfg,
        alpha_gap=alpha_gap,
        wall_time_ms=wall_ms,
    )


@functools.cache
def _alpha_one_b1() -> float:
    """b1* of :func:`_alpha_one_family`, found by Brent once per process."""

    def objective(b1: float) -> float:
        return (binary_entropy(b1 + b1 - b1 * b1) / binary_entropy(b1) - 4.0) / (1.0 + b1)

    return _brent_min(objective, 0.0, 1.0, _PARAM_TOL)[0]


def _alpha_one_family(t: float) -> tuple[ExtremeFamily, RatioTerms]:
    """The family (0, 0; b1, 1) with the lowest ratio at alpha = 0, and its
    reference terms (:func:`~ucsbound.distributions.ratio_terms`).

    Every such family with 0 < b1 < 1 has ratio 0 at alpha = 1 (see
    :func:`_best_alpha`).  At alpha = 0 its ratio is
    2 - t (4 - q) / (1 + b1) with q = h(2 b1 - b1^2) / h(b1), so the
    best b1, b1* ~0.0727, minimises (q - 4) / (1 + b1) at every t.  The
    bounded Brent of :func:`_alpha_one_b1` evaluates only inside (0, 1),
    never at 0 or 1.  The denominator is t h(b1) / (1 + b1), ~0.351 t
    at b1* and largest, ~0.694 t, at the golden point (3 - sqrt 5) / 2,
    which stands in for t up to ~2.85e-14, where the oracle finds b1*'s
    not above ``DENOM_FLOOR`` (1e-14).  For t up to ~1.44e-14, where it
    finds neither above, this raises :class:`DegenerateDenominator`.
    The terms are the oracle's one pass over the family, so a caller that
    scores it does not pass it through the oracle again.
    """
    for b1 in (_alpha_one_b1(), BASELINE_THRESHOLD):
        family = ExtremeFamily(0.0, 0.0, t, b1, 1.0)
        try:
            return family, ratio_terms(family)
        except DegenerateDenominator:
            continue
    raise DegenerateDenominator(
        f"at t={t!r} no family (0, 0; b1, 1) has an entropy denominator "
        f"above {DENOM_FLOOR!r}; t is too small to search"
    )


def _best_alpha(face: _FaceSearch) -> tuple[float, float, ExtremeFamily, float]:
    """The search over alpha of :func:`gamma_hat`.

    Returns the best alpha, its bound, the family attaining it and the
    envelope gap.  The refined point of the best alpha is polished, and
    if the family it finds lowers that alpha's score below another
    evaluated alpha's, the new best is polished in turn, until the best
    is one already polished.  So the bound is the best score over the
    evaluated alphas, each scored over every family found.

    Alpha = 1 needs no inner search.  There the ratio is cor/denom >= 0,
    and the correlated term cor sums each block's h(fullcorr) with
    weights 1 - beta and beta.  h(fullcorr(x, y)) is 0 only at (0, 0)
    or at a pair containing 1.  The low block has mean a <= t < 1/2, so
    it contains no 1, and its weight 1 - beta is positive since b > t;
    so it is (0, 0).  Then beta = t / b > 0, so the high block contains
    1: it is (b1, 1), and the denominator beta h(b1) / 2 is positive
    only for 0 < b1 < 1.  So the minimum at alpha = 1 is exactly 0, and
    it is attained exactly on the families (0, 0; b1, 1) with
    0 < b1 < 1.  Their lines all pass through (1, 0); the one taken for
    alpha = 1 is the lowest of them, :func:`_alpha_one_family`.  It is
    found first, even when the search stops at alpha = 0, so that a t
    too small for it fails whatever the slope there.
    """
    top, terms = _alpha_one_family(face.t)
    face._oracle[top] = terms
    # Each family found, with its line (ratio at alpha = 0, slope) from
    # the face's reference terms; each alpha's refined point.
    lines: dict[ExtremeFamily, tuple[float, float]] = {}
    refined: dict[float, tuple[float, list]] = {}
    evaluated: list[float] = []

    def found(family: ExtremeFamily) -> None:
        if family not in lines:
            terms = face._terms(family)
            r0 = terms.ratio(0.0)
            lines[family] = (r0, terms.ratio(1.0) - r0)

    def slope_at(a: float, family: ExtremeFamily | None = None) -> float:
        if family is None:
            refined[a] = face._refined(a)
            family = face._scored(a, refined[a][1])[1]
        found(family)
        evaluated.append(a)
        return min(lines.values(), key=lambda line: line[0] + line[1] * a)[1]

    lo, slope_lo = 0.0, slope_at(0.0)
    if slope_lo > 0.0:
        hi, slope_hi = 1.0, slope_at(1.0, top)
        moved = None  # the end of [lo, hi] the last step replaced
        last_gap = math.inf
        while slope_hi < 0.0 and len(evaluated) < _ALPHA_MAX_SEARCHES:
            peak_alpha, peak = _envelope_argmax(lines.values())
            gap = peak - max(_envelope(lines.values(), a) for a in evaluated)
            if gap <= _ALPHA_GAP_TOL or hi - lo <= _ALPHA_REFINE_TOL:
                break
            if gap > 0.5 * last_gap:
                a = peak_alpha
            else:
                a = lo - slope_lo * (hi - lo) / (slope_hi - slope_lo)
            last_gap = gap
            slope = slope_at(a)
            # Illinois: an end kept twice running has its slope halved.
            if slope > 0.0:
                if moved == "lo":
                    slope_hi *= 0.5
                lo, slope_lo, moved = a, slope, "lo"
            elif slope < 0.0:
                if moved == "hi":
                    slope_lo *= 0.5
                hi, slope_hi, moved = a, slope, "hi"
            else:
                break

    def score(a: float) -> tuple[float, ExtremeFamily]:
        return min(((face._terms(f).ratio(a), f) for f in lines), key=lambda vf: vf[0])

    # A polished family can push the best alpha's score below another's:
    # re-rank after each polish until the best alpha is one polished.
    # Alpha = 1 scores 0, never above alpha = 0, so the best was searched.
    polished = set()
    while (best_alpha := max(evaluated, key=lambda a: score(a)[0])) not in polished:
        polished.add(best_alpha)
        found(face._scored(best_alpha, face._polish(best_alpha, *refined[best_alpha])[1])[1])
    value, family = score(best_alpha)
    return best_alpha, value, family, max(0.0, _envelope_argmax(lines.values())[1] - value)


def find_tmax(
    config: SearchConfig | None = None,
    margin: float = 1e-7,
    bracket: tuple[float, float] = (0.37, 0.40),
    t_tol: float = 1e-6,
) -> ThresholdCertificate:
    """Bisect for the largest t whose certificate clears 1 + margin.

    Each tested t gets :func:`gamma_hat` with alpha searched over [0, 1].
    The bracket must straddle the threshold: the low endpoint has to
    certify and the high endpoint has to fail, otherwise
    :class:`BracketFailure` is raised with both endpoint bounds in the
    message.  The returned ``t_certified`` carries an actual certificate
    (its bound exceeded 1 + margin); ``t_ceiling`` is the smallest
    tested t that failed, so the true threshold lies between the two.
    ``bracket`` must be a pair (lo, hi) with 0 < lo < hi < 1/2, and
    ``margin`` finite and >= 0.  ``t_tol`` must be below hi - lo
    and at least the float spacing at hi: below that, the midpoint of
    two adjacent floats rounds onto one of them and the bracket stops
    shrinking.
    """
    cfg = config or SearchConfig()
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be finite and >= 0, got {margin!r}")
    try:
        lo, hi = span = tuple(map(float, bracket))
    except (TypeError, ValueError):
        raise ValueError(f"bracket must be a pair (lo, hi), got {bracket!r}") from None
    if not 0.0 < lo < hi < 0.5:
        raise ValueError(f"bracket must satisfy 0 < lo < hi < 1/2, got {bracket!r}")
    if not math.ulp(hi) <= t_tol < hi - lo:
        raise ValueError(
            f"t_tol must lie in [ulp(hi), hi-lo) = [{math.ulp(hi)!r}, {hi - lo!r}), "
            f"got {t_tol!r}"
        )

    started = time.perf_counter()
    cert_lo = gamma_hat(lo, "auto", cfg)
    cert_hi = gamma_hat(hi, "auto", cfg)
    endpoint_bounds = (cert_lo.gamma_hat_lower, cert_hi.gamma_hat_lower)
    threshold = 1.0 + margin
    if cert_lo.gamma_hat_lower <= threshold:
        raise BracketFailure(
            f"low endpoint t={lo} has bound {cert_lo.gamma_hat_lower}, "
            f"not above 1 + margin = {threshold}; nothing in the bracket certifies"
        )
    if cert_hi.gamma_hat_lower > threshold:
        raise BracketFailure(
            f"high endpoint t={hi} has bound {cert_hi.gamma_hat_lower}, "
            f"already above 1 + margin = {threshold}; enlarge the bracket"
        )

    best = cert_lo
    steps = 0
    while hi - lo > t_tol:
        mid = 0.5 * (lo + hi)
        cert = gamma_hat(mid, "auto", cfg)
        steps += 1
        if cert.gamma_hat_lower > threshold:
            lo = mid
            best = cert
        else:
            hi = mid
    wall_ms = (time.perf_counter() - started) * 1000.0
    return ThresholdCertificate(
        t_certified=lo,
        t_ceiling=hi,
        margin=margin,
        bracket=span,
        endpoint_bounds=endpoint_bounds,
        steps=steps,
        certificate=best,
        wall_time_ms=wall_ms,
    )


def verify_reference_point(
    config: SearchConfig | None = None, strict: bool = False
) -> BoundCertificate:
    """Reproduce the published reference evaluation and check it.

    Runs :func:`gamma_hat` at t = 0.38234 with alpha pinned to 0.035, by
    default on ``SearchConfig()``, the search of every certificate, and
    compares the minimum and its argmin against the published values.
    Tolerances: 2e-5 on the ratio (1e-6 when ``strict``) and 1e-3 on
    each argmin coordinate and on beta.  On any mismatch raises
    :class:`VerificationFailed` carrying the measured and expected
    values.
    """
    cert = gamma_hat(REFERENCE_T, REFERENCE_ALPHA, config)
    measured = {"min_ratio": cert.gamma_hat_lower, **cert.argmin.argmin_dict()}
    expected = {
        "min_ratio": REFERENCE_RATIO,
        "a1": REFERENCE_LOW_VALUE,
        "a2": REFERENCE_LOW_VALUE,
        "b1": REFERENCE_LOW_VALUE,
        "b2": 1.0,
        "beta": REFERENCE_BETA,
    }
    ratio_tol = 1e-6 if strict else 2e-5
    problems = []
    if abs(measured["min_ratio"] - REFERENCE_RATIO) > ratio_tol:
        problems.append(
            f"min_ratio {measured['min_ratio']!r} vs {REFERENCE_RATIO!r} (tol {ratio_tol})"
        )
    for key in ("a1", "a2", "b1", "b2", "beta"):
        if abs(measured[key] - expected[key]) > 1e-3:
            problems.append(f"{key} {measured[key]!r} vs {expected[key]!r} (tol 0.001)")
    if problems:
        raise VerificationFailed(
            "reference evaluation not reproduced: " + "; ".join(problems),
            measured=measured,
            expected=expected,
        )
    return cert
