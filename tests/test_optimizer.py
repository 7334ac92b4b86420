"""Certificate search: seed scan + refinement against an independent oracle.

The oracle in this module re-derives the search objective from scratch
(plain loops over ordered atoms, no code shared with the package) so a
formula slip in the fast path cannot cancel out of the comparison.
"""

import ast
import collections
import decimal
import heapq
import math
import random
import re
import types

import numpy as np
import pytest

from ucsbound import optimizer
from ucsbound.distributions import ExtremeFamily, entropy_ratio, mixed_or_entropy
from ucsbound.errors import (
    BracketFailure,
    DegenerateDenominator,
    EmptyFeasible,
    GridTooLarge,
    VerificationFailed,
)
from ucsbound.optimizer import (
    BASELINE_THRESHOLD,
    REFERENCE_ALPHA,
    REFERENCE_T,
    InnerSearchReport,
    SearchConfig,
    _PARAM_TOL,
    _ROUND_TOL_FRACTION,
    _brent_min,
    _envelope_argmax,
    _FaceSearch,
    _alpha_one_b1,
    _alpha_one_family,
    find_tmax,
    gamma_hat,
    inner_inf,
    verify_reference_point,
)
from ucsbound.scalars import binary_entropy

SEED = 61803

FAST = SearchConfig(grid_points_per_axis=32, refine_rounds=3, multistart_count=8)

# Points spread over the searched range of t, where call-count pins sum
# their sweeps.
SPREAD_T = (0.2, 0.3, 0.38234, 0.45)


# -- independent oracle ----------------------------------------------------


def oracle_entropy(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def oracle_fullcorr(p, q):
    return sorted((max(p, q), 0.5, min(p + q, 1.0)))[1]


def oracle_ratio(a1, a2, b1, b2, t, alpha):
    """Objective from its definition, over explicit ordered atoms."""
    a = 0.5 * (a1 + a2)
    if b1 is None:
        atoms = [(a1, a2, 0.5), (a2, a1, 0.5)]
        beta = 0.0
    else:
        b = 0.5 * (b1 + b2)
        beta = (t - a) / (b - a)
        atoms = [
            (a1, a2, 0.5 * (1 - beta)),
            (a2, a1, 0.5 * (1 - beta)),
            (b1, b2, 0.5 * beta),
            (b2, b1, 0.5 * beta),
        ]
    marginal = [(x, m) for x, _, m in atoms]
    denom = sum(m * oracle_entropy(x) for x, m in marginal)
    independent = sum(
        mi * mj * oracle_entropy(xi + xj - xi * xj)
        for xi, mi in marginal
        for xj, mj in marginal
    )
    correlated = sum(m * oracle_entropy(oracle_fullcorr(x, y)) for x, y, m in atoms)
    return ((1 - alpha) * independent + alpha * correlated) / denom


def decimal_face_ratio(a, b1, t, alpha, prec=30):
    """The ratio at the face point (a, a; b1, 1) in ``prec``-digit decimal arithmetic.

    From the face formula, with beta = 2 (t - a) / (b1 + 1 - 2a) and
    every term that touches the value 1 equal to h(1) = 0.  The float
    arguments convert exactly.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        a, b1, t, alpha = map(decimal.Decimal, (a, b1, t, alpha))
        one, half = decimal.Decimal(1), decimal.Decimal("0.5")
        ln2 = decimal.Decimal(2).ln()

        def h(x):
            if x <= 0 or x >= 1:
                return decimal.Decimal(0)
            return -(x * x.ln() + (one - x) * (one - x).ln()) / ln2

        beta = 2 * (t - a) / (b1 + one - 2 * a)
        ind = (
            (one - beta) ** 2 * h(2 * a - a * a)
            + beta * (one - beta) * h(a + b1 - a * b1)
            + (beta / 2) ** 2 * h(2 * b1 - b1 * b1)
        )
        cor = (one - beta) * h(sorted((a, half, min(2 * a, one)))[1])
        denom = (one - beta) * h(a) + beta / 2 * h(b1)
        return ((one - alpha) * ind + alpha * cor) / denom


def oracle_best_over_samples(t, alpha, rng, count=4000):
    """Cheap independent search: random feasible families, best ratio."""
    best = math.inf
    for _ in range(count):
        a1 = rng.uniform(0, t)
        a2 = rng.uniform(a1, min(1.0, 2 * t - a1))
        if rng.uniform() < 0.3:
            value = oracle_ratio(a1, a2, None, None, t, alpha)
        else:
            b2 = rng.uniform(t, 1.0)
            lo_b1 = max(0.0, 2 * t - b2 + 1e-9)
            if lo_b1 > b2:
                continue
            b1 = rng.uniform(lo_b1, b2)
            if 0.5 * (b1 + b2) <= t:
                continue
            value = oracle_ratio(a1, a2, b1, b2, t, alpha)
        if value < best:
            best = value
    return best


def face_range(ci, t):
    """The face's values of coordinate ci of [a, b1]."""
    return (0.0, t) if ci == 0 else (0.0, 1.0)


class TestDominationLemma:
    def test_pairing_with_the_all_ones_block_never_raises_the_ratio(self):
        # A lone block of mean a <= t scores no lower than the same block
        # paired with (1, 1), which is why the search has no lone-block
        # class; the two agree at a = t, where the pair's weight is 0.
        rng = np.random.default_rng(SEED)
        for _ in range(2000):
            t = rng.uniform(0.01, 0.49)
            alpha = rng.uniform()
            a1 = rng.uniform(0.0, t)
            a2 = rng.uniform(a1, 2 * t - a1)
            assert oracle_ratio(a1, a2, 1.0, 1.0, t, alpha) <= oracle_ratio(
                a1, a2, None, None, t, alpha
            )
            a2 = 2 * t - a1
            assert oracle_ratio(a1, a2, 1.0, 1.0, t, alpha) == pytest.approx(
                oracle_ratio(a1, a2, None, None, t, alpha), abs=1e-12
            )


class TestMeansBelowTarget:
    """A certificate at t covers every mean below t: mixing in the atom (1, 1)
    lifts a law's mean to t and never raises its ratio (``optimizer`` docstring)."""

    @staticmethod
    def law_ratio(atoms, alpha):
        denom = sum(0.5 * m * (oracle_entropy(x) + oracle_entropy(y)) for x, y, m in atoms)
        return mixed_or_entropy(atoms, alpha) / denom

    def test_mixing_in_the_all_ones_atom_never_raises_the_ratio(self):
        rng = np.random.default_rng(SEED)
        mixed_laws = 0
        while mixed_laws < 2000:
            t, alpha = rng.uniform(0.01, 0.49), rng.uniform()
            k = int(rng.integers(1, 5))
            values = rng.uniform(0.0, min(1.0, 2 * t), size=(k, 2))
            masses = rng.dirichlet(np.ones(k))
            atoms = [(float(x), float(y), float(m)) for (x, y), m in zip(values, masses)]
            mean = sum(0.5 * m * (x + y) for x, y, m in atoms)
            if not (mean < t and self.law_ratio(atoms, 0.0) > 0.0):
                continue
            eps = (t - mean) / (1.0 - mean)
            mixed = [(x, y, (1.0 - eps) * m) for x, y, m in atoms] + [(1.0, 1.0, eps)]
            mixed_mean = sum(0.5 * m * (x + y) for x, y, m in mixed)
            assert mixed_mean == pytest.approx((1.0 - eps) * mean + eps, abs=1e-12)
            assert mixed_mean == pytest.approx(t, abs=1e-12)
            before, after = self.law_ratio(atoms, alpha), self.law_ratio(mixed, alpha)
            assert after <= before * (1.0 + 1e-12)
            mixed_laws += 1

    def test_face_bound_below_the_target_is_no_lower(self):
        # At alpha*(0.38234), the face bound at each mean below t is at least
        # the bound at t, up to rounding.
        alpha = gamma_hat(REFERENCE_T).alpha_star
        at_t = inner_inf(alpha, REFERENCE_T).min_ratio
        ladder = (1e-12, 1e-8, 1e-6, 0.01, 0.1, 0.2, 0.3, 0.35, 0.38, 0.382, 0.38233, 0.382339999)
        for mean in ladder:
            assert inner_inf(alpha, mean).min_ratio >= at_t - 1e-12, mean


class TestLineObjective:
    def test_matches_oracle_along_every_coordinate(self):
        rng = np.random.default_rng(SEED)
        for _ in range(40):
            t = rng.uniform(0.05, 0.49)
            alpha = rng.uniform(0.0, 0.3)
            face = _FaceSearch(t, FAST)
            x = [rng.uniform(0.0, t), rng.uniform(0.0, 1.0)]
            for ci in range(2):
                line = face._line(x, ci, alpha)
                for u in (x[ci], *rng.uniform(*face_range(ci, t), size=3), *face_range(ci, t)):
                    y = list(x)
                    y[ci] = u
                    expect = oracle_ratio(y[0], y[0], y[1], 1.0, t, alpha)
                    assert line(u) == pytest.approx(expect, abs=1e-12)

    def test_refinement_evaluates_only_inside_the_feasible_box(self, monkeypatch):
        # The line objective does not test the face; the window clips in
        # _refine and _polish are what keep every point it sees on it.
        points = []
        make_line = _FaceSearch._line

        def recorded_line(grid, x, ci, alpha):
            line = make_line(grid, x, ci, alpha)

            def objective(u):
                y = list(x)
                y[ci] = u
                points.append((grid.t, y))
                return line(u)

            return objective

        monkeypatch.setattr(_FaceSearch, "_line", recorded_line)
        for t in (0.05, 0.3, 0.38234, 0.49):
            gamma_hat(t, config=FAST)
        assert len(points) > 1000
        for t, (a, b1) in points:
            assert 0.0 <= a <= t and 0.0 <= b1 <= 1.0

    def test_counts_evaluations(self):
        face = _FaceSearch(0.38, FAST)
        assert face.evaluations == 0
        line = face._line([0.3, 0.4], 1, 0.035)
        line(0.5)
        line(2.0)
        assert face.evaluations == 2
        face._candidates(0.035)
        # Five runs of 8 of the 1,022 live seed cells reach the 8 lowest.
        assert face.evaluations == 2 + 40

    def test_rescan_blends_under_a_tenth_of_the_cells(self):
        face = _FaceSearch(0.38234, SearchConfig())
        face._candidates(0.035)
        assert len(face._ind) == 64 * 64 - 2
        assert face.evaluations < 410


class TestInlineEntropy:
    def test_every_written_out_entropy_is_binary_entropy_bit_for_bit(self):
        # The face search writes the cross term's entropy out by hand in
        # the row build and in the line objective.  Each copy, read from
        # the module's source, must round exactly as
        # scalars.binary_entropy does, ends and subnormals included.
        with open(optimizer.__file__, encoding="utf-8") as f:
            source = f.read()
        copies = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.IfExp) and "log2(" in ast.get_source_segment(source, node)
        ]
        assert len(copies) == 2
        rng = random.Random(SEED)
        points = [0.0, -0.0, 1.0, 5e-324, 3.4e-8, 0.5, 1.0 - 2.0**-53, 1.0 + 2.0**-52, -1.0, 2.0]
        points += [math.nan, math.inf, -math.inf]
        points += [rng.random() for _ in range(5000)]
        points += [10.0 ** -rng.uniform(0.0, 323.0) for _ in range(2500)]
        points += [1.0 - 2.0 ** -rng.uniform(1.0, 53.0) for _ in range(2500)]
        names = {**vars(optimizer), "log2": math.log2, "log1p": math.log1p}
        for node in copies:
            (var,) = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}
            copy = eval(f"lambda {var}: ({ast.get_source_segment(source, node)})", names)
            for x in points:
                assert copy(x).hex() == binary_entropy(x).hex(), (node.lineno, x)


def sin2_axis(top, g, steps):
    return [top * math.sin(0.5 * math.pi * k / steps) ** 2 for k in range(g)]


def lowest_cells(face, alpha):
    """Scan indices of the ``multistart_count`` lowest seed cells, every
    cell blended and ranked, ties in scan order."""
    blend = [(1.0 - alpha) * ind + alpha * cor for ind, cor in zip(face._ind, face._cor)]
    return heapq.nsmallest(face.config.multistart_count, range(len(blend)), key=blend.__getitem__)


def exhaustive_candidates(face, alpha):
    """``_FaceSearch._candidates`` with no bound: the lowest cells of every
    cell, less each with a lower 8-neighbour on the grid."""
    g = face.config.grid_points_per_axis
    value = {
        divmod(face._place[c], g): (1.0 - alpha) * face._ind[c] + alpha * face._cor[c]
        for c in lowest_cells(face, alpha)
    }
    return [
        [face._a_axis[i], face._b1_axis[j]]
        for (i, j), v in value.items()
        if not any(
            value.get((i + di, j + dj), math.inf) < v
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
        )
    ]


class TestSeedScan:
    @pytest.mark.parametrize(
        "t, alpha",
        [(0.38234, 0.035), (0.3, 0.13670131074022357), (0.42, 0.015353891482515016)],
    )
    def test_candidates_are_the_lowest_cells_by_the_oracle(self, t, alpha):
        # The candidates are the k lowest cells less each with a lower
        # 8-neighbour among them.  At t = 0.42 one has a lower neighbour
        # only on a diagonal.
        g, k = FAST.grid_points_per_axis, FAST.multistart_count
        cells = {
            (i, j): (oracle_ratio(a, a, b1, 1.0, t, alpha), [a, b1])
            for i, a in enumerate(sin2_axis(t, g, g))
            for j, b1 in enumerate(sin2_axis(1.0, g, g - 1))
            if a > 0.0 or 0.0 < b1 < 1.0
        }
        order = sorted(cells, key=lambda ij: cells[ij][0])
        assert cells[order[k - 1]][0] < cells[order[k]][0] - 1e-9  # no near tie at the cut
        lowest = order[:k]
        lower_neighbours = {
            (i, j): [
                n
                for n in lowest
                if max(abs(n[0] - i), abs(n[1] - j)) == 1
                and cells[n][0] < cells[i, j][0]
            ]
            for i, j in lowest
        }
        for ij in lowest:
            for n in lowest:
                if max(abs(n[0] - ij[0]), abs(n[1] - ij[1])) == 1:
                    assert abs(cells[n][0] - cells[ij][0]) > 1e-9  # no near tie
        got = _FaceSearch(t, FAST)._candidates(alpha)
        assert cells[lowest[0]][1] in got
        assert 1 <= len(got) < k
        assert sorted(got) == sorted(cells[ij][1] for ij in lowest if not lower_neighbours[ij])

    def test_axis_has_a_zero_and_leaves_out_the_point_mass(self):
        t = 0.3
        g = FAST.grid_points_per_axis
        face = _FaceSearch(t, FAST)
        places = [divmod(place, g) for place in face._place]
        a_values = {face._a_axis[i] for i, _ in places}
        assert min(a_values) == 0.0 and max(a_values) < t
        assert len(a_values) == g
        # Each cell's grid place names its values on the two sin^2 axes;
        # the cells are the grid in scan order but for a = 0 with b1 = 0 or 1.
        assert face._a_axis == sin2_axis(t, g, g)
        assert face._b1_axis == sin2_axis(1.0, g, g - 1)
        assert places == [(i, j) for i in range(g) for j in range(g) if i or 0 < j < g - 1]
        assert len(face._ind) == len(face._cor) == len(places)
        assert sorted(face._a_axis) == sorted(a_values)

    @pytest.mark.parametrize(
        "config",
        [SearchConfig(), FAST, SearchConfig(12, 1, 2), SearchConfig(2, 0, 10)],
        ids=["default", "fast", "12-1-2", "2-0-10"],
    )
    def test_bounded_scan_equals_the_exhaustive_one(self, config):
        # The scan blends exactly the runs whose bound is not above the
        # k-th lowest blend: those that can hold one of the lowest cells.
        # At (2, 0, 10) only 2 cells are live, fewer than the 10 asked
        # for, so every run is blended.
        for t in (1e-3, 0.05, 0.2, 0.3, 0.33, 0.375, 0.38234, 0.42, 0.49):
            face = _FaceSearch(t, config)
            n = len(face._ind)
            runs = [range(s, min(s + optimizer._RUN, n)) for s in range(0, n, optimizer._RUN)]
            for alpha in (0.0, 0.035, 0.3, 1.0):
                before = face.evaluations
                assert face._candidates(alpha) == exhaustive_candidates(face, alpha), (t, alpha)
                w = 1.0 - alpha
                blends = sorted(w * ind + alpha * cor for ind, cor in zip(face._ind, face._cor))
                k = config.multistart_count
                cut = blends[k - 1] if n >= k else math.inf
                reach = [
                    run
                    for run in runs
                    if w * min(face._ind[c] for c in run) + alpha * min(face._cor[c] for c in run)
                    <= cut
                ]
                assert face.evaluations - before == sum(map(len, reach)), (t, alpha)

    @pytest.mark.parametrize(
        "config, runs, groups",
        [(SearchConfig(), 512, 64), (SearchConfig(12, 1, 2), 18, 3), (SearchConfig(2, 0, 10), 1, 1)],
        ids=["default", "12-1-2", "2-0-10"],
    )
    def test_each_group_bounds_every_run_in_it(self, config, runs, groups):
        # Run r holds the cells from r * _RUN on and group q the runs from
        # q * _RUN on, the last of each possibly shorter: at (12, 1, 2) the
        # 142 live cells make 18 runs, the last of 6 cells, and 3 groups,
        # the last of 2 runs; at (2, 0, 10) the 2 live cells make one of each.
        R = optimizer._RUN
        for t in (1e-3, 0.3, 0.38234, 0.49):
            face = _FaceSearch(t, config)
            n = len(face._ind)
            want = [
                (min(face._ind[s : s + R]), min(face._cor[s : s + R])) for s in range(0, n, R)
            ]
            assert list(zip(*face._runs)) == want
            assert (len(want), len(face._groups[0]), len(face._groups[1])) == (runs, groups, groups)
            for q, (g_ind, g_cor) in enumerate(zip(*face._groups)):
                members = want[q * R : (q + 1) * R]
                assert members
                for r_ind, r_cor in members:
                    assert g_ind <= r_ind and g_cor <= r_cor
                    for alpha in (0.0, 0.035, 0.3, 1.0):
                        w = 1.0 - alpha
                        assert w * g_ind + alpha * g_cor <= w * r_ind + alpha * r_cor
                assert (g_ind, g_cor) == tuple(map(min, zip(*members)))

    def test_a_rescan_ranks_the_runs_of_popped_groups_only(self, monkeypatch):
        # The groups are heapified; a run enters the heap, one push, only
        # with the whole of its group, when that group pops.  Far fewer
        # groups pop than there are.
        pushed = []

        def heappush(heap, entry):
            pushed.append(entry)
            heapq.heappush(heap, entry)

        counting = types.SimpleNamespace(
            heapify=heapq.heapify, heappop=heapq.heappop, heappush=heappush
        )
        monkeypatch.setattr(optimizer, "heapq", counting)
        for t in (0.05, 0.3, 0.38234, 0.49):
            face = _FaceSearch(t, SearchConfig())
            for alpha in (0.0, 0.035, 0.3, 1.0):
                del pushed[:]
                face._candidates(alpha)
                assert pushed and all(is_run for _, _, is_run in pushed)
                assert len(pushed) % optimizer._RUN == 0
                assert len(pushed) < len(face._runs[0]) // 2, (t, alpha)

    def test_tie_at_the_cut_falls_to_the_earlier_run(self, monkeypatch):
        # Every cell is live, so scan index = grid place, and at alpha = 0
        # its blend is its ind/denom.  The 2nd lowest blend, 0.5, is
        # shared by cell 18 in run 2 and cell 9 in run 1; run 2 (bound
        # 0.25) is visited first, and run 1's bound equals the cut, so run
        # 1 must be blended too for the earlier cell to win the tie.
        t, config = 0.3, SearchConfig(12, 1, 2)
        g = config.grid_points_per_axis
        a_axis, b1_axis = sin2_axis(t, g, g), sin2_axis(1.0, g, g - 1)
        patched = {17: 0.25, 18: 0.5, 9: 0.5}

        def seed_cells(self):
            cells = range(g * g)
            return [patched.get(c, 2.0 + c) for c in cells], [0.0 for _ in cells], list(cells)

        monkeypatch.setattr(_FaceSearch, "_seed_cells", seed_cells)
        face = _FaceSearch(t, config)
        got = face._candidates(0.0)
        assert got == exhaustive_candidates(face, 0.0)
        assert got == [[a_axis[1], b1_axis[5]], [a_axis[0], b1_axis[9]]]
        assert face.evaluations == 16

    @pytest.mark.parametrize(
        "config",
        [SearchConfig(), FAST, SearchConfig(12, 1, 2), SearchConfig(96, 8)],
        ids=["default", "fast", "12-1-2", "96-8"],
    )
    def test_cells_are_the_line_objective_bit_for_bit(self, config):
        # The row build and the line objective each write the face formula
        # out.  (1 ind + 0 cor) / denom rounds to exactly ind / denom, so
        # through every live cell, along either coordinate, the line
        # objective at alpha = 0 must return the cell's ind/denom and at
        # alpha = 1 its cor/denom, to the last bit; at a cell left out it
        # must return +inf.
        g = config.grid_points_per_axis
        for t in (0.05, 0.3, 0.38234, 0.49):
            face = _FaceSearch(t, config)
            live = dict(zip(face._place, zip(face._ind, face._cor)))
            for i, a in enumerate(face._a_axis):
                for j, b1 in enumerate(face._b1_axis):
                    x = [a, b1]
                    want = live.get(i * g + j, (math.inf, math.inf))
                    for ci in range(2):
                        got = face._line(x, ci, 0.0)(x[ci]), face._line(x, ci, 1.0)(x[ci])
                        assert [v.hex() for v in got] == [v.hex() for v in want], (t, i, j, ci)


class TestBrentMin:
    @staticmethod
    def run(f, lo, hi, tol=1e-10, start=None):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        x, fx = _brent_min(counted, lo, hi, tol, start)
        assert all(lo <= c <= hi for c in calls)
        assert fx == f(x)
        return x, len(calls)

    def test_interior_quadratic_in_few_steps(self):
        x, calls = self.run(lambda v: (v - 0.3) ** 2 + 1.0, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-8)
        # Golden section takes 50 evaluations for this bracket and tolerance.
        assert calls <= 30

    @pytest.mark.parametrize("sign, edge", [(1.0, 0.2), (-1.0, 0.7)])
    def test_monotone_ends_at_the_edge(self, sign, edge):
        x, _ = self.run(lambda v: sign * v, 0.2, 0.7)
        assert x == pytest.approx(edge, abs=1e-7)

    def test_kink(self):
        c = 0.123456
        x, _ = self.run(lambda v: abs(v - c), 0.0, 1.0)
        assert x == pytest.approx(c, abs=1e-8)

    @pytest.mark.parametrize(
        "f, expect",
        [
            (lambda v: math.inf if v > 0.4 else (v - 0.35) ** 2, 0.35),
            (lambda v: math.inf if v < 0.6 else (v - 0.62) ** 2, 0.62),
            (lambda v: math.inf if v > 0.4 else -v, 0.4),
        ],
    )
    def test_window_with_infinite_values(self, f, expect):
        x, _ = self.run(f, 0.0, 1.0)
        assert x == pytest.approx(expect, abs=1e-7)
        assert math.isfinite(f(x))


    @pytest.mark.parametrize(
        "f, x0",
        [
            (lambda v: (v - 0.3) ** 2 + 1.0, 0.3),
            (lambda v: (v - 0.3) ** 2 + 1.0, 0.0),
            (lambda v: (v - 0.3) ** 2 + 1.0, 1.0),
            (lambda v: v, 0.0),
            (lambda v: -v, 1.0),
            (lambda v: math.inf if v > 0.4 else -v, 0.4),
            (lambda v: math.inf if v > 0.4 else (v - 0.35) ** 2, 0.39),
            (lambda v: math.inf if v < 0.6 else (v - 0.62) ** 2, 0.6),
        ],
    )
    def test_warm_start_never_returns_above_the_seed(self, f, x0):
        x, _ = self.run(f, 0.0, 1.0, start=(x0, f(x0)))
        assert f(x) <= f(x0)

    @pytest.mark.parametrize(
        "f, expect",
        [
            (lambda v: (v - 0.3) ** 2 + 1.0, 0.3),
            # A negated lower envelope of lines, as gamma_hat searches it.
            (lambda v: -min(1.0 + v, 1.3 - 2.0 * v), 0.1),
            (lambda v: v, 0.0),
        ],
    )
    def test_start_at_lo_finds_the_minimum(self, f, expect):
        x, _ = self.run(f, 0.0, 1.0, start=(0.0, f(0.0)))
        assert x == pytest.approx(expect, abs=1e-7)

    def test_warm_start_at_the_minimum_saves_calls(self):
        f = lambda v: (v - 0.3) ** 2 + 1.0
        _, cold = self.run(f, 0.0, 1.0)
        x, warm = self.run(f, 0.0, 1.0, start=(0.3, f(0.3)))
        assert x == pytest.approx(0.3, abs=1e-8)
        assert warm < cold


@pytest.fixture
def inner_searches(monkeypatch):
    """A report of every inner search made in the test: each seed scan and
    refinement (``_FaceSearch._refined``), its point scored as the search
    scores it, before any polish."""
    reports = []
    refined = _FaceSearch._refined

    def recorded(grid, alpha):
        before = grid.evaluations
        value, x = refined(grid, alpha)
        evaluations = grid.evaluations - before
        reports.append(InnerSearchReport(alpha, grid.t, *grid._scored(alpha, x), evaluations))
        return value, x

    monkeypatch.setattr(_FaceSearch, "_refined", recorded)
    return reports


@pytest.fixture
def line_calls(monkeypatch):
    """The point of every ``_FaceSearch._line`` objective call made in the test."""
    calls = []
    make_line = _FaceSearch._line

    def counted_line(grid, *args):
        line = make_line(grid, *args)

        def objective(u):
            calls.append(u)
            return line(u)

        return objective

    monkeypatch.setattr(_FaceSearch, "_line", counted_line)
    return calls


@pytest.fixture
def line_search_tols(monkeypatch):
    """The tolerance of every ``_brent_min`` call made in the test."""
    tols = []
    brent_min = optimizer._brent_min

    def recorded(f, lo, hi, tol, start=None):
        tols.append(tol)
        return brent_min(f, lo, hi, tol, start)

    monkeypatch.setattr(optimizer, "_brent_min", recorded)
    return tols


class TestEnvelopeArgmax:
    def test_two_lines_peak_at_their_kink(self):
        # 1 + x and 1.5 - 3x cross at x = 1/8, where both are 1.125.
        alpha, peak = _envelope_argmax([(1.0, 1.0), (1.5, -3.0)])
        assert alpha == 0.125
        assert peak == 1.125

    def test_parallel_lines(self):
        assert _envelope_argmax([(1.0, 0.5), (2.0, 0.5)]) == (1.0, 1.5)
        assert _envelope_argmax([(1.0, -0.5), (0.8, -0.5)]) == (0.0, 0.8)
        # A flat line meets a rising one at 1/4; every alpha above ties.
        assert _envelope_argmax([(1.0, 0.0), (0.5, 2.0)]) == (0.25, 1.0)

    def test_one_rising_line_peaks_at_one(self):
        assert _envelope_argmax([(0.9, 0.2)]) == (1.0, pytest.approx(1.1))

    def test_one_falling_line_peaks_at_zero(self):
        assert _envelope_argmax([(0.9, -0.2)]) == (0.0, 0.9)

    def test_crossing_outside_the_interval_is_ignored(self):
        # The lines cross at x = 2; on [0, 1] the lower one rises.
        assert _envelope_argmax([(0.0, 1.0), (4.0, -1.0)]) == (1.0, 1.0)


class TestInnerSearch:
    def test_reference_point_reproduced(self):
        rep = inner_inf(0.035, 0.38234)
        assert rep.min_ratio == pytest.approx(1.00000889, abs=1e-7)
        fam = rep.argmin
        for coord in (fam.a1, fam.a2, fam.b1):
            assert coord == pytest.approx(0.3300622, abs=1e-4)
        assert fam.b2 == pytest.approx(1.0, abs=1e-6)
        assert fam.beta == pytest.approx(0.1560676, abs=1e-4)

    def test_reported_value_matches_oracle_at_argmin(self):
        # Soundness: the reported minimum is the true objective value of
        # the reported family, per the independent formula.
        for alpha, t in ((0.0, 0.31), (0.035, 0.38234), (0.2, 0.42)):
            rep = inner_inf(alpha, t, FAST)
            fam = rep.argmin
            expect = oracle_ratio(fam.a1, fam.a2, fam.b1, fam.b2, t, alpha)
            assert rep.min_ratio == pytest.approx(expect, abs=1e-9)

    def test_at_least_as_good_as_random_oracle_search(self):
        rng = np.random.default_rng(SEED)
        for alpha, t in ((0.0, 0.38234), (0.035, 0.38234), (0.1, 0.45)):
            rep = inner_inf(alpha, t, FAST)
            sampled = oracle_best_over_samples(t, alpha, rng)
            assert rep.min_ratio <= sampled + 1e-9

    def test_more_effort_never_hurts(self):
        # Growing the grid and refinement budget may only lower the
        # reported minimum (up to 1e-12).
        coarse = inner_inf(0.035, 0.38234, FAST)
        base = SearchConfig()
        mid = inner_inf(0.035, 0.38234, base)
        fine = inner_inf(
            0.035, 0.38234, SearchConfig(grid_points_per_axis=96, refine_rounds=8)
        )
        assert mid.min_ratio <= coarse.min_ratio + 1e-12
        assert fine.min_ratio <= mid.min_ratio + 1e-12
        for alpha in (0.0, 0.05, 0.1):
            fine = inner_inf(alpha, 0.3, SearchConfig(96, 8))
            assert fine.min_ratio <= inner_inf(alpha, 0.3).min_ratio + 1e-12

    def test_sign_flips_across_baseline_threshold(self):
        assert inner_inf(0.0, 0.38).min_ratio > 1.0
        assert inner_inf(0.0, 0.383).min_ratio < 1.0

    @pytest.mark.parametrize("t", [-0.1, 0.0, 0.5, 0.6, 1.2])
    def test_rejects_t_outside_open_interval(self, t):
        with pytest.raises(EmptyFeasible, match="t must lie in"):
            inner_inf(0.035, t)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            inner_inf(1.5, 0.38)

    @pytest.mark.parametrize("t", [1e-16, 1e-20, 5e-324])
    def test_t_too_small_for_any_seed_cell_raises(self, t):
        # Every seed cell's denominator is below the 1e-14 floor here.
        message = f"at t={t!r} no seed cell has an entropy denominator above 1e-14"
        with pytest.raises(DegenerateDenominator, match=re.escape(message)):
            inner_inf(0.1, t)
        with pytest.raises(DegenerateDenominator, match=re.escape(message)):
            gamma_hat(t)

    @pytest.mark.parametrize("t", [0.05, 0.2])
    def test_point_mass_reported_at_small_t(self, t):
        # Refinement approaches it through low blocks of mean just below
        # t, whose high block and beta are arbitrary.
        point = ExtremeFamily(t, t, t, 1.0, 1.0)
        rep = inner_inf(0.0, t, FAST)
        assert rep.argmin == point
        assert rep.argmin.beta == 0.0
        assert rep.min_ratio == entropy_ratio(point, 0.0)

    def test_report_shape(self):
        rep = inner_inf(0.05, 0.4, FAST)
        payload = rep.to_json_dict()
        assert set(payload) == {
            "alpha",
            "t",
            "min_ratio",
            "argmin",
            "evaluations",
        }
        assert set(payload["argmin"]) == {"a1", "a2", "b1", "b2", "beta"}
        assert payload["evaluations"] > 0


# The alpha* that the four-number grid search reported at each t before
# the search moved to the face; with alpha = 0 and 0.3 they make 27 cases.
GRID_ALPHA_STAR = {
    0.1: 0.15221681554511565,
    0.2: 0.15053959419345664,
    0.25: 0.14643957515417974,
    0.3: 0.13670131074022357,
    0.33: 0.12416552923997978,
    0.36: 0.05884025745290816,
    0.38234: 0.035610638254853055,
    0.42: 0.015353891482515016,
    0.45: 0.006510794172830778,
}


def descend_all_four(t, alpha, x, cycles=40):
    """Cyclic Brent over (a1, a2, b1, b2) on the reference ratio.

    Each line search spans the whole feasible range of its coordinate,
    with the other three held; a block is sorted before it is scored.
    Cycles stop once one gains at most 1e-13.
    """

    def ratio(y):
        try:
            family = ExtremeFamily(*sorted(y[:2]), t, *sorted(y[2:]))
            return entropy_ratio(family, alpha)
        except (ValueError, DegenerateDenominator):
            return math.inf

    x = list(x)
    best = ratio(x)
    for _ in range(cycles):
        before = best
        for ci in range(4):
            other = x[ci ^ 1]
            lo, hi = (0.0, min(1.0, 2 * t - other)) if ci < 2 else (max(0.0, 2 * t - other), 1.0)
            start = (x[ci], best) if lo <= x[ci] <= hi else None

            def line(u, ci=ci):
                y = list(x)
                y[ci] = u
                return ratio(y)

            x[ci], best = _brent_min(line, lo, hi, 1e-10, start)
        if before - best <= 1e-13:
            break
    return best


class TestFace:
    """The search covers the face (a, a; b1, 1); these check that choice."""

    @pytest.mark.parametrize("t", sorted(GRID_ALPHA_STAR))
    def test_four_number_descent_finds_nothing_below_the_face(self, t):
        # From the seed (0, 0.02 t, 0.1, 0.9) the descent reaches the small-a
        # basin at t = 0.3 that the four-number grid missed by 2.9e-4.
        for alpha in (0.0, GRID_ALPHA_STAR[t], 0.3):
            rep = inner_inf(alpha, t)
            fam = rep.argmin
            seeds = [
                (fam.a1, fam.a2, fam.b1, fam.b2),
                (0.3 * t, 0.9 * t, 0.5, 0.8),
                (0.05 * t, 0.6 * t, 0.15, 0.95),
                (0.0, 0.02 * t, 0.1, 0.9),
                (0.9 * t, t, 0.9 * t, 0.9),
            ]
            found = min(descend_all_four(t, alpha, seed) for seed in seeds)
            assert found >= rep.min_ratio - 1e-9, (t, alpha, found, rep.min_ratio)

    @pytest.mark.parametrize(
        "t, alpha, probe",
        [
            (0.25, 0.14643957515417974, 1.2207331592),
            (0.3, 0.13670131074022357, 1.1341243042),
            (0.33, 0.12416552923997978, 1.0854602612),
        ],
    )
    def test_small_a_basin_is_found(self, t, alpha, probe):
        # Each probe is a face minimum at a < 0.02, which the four-number
        # grid missed, by up to 2.9e-4 at t = 0.3, inside its first cell.
        assert inner_inf(alpha, t).min_ratio <= probe + 1e-10

    def test_unblended_threshold_is_the_golden_section_point(self):
        # inner_inf(0, t) reads 1 - 1.618 (t - G) near G = (3 - sqrt 5) / 2.
        below = inner_inf(0.0, BASELINE_THRESHOLD - 1e-12, FAST).min_ratio
        above = inner_inf(0.0, BASELINE_THRESHOLD + 1e-12, FAST).min_ratio
        assert below > 1.0 > above


# The face's threshold, the t at which the maximum over alpha of the
# face minimum is 1: a 40-digit max-min put it at 0.38234553335 +- 1.2e-11.
T_STAR_FACE = 0.38234553335


class TestFaceThreshold:
    def test_decimal_oracle_matches_the_reference_ratio(self):
        rng = np.random.default_rng(SEED)
        points = []
        for _ in range(40):
            t = rng.uniform(0.05, 0.49)
            alpha = rng.uniform(0.0, 0.3)
            a, b1 = rng.uniform(0.0, t), rng.uniform(0.0, 1.0)
            points += [(a, b1, t, alpha), (0.0, b1, t, alpha), (a, 0.0, t, alpha), (a, 1.0, t, alpha)]
            # Near a = 0, where the small-a basins lie; the search visits
            # a ~ 1.3e-6 at t = 0.25.  A float h(a) that rounded 1 - a
            # before its log was off here by up to 5e-11.
            for small in (0.01 * t, 1e-6 * t):
                points += [(small, b1, t, alpha), (small, 0.0, t, alpha), (small, 1.0, t, alpha)]
        for a, b1, t, alpha in points:
            got = entropy_ratio(ExtremeFamily(a, a, t, b1, 1.0), alpha)
            want = float(decimal_face_ratio(a, b1, t, alpha))
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_threshold_is_frozen(self):
        # The bounds at t* -+ 1e-10 clear 1 by +1.9e-10 and -1.4e-10.
        below = gamma_hat(T_STAR_FACE - 1e-10)
        above = gamma_hat(T_STAR_FACE + 1e-10)
        assert below.gamma_hat_lower > 1.0 > above.gamma_hat_lower
        # The decimal oracle agrees on which side of 1 each argmin lies.
        for cert, side in ((below, 1), (above, -1)):
            fam = cert.argmin
            assert fam.a1 == fam.a2 and fam.b2 == 1.0
            assert side * (decimal_face_ratio(fam.a1, fam.b1, cert.t, cert.alpha_star) - 1) > 0


def decimal_diagonal_ratio(a, t, alpha):
    """R_diag(a), the face's ratio on its diagonal a = b1 in closed form
    (module docstring of ``optimizer``), in 50-digit decimal arithmetic.
    Each argument is a Decimal, or a float or decimal string read exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, t, alpha = map(decimal.Decimal, (a, t, alpha))
        one = decimal.Decimal(1)
        ln2 = decimal.Decimal(2).ln()

        def h(x):
            return -(x * x.ln() + (one - x) * (one - x).ln()) / ln2

        fc = sorted((a, one / 2, min(2 * a, one)))[1]
        return (
            (one - alpha) * (one - t) / (one - a) * h(2 * a - a * a) / h(a)
            + alpha * (one + a - 2 * t) / (one - t) * h(fc) / h(a)
        )


def decimal_diagonal_minimum(t, alpha):
    """The least :func:`decimal_diagonal_ratio` over a in (0, t), with its a
    and beta, in 50 digits: a scan of 400 points, then golden section
    between the neighbours of the least of them.  t and alpha are decimal
    strings or floats, read exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        t, alpha, one = decimal.Decimal(t), decimal.Decimal(alpha), decimal.Decimal(1)

        def r_diag(a):
            return decimal_diagonal_ratio(a, t, alpha)

        step = t / 400
        k = min(range(1, 400), key=lambda k: r_diag(k * step))
        lo, hi = (k - 1) * step, (k + 1) * step
        g = (decimal.Decimal(5).sqrt() - one) / 2
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
        rc, rd = r_diag(c), r_diag(d)
        while hi - lo > decimal.Decimal("1e-24"):
            if rc < rd:
                hi, d, rd = d, c, rc
                c = hi - g * (hi - lo)
                rc = r_diag(c)
            else:
                lo, c, rc = c, d, rd
                d = lo + g * (hi - lo)
                rd = r_diag(d)
        a = (lo + hi) / 2
        return r_diag(a), a, 2 * (t - a) / (one - a)


def decimal_face_newton(t, alpha, a, b1):
    """The critical point of the face ratio R(a, b1) at (t, alpha) that
    Newton's method reaches from (a, b1), with R there, in 50-digit
    decimal arithmetic: central differences at step 1e-20 for the
    gradient and 1e-12 for the Hessian, until a step moves the point by
    less than 1e-24.  The float arguments convert exactly."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, b1 = decimal.Decimal(a), decimal.Decimal(b1)
        g, s = decimal.Decimal("1e-20"), decimal.Decimal("1e-12")

        def r(a, b1):
            return decimal_face_ratio(a, b1, t, alpha, prec=50)

        for _ in range(8):
            ga = (r(a + g, b1) - r(a - g, b1)) / (2 * g)
            gb = (r(a, b1 + g) - r(a, b1 - g)) / (2 * g)
            mid = 2 * r(a, b1)
            haa = (r(a + s, b1) - mid + r(a - s, b1)) / (s * s)
            hbb = (r(a, b1 + s) - mid + r(a, b1 - s)) / (s * s)
            hab = (
                r(a + s, b1 + s) - r(a + s, b1 - s) - r(a - s, b1 + s) + r(a - s, b1 - s)
            ) / (4 * s * s)
            det = haa * hbb - hab * hab
            da, db = (hbb * ga - hab * gb) / det, (haa * gb - hab * ga) / det
            a, b1 = a - da, b1 - db
            if abs(da) + abs(db) < decimal.Decimal("1e-24"):
                return a, b1, r(a, b1)
    raise AssertionError(f"Newton did not converge at t = {t}, alpha = {alpha}")


class TestDiagonalClosedForm:
    """The face's one-variable form on a = b1 reproduces the reference point."""

    @pytest.mark.parametrize(
        "a, t, alpha",
        [(0.01, 0.38234, 0.035), (0.2, 0.38234, 0.035), (0.33, 0.38234, 0.035), (0.1, 0.3, 0.2)],
    )
    def test_is_the_face_ratio_on_the_diagonal(self, a, t, alpha):
        # fc(a) is 2a below a = 1/4 and 1/2 above it.
        got = decimal_diagonal_ratio(a, t, alpha)
        assert abs(got - decimal_face_ratio(a, a, t, alpha)) < decimal.Decimal("1e-26")

    def test_reference_point_in_40_digits(self):
        value, a, beta = decimal_diagonal_minimum(str(REFERENCE_T), str(REFERENCE_ALPHA))
        assert abs(value - decimal.Decimal("1.000008892937076088")) < decimal.Decimal("1e-18")
        assert abs(a - decimal.Decimal("0.330062244237798946")) < decimal.Decimal("1e-18")
        assert abs(beta - decimal.Decimal("0.1560675")) < decimal.Decimal("5e-8")
        assert abs(value - decimal.Decimal(str(optimizer.REFERENCE_RATIO))) < decimal.Decimal("5e-9")
        # The search at the verify-paper --grid 96 --refine-rounds 8 config
        # reads the same minimum, at a family on the diagonal.
        cert = gamma_hat(REFERENCE_T, REFERENCE_ALPHA, SearchConfig(96, 8))
        assert abs(decimal.Decimal(cert.gamma_hat_lower) - value) <= decimal.Decimal("1e-15")
        fam = cert.argmin
        assert fam.a1 == fam.a2 and fam.b2 == 1.0
        assert abs(fam.a1 - float(a)) < 1e-6 and abs(fam.b1 - float(a)) < 1e-6

    @pytest.mark.parametrize("t", [0.375, 0.38, REFERENCE_T])
    def test_face_critical_point_lies_on_the_diagonal(self, t):
        # Newton over the whole face, from the search's argmin at alpha*,
        # lands on a = b1, at R_diag's 1-D minimum: there the two-variable
        # face minimum is the one-variable closed form's.
        cert = gamma_hat(t)
        fam = cert.argmin
        assert fam.a1 == fam.a2 and fam.b2 == 1.0
        a, b1, value = decimal_face_newton(t, cert.alpha_star, fam.a1, fam.b1)
        assert abs(a - b1) <= decimal.Decimal("1e-20")
        least = decimal_diagonal_minimum(t, cert.alpha_star)[0]
        assert abs(value - least) <= decimal.Decimal("1e-25")


def refine_the_lowest_cells(face, alpha):
    """The inner minimum with no seed filter: ``_FaceSearch._refine`` and
    ``_polish`` from every one of the ``multistart_count`` lowest seed
    cells, then the search's reference scoring, the point mass at t
    included."""
    g = face.config.grid_points_per_axis
    places = (divmod(face._place[c], g) for c in lowest_cells(face, alpha))
    best = face._refine(alpha, [[face._a_axis[i], face._b1_axis[j]] for i, j in places])
    _, (a, b1) = face._polish(alpha, *best)
    t = face.t
    return min(
        entropy_ratio(ExtremeFamily(a, a, t, b1, 1.0), alpha),
        entropy_ratio(ExtremeFamily(t, t, t, 1.0, 1.0), alpha),
    )


class TestSeedFilter:
    @pytest.mark.parametrize("config", [SearchConfig(), FAST], ids=["default", "fast"])
    def test_filtering_starts_loses_nothing(self, config):
        # A seed cell with a lower neighbour lies on the slope of a basin
        # that a lower cell starts in.  Worst case measured: the two
        # searches under 6e-16 apart.
        for t in sorted(GRID_ALPHA_STAR):
            for alpha in (0.0, GRID_ALPHA_STAR[t], 0.3):
                face = _FaceSearch(t, config)
                filtered = face.inner_min(alpha).min_ratio
                every = refine_the_lowest_cells(face, alpha)
                assert filtered == pytest.approx(every, abs=1e-12), (t, alpha)


PHI = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_C = (3.0 - math.sqrt(5.0)) / 2.0


def alpha_zero_floor(t):
    """phi (1 - t), the least ratio at alpha = 0 over every law of mean t."""
    return PHI * (1.0 - t)


def alpha_zero_slope(t):
    """s(t) = (2u - 1) / (u h(c)) - u with u = phi (1 - t): the alpha-slope of (c, c; c, 1)."""
    u = alpha_zero_floor(t)
    return (2.0 * u - 1.0) / (u * binary_entropy(GOLDEN_C)) - u


# Where s(t) falls to 0: past it the best alpha is 0.
ALPHA_ZERO_FROM = 1.0 - (1.0 - math.sqrt(1.0 - binary_entropy(GOLDEN_C))) / (
    PHI * binary_entropy(GOLDEN_C)
)


class TestAlphaZero:
    """Known answers at alpha = 0, where only the marginal law of p counts.

    The floor phi (1 - t) rests on the inequality
    h(xy) >= (phi / 2) (x h(y) + y h(x)) of Alweiss, Huang and Sellke,
    cited in ROADMAP item B and not checked in this repository.  For
    t >= c = (3 - sqrt 5) / 2 the face family (c, c; c, 1) meets it,
    and its ratio rises in alpha with slope s(t), which is 0 at
    t0 ~ 0.4855924.
    """

    def test_search_stays_on_or_above_the_floor(self):
        ts = np.linspace(0.005, 0.49, 40).tolist()
        for t in ts:
            floor = alpha_zero_floor(t)
            assert inner_inf(0.0, t).min_ratio >= floor - 4 * math.ulp(floor), t
        assert sum(t >= GOLDEN_C for t in ts) >= 8

    def test_search_meets_the_floor_from_c(self):
        for t in np.linspace(GOLDEN_C, 0.49, 12).tolist():
            assert inner_inf(0.0, t).min_ratio == pytest.approx(alpha_zero_floor(t), abs=1e-12), t

    def test_golden_family_line(self):
        for t in np.linspace(GOLDEN_C, 0.5, 202)[:-1].tolist():
            family = ExtremeFamily(GOLDEN_C, GOLDEN_C, t, GOLDEN_C, 1.0)
            r0 = entropy_ratio(family, 0.0)
            floor = alpha_zero_floor(t)
            assert abs(r0 - floor) <= 4 * math.ulp(floor), t
            assert entropy_ratio(family, 1.0) - r0 == pytest.approx(alpha_zero_slope(t), abs=2e-15), t

    def test_best_alpha_is_zero_past_t0(self):
        assert ALPHA_ZERO_FROM == pytest.approx(0.4855924, abs=1e-7)
        for t in (ALPHA_ZERO_FROM + 1e-3, 0.49):
            cert = gamma_hat(t)
            assert cert.alpha_star == 0.0, t
            assert cert.gamma_hat_lower == pytest.approx(alpha_zero_floor(t), abs=1e-12), t
        assert gamma_hat(ALPHA_ZERO_FROM - 1e-3).alpha_star > 0.0

    @pytest.mark.parametrize(
        "config",
        [SearchConfig(), FAST, SearchConfig(16, 2, 4), SearchConfig(12, 1, 2), SearchConfig(8, 1, 2), SearchConfig(4, 1, 2), SearchConfig(2, 0, 1)],
        ids=lambda c: "-".join(map(str, c)),
    )
    def test_bound_stays_on_or_above_the_floor_from_c(self, config):
        # Alpha = 0 is always evaluated, and the floor bounds its score, so
        # the reported best over the alphas evaluated is never below it.
        # Reporting alpha*'s score after its polish had pushed it below
        # another's read 3.2e-7 under the floor at (16, 2, 4), t = 0.49.
        for t in [*np.linspace(GOLDEN_C, 0.499, 12).tolist(), 0.49]:
            floor = alpha_zero_floor(t)
            assert gamma_hat(t, "auto", config).gamma_hat_lower >= floor - 4 * math.ulp(floor), t

    @pytest.mark.parametrize("t", [GOLDEN_C, REFERENCE_T, 0.45])
    def test_search_slope_at_zero(self, t):
        slope = (inner_inf(1e-6, t).min_ratio - inner_inf(0.0, t).min_ratio) / 1e-6
        assert slope == pytest.approx(alpha_zero_slope(t), abs=1e-5)


class TestAlphaOne:
    """At alpha = 1 the minimum is 0, on the families (0, 0; b1, 1) (``_best_alpha``)."""

    @pytest.mark.parametrize("config", [FAST, SearchConfig(), SearchConfig(12, 1, 2)])
    def test_grid_search_finds_zero_on_the_lemma_families(self, config):
        # The face search itself: inner_inf(1.0, ...) answers in closed form.
        for t in (0.05, 0.2, 0.3, 0.38234, 0.45):
            rep = _FaceSearch(t, config).inner_min(1.0)
            fam = rep.argmin
            assert rep.min_ratio == 0.0
            assert (fam.a1, fam.a2, fam.b2) == (0.0, 0.0, 1.0) and 0.0 < fam.b1 < 1.0

    @pytest.mark.parametrize("t", [0.01, 0.2, 0.38234, 0.499])
    def test_closed_form_family_is_lowest_at_alpha_zero(self, t):
        fam, terms = _alpha_one_family(t)
        assert (fam.a1, fam.a2, fam.t, fam.b2) == (0.0, 0.0, t, 1.0)
        assert entropy_ratio(fam, 1.0) == 0.0
        r0 = entropy_ratio(fam, 0.0)
        for b in np.linspace(0.0, 1.0, 4001)[1:-1]:
            assert r0 <= entropy_ratio(ExtremeFamily(0.0, 0.0, t, b, 1.0), 0.0)

    def test_b1_search_evaluates_only_inside_the_open_interval(self, monkeypatch):
        # At b1 = 0 or 1 the family carries no entropy at all; Brent never
        # asks there.  The search runs once per process, so it is cleared
        # to be watched, and again after, so that no later test sees the
        # b1 of a watched search.
        points = []

        def recorded(f, lo, hi, tol, start=None):
            def g(x):
                points.append(x)
                return f(x)

            return _brent_min(g, lo, hi, tol, start)

        monkeypatch.setattr(optimizer, "_brent_min", recorded)
        _alpha_one_b1.cache_clear()
        try:
            b1 = _alpha_one_b1()
            for t in (0.05, 0.2, 0.3, 0.38234, 0.49):
                assert _alpha_one_family(t)[0].b1 == b1
        finally:
            _alpha_one_b1.cache_clear()
        assert b1 in points
        assert all(0.0 < x < 1.0 for x in points)
        assert _alpha_one_b1() == b1

    @pytest.mark.parametrize("t", [0.05, 0.2, 0.3, 0.38234, 0.49])
    def test_one_b1_is_the_best_at_every_t(self, t):
        # The b1 minimising the ratio at alpha = 0 does not depend on t:
        # a search per t on the reference ratio lands within 1e-8 of it.
        def ratio_at_zero(b1):
            return entropy_ratio(ExtremeFamily(0.0, 0.0, t, b1, 1.0), 0.0)

        per_t, _ = _brent_min(ratio_at_zero, 0.0, 1.0, _PARAM_TOL)
        assert _alpha_one_b1() == pytest.approx(per_t, abs=1e-8)
        assert _alpha_one_family(t)[0] == ExtremeFamily(0.0, 0.0, t, _alpha_one_b1(), 1.0)

    @pytest.mark.parametrize("t", [2e-14, 2.8e-14])
    def test_golden_b1_stands_in_where_the_best_one_is_degenerate(self, t):
        # b1* ~0.0727 has denominator ~0.351 t, the golden point ~0.694 t:
        # between the two cuts only the golden point's clears 1e-14.
        with pytest.raises(DegenerateDenominator):
            entropy_ratio(ExtremeFamily(0.0, 0.0, t, _alpha_one_b1(), 1.0), 1.0)
        golden = (3.0 - math.sqrt(5.0)) / 2.0
        assert _alpha_one_family(t)[0] == ExtremeFamily(0.0, 0.0, t, golden, 1.0)

    @pytest.mark.parametrize("t", [1e-13, 5e-14, 1e-14, 3e-15, 1e-15, 5e-16, 2e-16])
    def test_tiny_t_has_one_cut(self, t):
        # The family (0, 0; b1, 1) has denominator t h(b1) / (1 + b1), at
        # most t log2 of the golden ratio, so below the cut none clears the
        # 1e-14 floor.  "auto" needs one whatever the slope at alpha = 0.
        cut = 1e-14 / math.log2((1.0 + math.sqrt(5.0)) / 2.0)
        if t > cut:
            cert = gamma_hat(t)
            assert cert.gamma_hat_lower == entropy_ratio(cert.argmin, cert.alpha_star)
            return
        message = f"at t={t!r} no family (0, 0; b1, 1) has an entropy denominator above 1e-14"
        with pytest.raises(DegenerateDenominator, match=re.escape(message)):
            gamma_hat(t)
        with pytest.raises(DegenerateDenominator, match=re.escape(message)):
            inner_inf(1.0, t)

    @pytest.mark.parametrize("t", [0.05, 0.3, 0.38234, 0.49])
    def test_auto_search_runs_no_inner_search_at_one(self, t, inner_searches):
        gamma_hat(t, "auto", FAST)
        assert inner_searches
        assert all(rep.alpha != 1.0 for rep in inner_searches)


@pytest.fixture
def oracle_passes(monkeypatch):
    """Counts the oracle passes each family gets: every pass of
    ``ratio_terms`` lists the family's atoms once, and nothing else does,
    however the search holds the oracle."""
    passes = collections.Counter()
    atoms = ExtremeFamily.atoms

    def counted(family):
        passes[family] += 1
        return atoms(family)

    monkeypatch.setattr(ExtremeFamily, "atoms", counted)
    return passes


class TestOraclePasses:
    """A search passes each family it scores through the oracle once."""

    @pytest.mark.parametrize("t", [0.3, 0.38234])
    def test_auto_search_passes_each_family_once(self, t, oracle_passes):
        top = ExtremeFamily(0.0, 0.0, t, _alpha_one_b1(), 1.0)
        cert = gamma_hat(t, "auto")
        # The slope at alpha = 0 is positive, so the alpha = 1 family was
        # scored at alpha = 1 as well as checked.
        assert cert.alpha_star > 0.0
        assert oracle_passes[top] == 1
        assert oracle_passes[ExtremeFamily(t, t, t, 1.0, 1.0)] == 1
        assert cert.argmin in oracle_passes
        assert len(oracle_passes) > 3
        assert set(oracle_passes.values()) == {1}

    @pytest.mark.parametrize("alpha", [0.035, 1.0])
    def test_pinned_search_passes_each_family_once(self, alpha, oracle_passes):
        rep = inner_inf(alpha, REFERENCE_T)
        assert rep.argmin in oracle_passes
        assert set(oracle_passes.values()) == {1}


class TestPinnedAlphaOne:
    """A pinned alpha = 1 reports the closed-form family, on no grid."""

    @pytest.mark.parametrize("t", [0.05, 0.2, 0.3, 0.38234, 0.45])
    def test_argmin_does_not_depend_on_the_config(self, t, inner_searches):
        family = _alpha_one_family(t)[0]
        for config in (FAST, SearchConfig(), SearchConfig(12, 1, 2)):
            rep = inner_inf(1.0, t, config)
            cert = gamma_hat(t, 1.0, config)
            assert (rep.argmin, rep.min_ratio, rep.evaluations) == (family, 0.0, 0)
            assert (cert.argmin, cert.gamma_hat_lower, cert.evaluations) == (family, 0.0, 0)
            assert cert.alpha_star == 1.0
        assert not inner_searches

    @pytest.mark.parametrize("t", [-0.1, 0.0, 0.5, float("nan")])
    def test_rejects_t_outside_open_interval(self, t):
        with pytest.raises(EmptyFeasible, match="t must lie in"):
            inner_inf(1.0, t)
        with pytest.raises(EmptyFeasible, match="t must lie in"):
            gamma_hat(t, 1.0)


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.grid_points_per_axis == 64
        assert cfg.refine_rounds == 6
        assert cfg.multistart_count == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(grid_points_per_axis=1),
            dict(refine_rounds=-1),
            dict(multistart_count=0),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_points_per_axis", 64.0),
            ("refine_rounds", 2.5),
            ("multistart_count", 1.5),
            ("grid_points_per_axis", "64"),
        ],
    )
    def test_rejects_non_integer_knobs(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: value})

    def test_grid_cap_is_checked_when_built(self):
        # 1024 points per axis is 2^20 seed cells, the most a search allows.
        assert SearchConfig(grid_points_per_axis=1024).grid_points_per_axis == 1024
        with pytest.raises(GridTooLarge, match="1025 points per axis has 1050625 seed cells"):
            SearchConfig(grid_points_per_axis=1025)

    def test_accepts_numpy_integers_as_python_ints(self):
        cfg = SearchConfig(np.int64(32), np.int32(3), np.uint8(8))
        assert cfg == FAST
        assert all(type(v) is int for v in cfg.to_json_dict().values())


class TestGammaHat:
    def test_auto_sweep_at_reference_t(self):
        cert = gamma_hat(0.38234)
        assert cert.gamma_hat_lower >= 1.0000089 - 1e-5
        assert 0.02 <= cert.alpha_star <= 0.06
        assert cert.certifies

    def test_pinned_alpha_is_not_moved(self):
        cert = gamma_hat(0.38234, 0.035, FAST)
        assert cert.alpha_star == 0.035
        assert cert.gamma_hat_lower == pytest.approx(1.0000089, abs=1e-5)

    def test_small_t_certifies(self):
        cert = gamma_hat(0.3, alphas="auto", config=FAST)
        assert cert.gamma_hat_lower > 1.0

    def test_large_t_fails_to_certify(self):
        cert = gamma_hat(0.49, config=FAST)
        assert cert.gamma_hat_lower < 1.0
        assert not cert.certifies
        # The bound falls with alpha here; the search starts at 0 and stays.
        assert cert.alpha_star == 0.0

    def test_sweep_at_least_as_good_as_each_grid_point(self):
        cfg = FAST
        cert = gamma_hat(0.38234, config=cfg)
        for alpha in (0.0, 0.0125, 0.025, 0.0375, 0.05, 0.0625, 0.075, 0.0875, 0.1):
            assert cert.gamma_hat_lower >= inner_inf(alpha, 0.38234, cfg).min_ratio - 1e-12

    @pytest.mark.parametrize("t, alpha", [(0.2, 0.125), (0.2, 0.15), (0.3, 0.125)])
    def test_search_reaches_weights_above_0_1(self, t, alpha):
        # At small t the best weight is ~0.14, above 0.1.
        cert = gamma_hat(t, config=FAST)
        assert cert.gamma_hat_lower >= inner_inf(alpha, t, FAST).min_ratio - 1e-12

    def test_few_inner_searches_near_the_threshold(self, inner_searches):
        # The search over alpha converges in 6 inner searches here.
        gamma_hat(0.38234, config=FAST)
        assert len(inner_searches) <= 8

    @pytest.mark.parametrize("t", [0.375, 0.38, 0.38234])
    def test_at_most_eight_inner_searches_at_default_settings(self, t, inner_searches):
        cert = gamma_hat(t)
        assert len(inner_searches) <= 8
        assert 0.0 <= cert.alpha_gap <= 1e-9

    @pytest.mark.parametrize("t", [0.21, 0.3])
    def test_alpha_gap_is_never_negative(self, t):
        # On a two-point grid the envelope's peak rounds one ulp below the
        # bound at these t, a gap of -2.2e-16 before it was clipped at 0.
        assert gamma_hat(t, "auto", SearchConfig(2, 6, 16)).alpha_gap >= 0.0

    def test_no_family_found_contradicts_the_bound(self, inner_searches):
        # At t = 0.3 the minimum over alpha has a kink at alpha*: the point
        # mass at t meets a family with a ~ 0.0045.
        cert = gamma_hat(0.3)
        families = {rep.argmin for rep in inner_searches}
        assert len(families) > 1
        for family in families:
            assert cert.gamma_hat_lower <= entropy_ratio(family, cert.alpha_star)
        assert cert.gamma_hat_lower == entropy_ratio(cert.argmin, cert.alpha_star)

    @pytest.mark.parametrize("config", [SearchConfig(), FAST, SearchConfig(12, 1, 2)], ids=["default", "fast", "tiny"])
    def test_only_the_chosen_alpha_is_polished(self, config, monkeypatch):
        # Refined families steer alpha; the nested polish runs at the alpha
        # then best, scored over every family found so far, and again at
        # the new best if a polished family lowers the old one below it,
        # until the best is one polished: that alpha is reported.  The
        # default and FAST searches polish once at these t.  Polishing
        # every alpha tried ran it 5 times at t = 0.38234.
        refined, scored, polished = [], [], []
        face = _FaceSearch
        real_refined, real_scored, real_polish = face._refined, face._scored, face._polish

        def record_refined(grid, alpha):
            refined.append(alpha)
            return real_refined(grid, alpha)

        def record_scored(grid, alpha, x):
            out = real_scored(grid, alpha, x)
            scored.append(out[1])
            return out

        def record_polish(grid, alpha, *args):
            families = [_alpha_one_family(grid.t)[0], *scored]
            best = max(refined, key=lambda a: min(entropy_ratio(f, a) for f in families))
            polished.append((alpha, best))
            return real_polish(grid, alpha, *args)

        monkeypatch.setattr(face, "_refined", record_refined)
        monkeypatch.setattr(face, "_scored", record_scored)
        monkeypatch.setattr(face, "_polish", record_polish)
        counts = []
        for t in (0.05, 0.3, 0.38234, 0.49):
            for log in (refined, scored, polished):
                log.clear()
            cert = gamma_hat(t, "auto", config)
            alphas = [alpha for alpha, _ in polished]
            assert all(alpha == best for alpha, best in polished), t
            assert len(set(alphas)) == len(alphas) and cert.alpha_star in alphas, t
            # The bound is the best score over the alphas evaluated.
            families = [_alpha_one_family(t)[0], *scored]
            assert cert.gamma_hat_lower == max(min(entropy_ratio(f, a) for f in families) for a in refined), t
            counts.append(len(alphas))
        # On the tiny grid the first polish at t = 0.38234 and at 0.49
        # lowers its alpha below another, which is polished in turn.
        assert counts == ([1, 1, 2, 2] if config == SearchConfig(12, 1, 2) else [1, 1, 1, 1])

    @pytest.mark.parametrize(
        "config",
        [SearchConfig(), FAST, SearchConfig(12, 1, 2), SearchConfig(32, 1, 8), SearchConfig(16, 0, 4)],
        ids=["default", "fast", "tiny", "one-round", "no-rounds"],
    )
    def test_bound_is_no_higher_than_the_inner_search_at_alpha_star(self, config):
        # The family that inner_inf reports at alpha* is the one the search
        # polished there, so it is among those the bound is scored over.
        for t in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.33, 0.36, 0.375, 0.38, 0.38234, 0.4, 0.45, 0.49):
            cert = gamma_hat(t, "auto", config)
            assert cert.gamma_hat_lower <= inner_inf(cert.alpha_star, t, config).min_ratio, t

    def test_refinement_starts_each_line_search_at_the_window_centre(self, line_calls):
        # These four sweeps make 4,008 objective calls.  Started at the
        # golden point of each window instead, their line searches made
        # 4,908.  One sweep alone moves by 5-25 % with the last bits of
        # the objective, enough to swap which start is cheaper.
        for t in SPREAD_T:
            gamma_hat(t)
        assert len(line_calls) < 4_450

    def test_early_rounds_stop_at_a_fraction_of_their_window(self, line_calls, line_search_tols):
        # Only the last round polishes to _PARAM_TOL; each earlier one
        # just hands a start point to the next, narrower window.
        cfg = SearchConfig()
        for t in SPREAD_T:
            gamma_hat(t, config=cfg)
        window = 1.0 / (cfg.grid_points_per_axis - 1)
        tols = {_PARAM_TOL}
        for _ in range(cfg.refine_rounds - 1):
            tols.add(_ROUND_TOL_FRACTION * window)
            window *= 0.35
        assert set(line_search_tols) == tols
        # Every round at _PARAM_TOL made 6,528 calls here, against 4,008.
        assert len(line_calls) < 5_300

    def test_starts_that_share_a_window_are_refined_once(self, line_calls):
        # Only seed cells with no lower neighbour start, 1 or 2 per inner
        # search, and this sweep makes 536 calls.  All 16 of the lowest
        # cells, each refined through all 6 rounds, made 6,784.  The bound
        # also holds the polish to the one alpha reported: polishing every
        # alpha tried made 1,370.
        gamma_hat(0.38234)
        assert len(line_calls) < 650

    def test_one_round_refines_to_the_full_tolerance(self, line_search_tols):
        # Its only round is the last, so it refines to _PARAM_TOL as every
        # round once did.  These are the values of that refinement, which
        # steers alpha, and of the nested polish at the alpha chosen.
        cert = gamma_hat(0.38234, config=SearchConfig(32, 1, 8))
        assert set(line_search_tols) == {_PARAM_TOL}
        assert cert.gamma_hat_lower == pytest.approx(1.0000090177977285, abs=1e-12)
        assert cert.alpha_star == pytest.approx(0.03556789948085713, abs=1e-12)
        fam = cert.argmin
        got = (fam.a1, fam.a2, fam.b1, fam.b2)
        want = (0.3294952845825637, 0.3294952845825637, 0.32949525524403145, 1.0)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "t, bound",
        [
            (0.375, 1.0119749238290732),
            (0.38, 1.0038231156520951),
            (0.382, 1.0005631658568181),
            (0.38234, 1.0000090184263946),
        ],
    )
    def test_default_ladder_bounds_hold(self, t, bound):
        # The bounds of every round refined to _PARAM_TOL.
        assert gamma_hat(t).gamma_hat_lower == pytest.approx(bound, abs=1e-9)

    def test_repeat_call_is_identical(self):
        first = gamma_hat(0.38234, config=FAST).to_json_dict()
        second = gamma_hat(0.38234, config=FAST).to_json_dict()
        first.pop("wall_time_ms")
        second.pop("wall_time_ms")
        assert first == second

    def test_rejects_bad_alpha_argument(self):
        with pytest.raises(ValueError):
            gamma_hat(0.38, alphas="garbage")
        for pinned in (1.5, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                gamma_hat(0.38, alphas=pinned)

    def test_certificate_shape(self):
        cert = gamma_hat(0.4, 0.05, FAST)
        payload = cert.to_json_dict()
        assert set(payload) == {
            "t",
            "alpha_star",
            "gamma_hat_lower",
            "argmin",
            "evaluations",
            "config",
            "alpha_gap",
            "wall_time_ms",
        }
        assert payload["config"]["grid_points_per_axis"] == 32
        assert payload["alpha_gap"] is None
        assert payload["wall_time_ms"] > 0


class TestFindTmax:
    def test_bracket_must_straddle(self):
        with pytest.raises(BracketFailure, match="low endpoint"):
            find_tmax(FAST, bracket=(0.45, 0.49))
        with pytest.raises(BracketFailure, match="high endpoint"):
            find_tmax(FAST, bracket=(0.30, 0.32), t_tol=1e-3)

    @pytest.mark.parametrize("margin", [-2e-3, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_margin(self, margin):
        with pytest.raises(ValueError, match="margin"):
            find_tmax(FAST, margin=margin, t_tol=1e-4)

    def test_rejects_t_tol_below_float_resolution(self, monkeypatch):
        # Below the float spacing at hi the bisection midpoint rounds onto
        # an endpoint and the bracket stops shrinking; the cap turns such
        # a loop into a failure instead of a hang.
        calls = []

        def capped(*args, **kwargs):
            calls.append(args[0])
            assert len(calls) <= 100, "find_tmax kept bisecting"
            return gamma_hat(*args, **kwargs)

        monkeypatch.setattr(optimizer, "gamma_hat", capped)
        coarse = SearchConfig(8, 0, 1)
        with pytest.raises(ValueError, match="t_tol"):
            find_tmax(coarse, bracket=(0.30, 0.45), t_tol=1e-300)
        assert calls == []
        # The float spacing itself is accepted, and the bisection ends.
        result = find_tmax(coarse, bracket=(0.30, 0.45), t_tol=math.ulp(0.45))
        assert result.t_ceiling - result.t_certified <= math.ulp(0.45)

    def test_rejects_malformed_bracket(self):
        with pytest.raises(ValueError):
            find_tmax(FAST, bracket=(0.4, 0.2))
        with pytest.raises(ValueError):
            find_tmax(FAST, bracket=(0.2, 0.6))

    @pytest.mark.parametrize(
        "bracket", [(0.37, 0.40, 0.1), (0.37,), 0.37], ids=["three", "one", "scalar"]
    )
    def test_rejects_a_bracket_that_is_not_a_pair(self, bracket, monkeypatch):
        # A third value used to be dropped without a word, and a single
        # value raised IndexError or TypeError; no search may run.
        def run(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(optimizer, "gamma_hat", run)
        with pytest.raises(ValueError, match="bracket must be a pair"):
            find_tmax(FAST, bracket=bracket)

    def test_default_run_reproduces_the_published_threshold(self):
        # The bisection points are dyadic in the bracket, so they are pinned
        # exactly; t = 0.38234 is certified with room to spare.
        result = find_tmax()
        assert (result.t_certified, result.t_ceiling, result.steps) == (
            0.382344970703125,
            0.3823458862304687,
            15,
        )
        assert result.certificate.gamma_hat_lower > 1.0 + 1e-7

    def test_coarse_threshold_run(self):
        # A loose tolerance keeps this cheap; the precise run lives in
        # the acceptance suite.
        result = find_tmax(FAST, margin=1e-6, bracket=(0.37, 0.40), t_tol=5e-4)
        assert result.t_certified > BASELINE_THRESHOLD
        assert result.t_ceiling - result.t_certified <= 5e-4 + 1e-12
        assert result.certificate.gamma_hat_lower > 1.0 + 1e-6
        assert result.endpoint_bounds[0] > 1.0 + 1e-6
        assert result.endpoint_bounds[1] <= 1.0 + 1e-6
        payload = result.to_json_dict()
        assert set(payload) == {
            "t_certified",
            "t_ceiling",
            "margin",
            "bracket",
            "endpoint_bounds",
            "steps",
            "certificate",
            "wall_time_ms",
        }


class TestVerifyReferencePoint:
    def test_default_passes(self):
        cert = verify_reference_point()
        assert cert.gamma_hat_lower == pytest.approx(1.00000889, abs=2e-5)

    def test_strict_passes(self):
        cert = verify_reference_point(strict=True)
        assert cert.gamma_hat_lower == pytest.approx(1.00000889, abs=1e-6)

    def test_runs_the_default_search(self):
        # The published check is the search of every certificate.
        cert = verify_reference_point()
        rep = inner_inf(REFERENCE_ALPHA, REFERENCE_T)
        assert cert.gamma_hat_lower.hex() == rep.min_ratio.hex()
        assert cert.argmin == rep.argmin
        assert cert.config == SearchConfig()

    def test_refines_each_basin_once(self, line_calls):
        # One seed cell starts and this makes 225 calls.  On a 96-point
        # grid refined 8 rounds it made 254, and all 16 of the lowest
        # cells there 534 merged and 1,657 unmerged.
        verify_reference_point()
        assert len(line_calls) < 265

    def test_degraded_config_fails_with_report(self):
        with pytest.raises(VerificationFailed) as excinfo:
            verify_reference_point(
                SearchConfig(grid_points_per_axis=8, refine_rounds=0)
            )
        failure = excinfo.value
        assert failure.measured is not None
        assert failure.expected["min_ratio"] == 1.00000889
        assert abs(failure.measured["min_ratio"] - 1.00000889) > 2e-5
