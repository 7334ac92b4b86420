"""End-to-end acceptance checks.

Each test covers one promise the package makes, at its stated tolerance
and time budget, and prints a single [PASS] line with the measured
numbers (visible under ``pytest -s``).  The helpers here deliberately
recompute expectations through independent routes (closed forms, naive
enumeration, raw formulas) rather than through the package internals.
"""

import itertools
import math
import time

import numpy as np
import pytest

from ucsbound.maxcorr import binary_coupling, maximal_correlation
from ucsbound.optimizer import (
    SearchConfig,
    find_tmax,
    inner_inf,
    verify_reference_point,
)
from ucsbound.scalars import binary_entropy, max_entropy_or_prob_fullcorr
from ucsbound.ucslab import enumerate_or_closed, max_symmetric_coupling_entropy

SEED = 38234
FAST = SearchConfig(grid_points_per_axis=32, refine_rounds=3, multistart_count=8)


def report(line: str) -> None:
    print(f"[PASS] {line}")


class TestReferenceEvaluation:
    def test_reference_evaluation_reproduced(self):
        started = time.monotonic()
        cert = verify_reference_point()
        elapsed = time.monotonic() - started
        fam = cert.argmin
        assert cert.gamma_hat_lower == pytest.approx(1.00000889, abs=2e-5)
        assert fam.a1 == pytest.approx(0.3300622, abs=1e-3)
        assert fam.a2 == pytest.approx(0.3300622, abs=1e-3)
        assert fam.b1 == pytest.approx(0.3300622, abs=1e-3)
        assert fam.b2 == pytest.approx(1.0, abs=1e-3)
        assert fam.beta == pytest.approx(0.1560676, abs=1e-3)
        assert elapsed < 60.0
        report(
            f"reference evaluation: min ratio {cert.gamma_hat_lower:.10f} "
            f"(target 1.00000889 +/- 2e-5), argmin low value {fam.a1:.7f}, "
            f"beta {fam.beta:.7f}, {elapsed:.1f}s"
        )


class TestCertifiedThreshold:
    def test_certified_t_meets_published_floor(self):
        started = time.monotonic()
        result = find_tmax(margin=1e-7, bracket=(0.37, 0.40), t_tol=1e-6)
        elapsed = time.monotonic() - started
        assert result.t_certified >= 0.38234
        assert result.t_certified > 0.38197
        assert result.certificate.gamma_hat_lower > 1.0 + 1e-7
        assert elapsed < 600.0
        report(
            f"certified mean target {result.t_certified:.7f} >= 0.38234 "
            f"(ceiling {result.t_ceiling:.7f}, bound "
            f"{result.certificate.gamma_hat_lower:.10f}), {elapsed:.1f}s"
        )


class TestBaselineCrossing:
    def test_unblended_crossing_sits_at_golden_section_point(self):
        """With the correlated term switched off, the certifiable range
        ends at (3 - sqrt 5)/2; bisecting the worst-case ratio through 1
        must land there."""
        started = time.monotonic()
        lo, hi = 0.37, 0.39
        g = lambda t: inner_inf(0.0, t, FAST).min_ratio - 1.0
        assert g(lo) > 0.0
        assert g(hi) < 0.0
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if g(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        expected = (3.0 - math.sqrt(5.0)) / 2.0
        elapsed = time.monotonic() - started
        assert crossing == pytest.approx(expected, abs=5e-4)
        assert elapsed < 120.0
        report(
            f"alpha=0 crossing {crossing:.6f} vs closed form {expected:.6f} "
            f"(+/- 5e-4), {elapsed:.1f}s"
        )


class TestMaximalCorrelationIdentities:
    def test_two_by_two_identities(self):
        # numpy's SVD of B[x, y] = P(x, y) / sqrt(P_X(x) P_Y(y)): the top
        # singular value is 1 and the second is the maximal correlation.
        rng = np.random.default_rng(SEED)
        couplings, matrices = [], []
        for _ in range(1000):
            p, q = rng.uniform(0.05, 0.95, size=2)
            lo, hi = max(0.0, p + q - 1.0), min(p, q)
            r = lo + rng.uniform(0.02, 0.98) * (hi - lo)
            couplings.append(binary_coupling(p, q, r))
            joint = np.array([[1.0 - p - q + r, q - r], [p - r, r]])
            matrices.append(joint / np.sqrt(np.outer([1.0 - p, p], [1.0 - q, q])))
        spectrum = np.linalg.svd(np.array(matrices), compute_uv=False)
        rho = np.array([maximal_correlation(c) for c in couplings])
        worst_second = float(np.abs(spectrum[:, 1] - rho).max())
        worst_top = float(np.abs(spectrum[:, 0] - 1.0).max())
        assert worst_second <= 1e-12
        assert worst_top <= 1e-12
        report(
            "two-by-two maximal correlation: second singular gap "
            f"{worst_second:.2e}, top singular gap {worst_top:.2e} (both <= 1e-12)"
        )


def naive_count(n: int) -> tuple[int, set]:
    """Closed-family count by brute force over frozenset families."""
    subsets = [
        frozenset(c)
        for r in range(n + 1)
        for c in itertools.combinations(range(n), r)
    ]
    masks = set()
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            family = set(combo)
            if any(a | b not in family for a in family for b in family):
                continue
            mask = 0
            for member in family:
                mask |= 1 << sum(1 << e for e in member)
            masks.add(mask)
    return len(masks), masks


class TestFamilyCensus:
    def test_counts_and_frequency_floor(self):
        started = time.monotonic()
        expected_counts = {1: 3, 2: 13, 3: 121, 4: 4959}
        observed_min = 1.0
        for n, expected in expected_counts.items():
            count = 0
            for fam in enumerate_or_closed(n):
                count += 1
                if fam.mask == 1:
                    continue
                members = fam.members
                peak = max(
                    sum(1 for m in members if (m >> e) & 1) / len(members)
                    for e in range(n)
                )
                assert peak >= 0.38234
                observed_min = min(observed_min, peak)
            assert count == expected

        for n in (1, 2):
            naive_total, naive_masks = naive_count(n)
            ours = {f.mask for f in enumerate_or_closed(n)}
            assert ours == naive_masks
            assert len(ours) == naive_total == expected_counts[n]

        elapsed = time.monotonic() - started
        assert observed_min == 0.5
        assert elapsed < 30.0
        report(
            f"family census 3/13/121/4959 confirmed, min peak frequency "
            f"{observed_min} (exactly 1/2, never below 0.38234), {elapsed:.1f}s"
        )


class TestCouplingEntropyCeiling:
    def test_ceiling_holds_and_full_cube_attains_it(self):
        # The identity coupling meets the ceiling: the maximum is log2 |A|,
        # exactly, on every closed family of two or more members.
        started = time.monotonic()
        checked = 0
        for n in (1, 2, 3):
            for fam in enumerate_or_closed(n):
                if not 2 <= fam.size <= 16:
                    continue
                assert max_symmetric_coupling_entropy(fam) == math.log2(fam.size), fam
                checked += 1
        cube = next(f for f in enumerate_or_closed(3) if f.size == 8)
        h_cube = max_symmetric_coupling_entropy(cube)
        elapsed = time.monotonic() - started
        assert h_cube == 3.0
        assert elapsed < 300.0
        report(
            f"coupling entropy ceiling: {checked} families at exactly log2 |A|, "
            f"full cube reaches {h_cube!r} of 3 bits, {elapsed:.1f}s"
        )


class TestBlendConsistency:
    def test_or_probability_limits_and_concavity(self):
        # Full correlation constrains nothing: the correlated term is the
        # largest h(p + q - z) over the Frechet window of joint on-masses
        # z, scanned here on a dense grid.  Grid points include both ends
        # of the window, so the scan can miss only an interior maximum at
        # 1/2, and by at most a half step.
        steps = 1000
        resolution = 1.0 - binary_entropy(0.5 + 0.5 / steps)
        frac = np.linspace(0.0, 1.0, steps + 1)
        grid = np.linspace(0.0025, 0.9975, 200)
        worst_full = 0.0
        for p in grid:
            q = grid[:, None]
            lo, hi = np.maximum(0.0, p + q - 1.0), np.minimum(p, q)
            x = p + q - (lo + (hi - lo) * frac)
            with np.errstate(divide="ignore", invalid="ignore"):
                h = -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))
            scanned = np.nan_to_num(h, nan=0.0).max(axis=1)
            for qv, best in zip(grid, scanned):
                gap = binary_entropy(max_entropy_or_prob_fullcorr(p, qv)) - best
                assert -1e-12 <= gap <= resolution + 1e-12
                worst_full = max(worst_full, gap)

        cfg = SearchConfig(grid_points_per_axis=96, refine_rounds=8)
        t = 0.38
        low = inner_inf(0.02, t, cfg).min_ratio
        high = inner_inf(0.05, t, cfg).min_ratio
        mid = inner_inf(0.035, t, cfg).min_ratio
        slack = mid - 0.5 * (low + high)
        assert slack >= -1e-10
        report(
            f"blend consistency: full-correlation term above the window scan by "
            f"{worst_full:.2e} (<= resolution {resolution:.2e}), concavity "
            f"midpoint slack {slack:.2e} >= -1e-10"
        )
