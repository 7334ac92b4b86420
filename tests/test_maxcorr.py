"""Maximal correlation: the closed form against numpy's SVD and exact arithmetic.

Two reference routes, both written here rather than in the package:
the second singular value of the normalised joint, by
``numpy.linalg.svd``, and the spectrum and Pearson correlation in
80-digit ``decimal`` arithmetic from the exact values of the floats.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ucsbound.errors import InfeasibleCorrelation, RankDeficient
from ucsbound.maxcorr import binary_coupling, maximal_correlation

SEED = 90210


def random_couplings(rng, count, lo=0.05, hi=0.95):
    """``count`` couplings with marginals uniform in [lo, hi] and r uniform in the window."""
    p = rng.uniform(lo, hi, count)
    q = rng.uniform(lo, hi, count)
    r = rng.uniform(np.maximum(0.0, p + q - 1.0), np.minimum(p, q))
    return [binary_coupling(*c) for c in zip(p.tolist(), q.tolist(), r.tolist())]


def numpy_spectrum(couplings):
    """Singular values, descending, of each coupling's normalised joint, by LAPACK."""
    p, q, r = np.array(couplings).T
    joint = np.stack([[1.0 - p - q + r, q - r], [p - r, r]]).transpose(2, 0, 1)
    px = np.stack([1.0 - p, p], axis=1)
    py = np.stack([1.0 - q, q], axis=1)
    return np.linalg.svd(joint / np.sqrt(px[:, :, None] * py[:, None, :]), compute_uv=False)


def exact_spectrum(p, q, r):
    """Both singular values of the normalised joint, from F^2 and det B, in 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        p, q, r = map(Decimal, (p, q, r))
        joint = ((1 - p - q + r, q - r), (p - r, r))
        b = [[m / (x * y).sqrt() for m, y in zip(row, (1 - q, q))] for row, x in zip(joint, (1 - p, p))]
        frob = sum(v * v for row in b for v in row)
        det = abs(b[0][0] * b[1][1] - b[0][1] * b[1][0])
        top = ((frob + 2 * det).sqrt() + (frob - 2 * det).sqrt()) / 2
        return top, det / top


def exact_pearson(p, q, r):
    """Pearson correlation of the two bits by the moment formula, in 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        p, q, r = map(Decimal, (p, q, r))
        return (r - p * q) / ((p - p * p) * (q - q * q)).sqrt()


class TestBinaryCoupling:
    def test_frechet_violations_raise(self):
        with pytest.raises(InfeasibleCorrelation, match="outside Frechet window"):
            binary_coupling(0.3, 0.4, 0.9)
        with pytest.raises(InfeasibleCorrelation):
            binary_coupling(0.8, 0.9, 0.5)
        with pytest.raises(InfeasibleCorrelation):
            binary_coupling(0.3, 0.4, float("nan"))

    def test_window_endpoints_allowed(self):
        assert binary_coupling(0.8, 0.9, 0.7) == (0.8, 0.9, 0.8 + 0.9 - 1.0)  # p + q - 1
        assert binary_coupling(0.8, 0.9, 0.8) == (0.8, 0.9, 0.8)  # min(p, q)

    def test_independent_coupling_is_product(self):
        coupling = binary_coupling(0.3, 0.4, 0.3 * 0.4)
        assert coupling == (0.3, 0.4, 0.3 * 0.4)
        assert type(coupling) is tuple
        assert maximal_correlation(coupling) == 0.0

    def test_near_misses_are_clipped_into_the_window(self):
        assert binary_coupling(0.3, 0.4, 0.3 + 1e-13) == (0.3, 0.4, 0.3)
        assert binary_coupling(0.3, 0.4, -1e-13) == (0.3, 0.4, 0.0)
        assert binary_coupling(1, 0.5, 0.5) == (1.0, 0.5, 0.5)


class TestPearson:
    """The closed form is the absolute Pearson correlation of the two bits."""

    def test_matches_moment_formula(self):
        # Moments summed over the four cells of the joint, labels 0 and 1.
        for p, q, r in random_couplings(np.random.default_rng(SEED + 5), 200):
            cells = {(0, 0): 1.0 - p - q + r, (0, 1): q - r, (1, 0): p - r, (1, 1): r}
            cov = sum(m * (x - p) * (y - q) for (x, y), m in cells.items())
            var_x = sum(m * (x - p) ** 2 for (x, _), m in cells.items())
            var_y = sum(m * (y - q) ** 2 for (_, y), m in cells.items())
            expect = abs(cov) / math.sqrt(var_x * var_y)
            assert maximal_correlation((p, q, r)) == pytest.approx(expect, abs=1e-12)

    def test_constant_variable_raises(self):
        with pytest.raises(RankDeficient, match="constant bit"):
            maximal_correlation(binary_coupling(0.0, 0.6, 0.0))


class TestTinyMarginals:
    """Products of marginals near 1e-200 underflow; their square roots do not."""

    def test_pearson_and_spectrum_match_the_closed_form(self):
        p, q, r = 1e-200, 1e-200, 1e-300
        rho = maximal_correlation(binary_coupling(p, q, r))
        assert rho == pytest.approx(1e-100, rel=1e-12, abs=0)
        assert float(exact_pearson(p, q, r)) == pytest.approx(rho, rel=1e-12, abs=0)
        assert float(exact_spectrum(p, q, r)[1]) == pytest.approx(rho, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "p,q,r,rho",
        [
            (1e-300, 0.5, 1e-301, -8e-151),
            (1e-150, 1e-120, 1e-275, -(1e-270 - 1e-275) / 1e-135),
            (1e-300, 1e-300, 1e-300, 1.0),
            (0.3, 1e-200, 1e-200, math.sqrt(0.7 / 0.3) * 1e-100),
        ],
    )
    def test_spectrum_matches_pearson(self, p, q, r, rho):
        top, second = exact_spectrum(p, q, r)
        pearson = exact_pearson(p, q, r)
        assert float(top) == pytest.approx(1.0, abs=1e-15)
        assert float(second) == pytest.approx(abs(float(pearson)), rel=1e-15, abs=0)
        assert float(pearson) == pytest.approx(rho, rel=1e-9, abs=0)
        assert maximal_correlation(binary_coupling(p, q, r)) == pytest.approx(
            float(second), rel=1e-12, abs=0
        )


class TestMaximalCorrelation:
    def test_matches_numpy_svd(self):
        couplings = random_couplings(np.random.default_rng(SEED), 10_000)
        spectrum = numpy_spectrum(couplings)
        closed = np.array([maximal_correlation(c) for c in couplings])
        assert np.abs(spectrum[:, 1] - closed).max() <= 1e-12

    def test_two_by_two_equals_absolute_pearson(self):
        couplings = random_couplings(np.random.default_rng(SEED + 1), 2000, 1e-6, 1.0 - 1e-6)
        for coupling in couplings:
            exact = abs(exact_pearson(*coupling))
            assert abs(Decimal(maximal_correlation(coupling)) - exact) <= Decimal("1e-12"), coupling

    @pytest.mark.parametrize(
        "p,q,r,tol",
        [
            (1e-10, 1.0 - 1e-9, 0.0, 1e-12),
            (1e-6, 1.0 - 1e-6, 0.0, 1e-12),
            (1e-9, 1e-9, 5e-10, 1e-12),
            (1.0 - 1e-6, 0.5, 0.5 - 1e-6, 1e-12),
            (0.5, 0.5, 0.25 + 1e-12, 1e-12),
            (1e-200, 0.5, 0.0, 1e-12),
            (0.3, 0.6, 0.25, 1e-12),
            # Both marginals near 1: r and pq round near 1, and their
            # difference, about 1e-12, is formed from the exact complements.
            # 4 ulp of the value, 9.9989e-7, which shares 1e-6's binade.
            (1.0 - 1e-6, 1.0 - 1e-6, 1.0 - 2e-6, 4 * math.ulp(1e-6)),
        ],
    )
    def test_matches_exact_arithmetic_at_edges(self, p, q, r, tol):
        coupling = binary_coupling(p, q, r)
        exact = abs(exact_pearson(*coupling))
        assert float(exact_spectrum(*coupling)[1]) == pytest.approx(float(exact), rel=1e-15)
        assert abs(Decimal(maximal_correlation(coupling)) - exact) <= Decimal(tol)

    def test_both_marginals_near_one(self):
        # r - pq cancels when r, p and q are all near 1; the complements do not.
        rng = np.random.default_rng(SEED + 6)
        for a, b, u in zip(*10.0 ** rng.uniform(-9, -1, (2, 2000)), rng.uniform(0, 1, 2000)):
            p, q = 1.0 - a, 1.0 - b
            lo, hi = p + q - 1.0, min(p, q)
            coupling = binary_coupling(p, q, lo + u * (hi - lo))
            exact = abs(exact_pearson(*coupling))
            assert abs(Decimal(maximal_correlation(coupling)) - exact) <= exact * Decimal("1e-12"), coupling

    def test_frozen_value(self):
        rho = maximal_correlation(binary_coupling(0.3, 0.4, 0.2))
        assert rho == pytest.approx(0.35634832254989923, abs=1e-12)

    def test_top_singular_value_is_one(self):
        # The identity the closed form rests on: then s2 = |det B| / s1 = |det B|.
        for coupling in random_couplings(np.random.default_rng(SEED + 2), 200, 1e-6, 1.0 - 1e-6):
            assert abs(exact_spectrum(*coupling)[0] - 1) <= Decimal("1e-60"), coupling

    def test_independence_gives_zero(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(50):
            p, q = rng.uniform(0.05, 0.95, 2).tolist()
            coupling = binary_coupling(p, q, p * q)
            assert maximal_correlation(coupling) == pytest.approx(0.0, abs=1e-15)
            assert numpy_spectrum([coupling])[0] == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_spectrum_is_exact_to_rounding_near_the_frechet_ends(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(200):
            p = rng.uniform(0.05, 0.95)
            q = p + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, -3)
            coupling = binary_coupling(p, q, min(p, q))
            expect = float(exact_spectrum(*coupling)[1])
            assert maximal_correlation(coupling) == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("p", [1e-9, 0.2, 0.5, 0.7, 1.0 - 1e-9])
    def test_frechet_ends_give_plus_and_minus_one(self, p):
        # Upper end with q = p: Y = X.  Lower end with q = 1 - p: Y = 1 - X.
        for coupling, sign in ((binary_coupling(p, p, p), 1), (binary_coupling(p, 1.0 - p, 0.0), -1)):
            assert exact_pearson(*coupling) * sign > 0
            assert maximal_correlation(coupling) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_equal_marginals_full_overlap(self):
        p = 0.35
        assert maximal_correlation(binary_coupling(p, p, p)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_support_raises(self):
        with pytest.raises(RankDeficient, match="constant bit"):
            maximal_correlation(binary_coupling(1.0, 0.5, 0.5))

    @pytest.mark.parametrize(
        "p,q",
        [(1.0, 0.4), (0.0, 0.4), (0.4, 1.0), (0.4, 0.0)],
        ids=["row 0", "row 1", "column 0", "column 1"],
    )
    def test_zero_mass_row_or_column_raises(self, p, q):
        coupling = binary_coupling(p, q, min(p, q))
        with pytest.raises(RankDeficient):
            maximal_correlation(coupling)
