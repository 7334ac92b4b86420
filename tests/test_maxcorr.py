"""Maximal correlation: the 2x2 spectrum against the moment formula and its edges."""

import math

import numpy as np
import pytest

from ucsbound.errors import InfeasibleCorrelation, RankDeficient
from ucsbound.maxcorr import (
    JointDist,
    binary_coupling,
    correlation_spectrum,
    maximal_correlation,
    pearson,
)

SEED = 90210


def random_binary_coupling(rng):
    p = rng.uniform(0.05, 0.95)
    q = rng.uniform(0.05, 0.95)
    lo = max(0.0, p + q - 1.0)
    hi = min(p, q)
    r = rng.uniform(lo, hi)
    return p, q, r, binary_coupling(p, q, r)


class TestJointDist:
    def test_marginals(self):
        j = binary_coupling(0.3, 0.4, 0.2)
        assert j.x_marginal() == pytest.approx([0.7, 0.3], abs=1e-15)
        assert j.y_marginal() == pytest.approx([0.6, 0.4], abs=1e-15)

    def test_frozen_matrix(self):
        j = binary_coupling(0.3, 0.4, 0.2)
        assert all(type(row) is tuple for row in (j.matrix, *j.matrix))
        assert j.matrix[0] == pytest.approx((0.5, 0.2), abs=1e-15)
        assert j.matrix[1] == pytest.approx((0.1, 0.2), abs=1e-15)

    @pytest.mark.parametrize(
        "x_labels,matrix",
        [
            ((0,), [[0.5, 0.4]]),  # mass 0.9
            ((0, 1), [[0.6, 0.6], [-0.1, -0.1]]),  # negative entries
            ((0, 1), [[0.5, 0.5]]),  # shape mismatch
        ],
    )
    def test_rejects_bad_matrices(self, x_labels, matrix):
        with pytest.raises(ValueError):
            JointDist(x_labels, (0, 1), np.asarray(matrix, dtype=float))

    @pytest.mark.parametrize(
        "labels,matrix",
        [
            (((0,), (0, 1)), [[0.5, 0.5]]),
            (((0, 1, 2), (0, 1, 2)), [[1 / 3, 0, 0], [0, 1 / 3, 0], [0, 0, 1 / 3]]),
        ],
        ids=["1x2", "3x3"],
    )
    def test_only_two_by_two(self, labels, matrix):
        # Valid distributions with matching labels: the shape alone is refused.
        with pytest.raises(ValueError, match="2x2"):
            JointDist(*labels, matrix)

    def test_flat_matrix_is_refused(self):
        with pytest.raises(ValueError, match="rows of numbers"):
            JointDist((0, 1), (0, 1), [0.5, 0.5])


class TestBinaryCoupling:
    def test_frechet_violations_raise(self):
        with pytest.raises(InfeasibleCorrelation):
            binary_coupling(0.3, 0.4, 0.9)
        with pytest.raises(InfeasibleCorrelation):
            binary_coupling(0.8, 0.9, 0.5)

    def test_window_endpoints_allowed(self):
        binary_coupling(0.8, 0.9, 0.7)  # p + q - 1
        binary_coupling(0.8, 0.9, 0.8)  # min(p, q)

    def test_independent_coupling_is_product(self):
        j = binary_coupling(0.3, 0.4, 0.3 * 0.4)
        assert j.matrix == pytest.approx(np.outer([0.7, 0.3], [0.6, 0.4]), abs=1e-15)


class TestPearson:
    def test_matches_moment_formula(self):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            p, q, r, j = random_binary_coupling(rng)
            expect = (r - p * q) / math.sqrt(p * (1 - p) * q * (1 - q))
            assert pearson(j) == pytest.approx(expect, abs=1e-12)

    def test_constant_variable_raises(self):
        j = JointDist((0, 1), (0, 1), np.array([[0.0, 0.0], [0.6, 0.4]]))
        with pytest.raises(RankDeficient):
            pearson(j)


class TestTinyMarginals:
    """Products of marginals near 1e-200 underflow; their square roots do not."""

    def test_pearson_and_spectrum_match_the_closed_form(self):
        p, q, r = 1e-200, 1e-200, 1e-300
        expect = (r - p * q) / (math.sqrt(p * (1 - p)) * math.sqrt(q * (1 - q)))
        assert expect == pytest.approx(1e-100, rel=1e-12, abs=0)
        j = binary_coupling(p, q, r)
        assert pearson(j) == pytest.approx(expect, rel=1e-9, abs=0)
        assert maximal_correlation(j) == pytest.approx(expect, rel=1e-9, abs=0)

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
        j = binary_coupling(p, q, r)
        assert pearson(j) == pytest.approx(rho, rel=1e-9, abs=0)
        assert maximal_correlation(j) == pytest.approx(abs(pearson(j)), rel=1e-9, abs=0)
        assert correlation_spectrum(j)[0] == pytest.approx(1.0, abs=1e-12)


class TestMaximalCorrelation:
    def test_two_by_two_equals_absolute_pearson(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(300):
            _, _, _, j = random_binary_coupling(rng)
            assert maximal_correlation(j) == pytest.approx(abs(pearson(j)), abs=1e-9)

    def test_frozen_value(self):
        j = binary_coupling(0.3, 0.4, 0.2)
        assert maximal_correlation(j) == pytest.approx(0.35634832254989923, abs=1e-12)

    def test_top_singular_value_is_one(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(200):
            _, _, _, j = random_binary_coupling(rng)
            assert correlation_spectrum(j)[0] == pytest.approx(1.0, abs=1e-9)

    def test_independence_gives_zero(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(50):
            p, q = rng.uniform(0.05, 0.95, 2)
            j = binary_coupling(p, q, p * q)
            assert maximal_correlation(j) == pytest.approx(0.0, abs=1e-9)
            assert correlation_spectrum(j) == pytest.approx((1.0, 0.0), abs=1e-9)

    def test_spectrum_is_exact_to_rounding_near_the_frechet_ends(self):
        # There (s1 - s2)^2 = F^2 - 2 |det B| is tiny, and subtracting
        # 2 |det B| from F^2 would leave ~1e-13 errors in both values.
        rng = np.random.default_rng(SEED + 4)
        for _ in range(200):
            p = rng.uniform(0.05, 0.95)
            q = p + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8, -3)
            j = binary_coupling(p, q, min(p, q))
            top, second = correlation_spectrum(j)
            assert top == pytest.approx(1.0, abs=1e-14)
            assert second == pytest.approx(abs(pearson(j)), abs=1e-14)

    @pytest.mark.parametrize("p", [1e-9, 0.2, 0.5, 0.7, 1.0 - 1e-9])
    def test_frechet_ends_give_plus_and_minus_one(self, p):
        # Upper end with q = p: Y = X.  Lower end with q = 1 - p: Y = 1 - X.
        for j, rho in ((binary_coupling(p, p, p), 1.0), (binary_coupling(p, 1.0 - p, 0.0), -1.0)):
            assert pearson(j) == pytest.approx(rho, abs=1e-12)
            assert correlation_spectrum(j) == pytest.approx((1.0, 1.0), abs=1e-12)
            assert maximal_correlation(j) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_equal_marginals_full_overlap(self):
        p = 0.35
        j = binary_coupling(p, p, p)  # X = Y almost surely
        assert maximal_correlation(j) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_support_raises(self):
        j = JointDist((0, 1), (0, 1), np.array([[0.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(RankDeficient):
            maximal_correlation(j)

    @pytest.mark.parametrize(
        "matrix",
        [
            ((0.0, 0.0), (0.4, 0.6)),
            ((0.4, 0.6), (0.0, 0.0)),
            ((0.0, 0.4), (0.0, 0.6)),
            ((0.4, 0.0), (0.6, 0.0)),
        ],
        ids=["row 0", "row 1", "column 0", "column 1"],
    )
    def test_zero_mass_row_or_column_raises(self, matrix):
        j = JointDist((0, 1), (0, 1), matrix)
        with pytest.raises(RankDeficient):
            correlation_spectrum(j)
        with pytest.raises(RankDeficient):
            pearson(j)

