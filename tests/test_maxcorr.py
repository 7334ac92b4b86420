"""Maximal correlation: spectral route against closed forms."""

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
        assert j.matrix == pytest.approx(np.array([[0.5, 0.2], [0.1, 0.2]]), abs=1e-15)

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
        assert expect == pytest.approx(1e-100, rel=1e-12)
        j = binary_coupling(p, q, r)
        assert pearson(j) == pytest.approx(expect, rel=1e-9)
        assert maximal_correlation(j) == pytest.approx(expect, rel=1e-9)


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
            assert maximal_correlation(binary_coupling(p, q, p * q)) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_identity_coupling_gives_one(self):
        j = JointDist((0, 1, 2), (0, 1, 2), np.eye(3) / 3)
        assert maximal_correlation(j) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_equal_marginals_full_overlap(self):
        p = 0.35
        j = binary_coupling(p, p, p)  # X = Y almost surely
        assert maximal_correlation(j) == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_rows_dropped(self):
        m = np.zeros((3, 2))
        m[0] = [0.3, 0.2]
        m[2] = [0.1, 0.4]
        j = JointDist((0, 1, 2), (0, 1), m)
        assert 0.0 <= maximal_correlation(j) <= 1.0

    def test_degenerate_support_raises(self):
        j = JointDist((0, 1), (0, 1), np.array([[0.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(RankDeficient):
            maximal_correlation(j)

