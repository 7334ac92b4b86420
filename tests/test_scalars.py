"""Scalar kernels: entropy and the OR-output probability."""

import decimal
import math

import numpy as np
import pytest

from ucsbound.scalars import (
    binary_entropy,
    max_entropy_or_prob_fullcorr,
    or_prob,
    require_prob,
)

SEED = 20260825


class TestRequireProb:
    def test_passthrough(self):
        assert require_prob(0.25) == 0.25
        assert require_prob(0) == 0.0
        assert require_prob(1) == 1.0

    def test_negative_zero_is_zero(self):
        assert require_prob(-0.0).hex() == "0x0.0p+0"
        for x in (0.0, 5e-324, 0.25, 1.0 - 2**-53, 1.0):
            assert require_prob(x).hex() == x.hex()

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), 2])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            require_prob(bad, "p")


class TestBinaryEntropy:
    def test_endpoints_are_exactly_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_frozen_values(self):
        # Independently computed from -x log2 x - (1-x) log2 (1-x).
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-15)
        assert binary_entropy(0.3) == pytest.approx(0.8812908992306927, abs=1e-15)
        assert binary_entropy(0.51) == pytest.approx(0.9997114417528099, abs=1e-15)

    @pytest.mark.parametrize("a", [3.4e-8, 1.22e-6, 0.3, 1.0 - 1e-9])
    def test_relative_precision_against_decimal(self, a):
        # Rounding 1 - a before its log cost 6e-11 of h at a = 3.4e-8;
        # the face search visits a ~ 1.3e-6 at t = 0.25.
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            x = decimal.Decimal(a)  # exact
            one = decimal.Decimal(1)
            want = -(x * x.ln() + (one - x) * (one - x).ln()) / decimal.Decimal(2).ln()
        assert binary_entropy(a) == pytest.approx(float(want), rel=1e-13, abs=0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(SEED)
        for x in rng.uniform(0, 1, 200):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)

    def test_monotone_below_half(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(200):
            x, y = sorted(rng.uniform(0, 0.5, 2))
            assert binary_entropy(x) <= binary_entropy(y) + 1e-15

    def test_concavity(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(200):
            x, y = rng.uniform(0, 1, 2)
            mid = binary_entropy(0.5 * (x + y))
            assert mid >= 0.5 * (binary_entropy(x) + binary_entropy(y)) - 1e-12


class TestOrProb:
    def test_a_certain_bit_makes_the_or_certain(self):
        # p + q - pq misses 1 by an ulp at p = 0.0008593297651760803.
        rng = np.random.default_rng(SEED)
        for p in (0.0008593297651760803, *rng.uniform(0.0, 1.0, size=2000)):
            assert or_prob(p, 1.0) == 1.0 == or_prob(1.0, p)

    def test_matches_the_complement_of_both_off(self):
        rng = np.random.default_rng(SEED)
        for p, q in rng.uniform(0.0, 1.0, size=(200, 2)):
            assert or_prob(p, q) == pytest.approx(1.0 - (1.0 - p) * (1.0 - q), abs=1e-15)
        assert or_prob(0.0, 0.0) == 0.0


class TestMaxEntropyOrProb:
    def test_frozen_fullcorr_values(self):
        # median{max(p,q), 1/2, min(p+q, 1)} worked by hand:
        assert max_entropy_or_prob_fullcorr(0.33, 1.0) == 1.0
        assert max_entropy_or_prob_fullcorr(0.3, 0.3) == 0.5
        assert max_entropy_or_prob_fullcorr(0.1, 0.2) == pytest.approx(0.3, abs=1e-15)
        assert max_entropy_or_prob_fullcorr(0.9, 0.8) == pytest.approx(0.9, abs=1e-15)
