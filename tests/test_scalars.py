"""Scalar kernels: the two input checks, entropy and the OR-output probability."""

import decimal
import math
import re

import numpy as np
import pytest

from ucsbound.optimizer import SearchConfig
from ucsbound.scalars import (
    binary_entropy,
    max_entropy_or_prob_fullcorr,
    or_prob,
    require_prob,
)
from ucsbound.ucslab import FamilySet, sample_or_closed

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


# Every integer input of the package, by the name its messages give: a
# call taking it, its floor (None where a range check of its own follows),
# and a value the call accepts.
INTEGER_INPUTS = {
    "grid_points_per_axis": (lambda v: SearchConfig(grid_points_per_axis=v), 2, 4),
    "refine_rounds": (lambda v: SearchConfig(refine_rounds=v), 0, 1),
    "multistart_count": (lambda v: SearchConfig(multistart_count=v), 1, 2),
    "ground-set size": (lambda v: FamilySet(v, 1), None, 3),
    "family mask": (lambda v: FamilySet(2, v), None, 3),
    "count": (lambda v: sample_or_closed(3, v, 1), 1, 4),
    "seed": (lambda v: sample_or_closed(3, 5, v), 0, 4),
}


def whole(message):
    """A pattern matching exactly ``message``."""
    return f"^{re.escape(message)}$"


def typed_ints(value):
    """Each int a call returned, with its type: a config's knobs, a family's
    n and mask, or those of each family in a list."""
    if isinstance(value, list):
        return [typed_ints(v) for v in value]
    return [(type(v), v) for v in value]


class TestRequireInt:
    @pytest.mark.parametrize("name", list(INTEGER_INPUTS))
    def test_one_rule_for_every_integer_input(self, name):
        # require_int checks the search's knobs and the lab's ground-set
        # size, family mask, sample count and seed, each with one message.
        call, low, valid = INTEGER_INPUTS[name]
        for value in (4.0, 2.5, "4"):
            message = f"{name} must be an integer, got {value!r}"
            with pytest.raises(ValueError, match=whole(message)):
                call(value)
        if low is not None:
            with pytest.raises(ValueError, match=whole(f"{name} must be >= {low}, got {low - 1}")):
                call(low - 1)
        for integer in (np.int64, np.int32, np.uint8):
            assert typed_ints(call(integer(valid))) == typed_ints(call(valid))
        if low is None or low <= 1:
            assert typed_ints(call(True)) == typed_ints(call(1))
        else:
            with pytest.raises(ValueError, match=whole(f"{name} must be >= {low}, got True")):
                call(True)


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
