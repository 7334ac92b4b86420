"""The blended OR-entropy objective over plain (x, y, mass) atoms."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ucsbound.distributions import (
    ExtremeFamily,
    RatioTerms,
    entropy_ratio,
    mixed_or_entropy,
    ratio_terms,
)
from ucsbound.errors import DegenerateDenominator
from ucsbound.scalars import binary_entropy, max_entropy_or_prob_fullcorr, or_prob

SEED = 47113

H_03 = 0.8812908992306927  # binary entropy of 0.3, frozen independently
H_051 = 0.9997114417528099  # binary entropy of 0.51


class TestExtremeFamily:
    def test_reference_family_weights(self):
        # a1 = a2 = b1 = 0.3300622, b2 = 1 at t = 0.38234 gives the
        # published high-block weight.
        fam = ExtremeFamily(0.3300622, 0.3300622, 0.38234, 0.3300622, 1.0)
        assert fam.beta == pytest.approx(0.1560676229942542, abs=1e-12)
        low, high = fam.atoms()
        assert low[:2] == (0.3300622, 0.3300622)
        assert low[2] == pytest.approx(1 - 0.1560676229942542, abs=1e-12)
        assert high[:2] == (0.3300622, 1.0)
        assert high[2] == pytest.approx(0.1560676229942542, abs=1e-12)

    def test_beta_zero_when_no_high_block(self):
        fam = ExtremeFamily(0.2, 0.3, 0.25, 1.0, 1.0)
        assert fam.beta == 0.0
        assert fam.atoms() == [(0.2, 0.3, 1.0)]
        # A high block that gets no weight is left out too.
        assert ExtremeFamily(0.3, 0.3, 0.3, 0.5, 0.9).atoms() == [(0.3, 0.3, 1.0)]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a1=0.4, a2=0.3, t=0.4, b1=1.0, b2=1.0),  # a1 > a2
            dict(a1=0.3, a2=0.5, t=0.3, b1=1.0, b2=1.0),  # low-block mean above t
            dict(a1=0.2, a2=0.2, t=0.3, b1=0.25, b2=0.3),  # high block not above t
            dict(a1=0.2, a2=0.2, t=0.3, b1=0.9, b2=0.5),  # b1 > b2
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExtremeFamily(**kwargs)

    @pytest.mark.parametrize(
        "args",
        [
            # Low mean a hair above t, inside the roundoff slack, and equal
            # to the high mean: beta would divide by zero.
            (0.3 + 5e-13,) * 2 + (0.3,) + (0.3 + 5e-13,) * 2,
            # Low mean above the high mean, both above t: beta would exceed
            # 1, with the blocks swapped.
            (0.3 + 1e-12, 0.3 + 1e-12, 0.3, 0.3 + 1e-13, 0.3 + 2e-13),
        ],
    )
    def test_rejects_a_low_block_not_below_the_high_one(self, args):
        fam = ExtremeFamily._make(args)  # the same values, unchecked
        message = f"high-block mean {fam.b_mean!r} must exceed low-block mean {fam.a_mean!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExtremeFamily(*args)

    def test_marginal_mean_hits_target(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(100):
            t = rng.uniform(0.1, 0.45)
            a1 = rng.uniform(0, t)
            a2 = rng.uniform(a1, min(1.0, 2 * t - a1))
            b2 = rng.uniform(2 * t, 1) if 2 * t < 1 else 1.0
            b1 = rng.uniform(max(0.0, 2 * (t + 1e-6) - b2), b2)
            fam = ExtremeFamily(a1, a2, t, b1, b2)
            if fam.beta in (0.0, 1.0):
                continue
            mean = sum(m * (x + y) / 2 for x, y, m in fam.atoms())
            assert mean == pytest.approx(t, abs=1e-9)


class TestMixedOrEntropy:
    def test_single_atom_blend(self):
        # One pair (0.3, 0.3): independent part h(0.51), correlated part
        # h(1/2) = 1, blended linearly.
        d = [(0.3, 0.3, 1.0)]
        for alpha in (0.0, 0.25, 1.0):
            expect = (1 - alpha) * H_051 + alpha * 1.0
            assert mixed_or_entropy(d, alpha) == pytest.approx(expect, abs=1e-12)

    def test_linear_in_alpha(self):
        d = ExtremeFamily(0.25, 0.3, 0.35, 0.5, 0.9).atoms()
        g0 = mixed_or_entropy(d, 0.0)
        g1 = mixed_or_entropy(d, 1.0)
        for alpha in (0.2, 0.5, 0.8):
            assert mixed_or_entropy(d, alpha) == pytest.approx(
                (1 - alpha) * g0 + alpha * g1, abs=1e-12
            )

    def test_independent_part_uses_product_of_marginal(self):
        # A fully off-diagonal pair: the independent term must mix the
        # two values, not just OR them pointwise.
        d = [(0.2, 0.6, 1.0)]
        h = lambda x: -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        expect = 0.25 * h(0.2 + 0.2 - 0.04) + 0.5 * h(0.2 + 0.6 - 0.12) + 0.25 * h(0.6 + 0.6 - 0.36)
        assert mixed_or_entropy(d, 0.0) == pytest.approx(expect, abs=1e-12)

    def test_split_orders_pool(self):
        # Mass on (x, y) and (y, x) counts as one atom of the summed mass.
        split = [(0.2, 0.7, 0.25), (0.7, 0.2, 0.25), (0.4, 0.4, 0.5)]
        pooled = [(0.2, 0.7, 0.5), (0.4, 0.4, 0.5)]
        for alpha in (0.0, 0.3, 1.0):
            assert mixed_or_entropy(split, alpha) == pytest.approx(
                mixed_or_entropy(pooled, alpha), abs=1e-12
            )

    def test_swapping_an_atom_changes_nothing(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            masses = np.diff([0, *sorted(rng.uniform(0, 1, 3)), 1])
            atoms = [(rng.uniform(), rng.uniform(), m) for m in masses]
            swapped = [(y, x, m) if rng.uniform() < 0.5 else (x, y, m) for x, y, m in atoms]
            alpha = rng.uniform()
            assert mixed_or_entropy(swapped, alpha) == pytest.approx(
                mixed_or_entropy(atoms, alpha), abs=1e-12
            )

    @pytest.mark.parametrize(
        "atoms",
        [
            [(0.5, 0.5, 0.9)],
            [(1.5, 0.5, 1.0)],
            [(0.5, -0.1, 1.0)],
            [(0.5, 0.5, -1.0), (0.2, 0.3, 2.0)],
            [],
            [(0.5, math.nan, 1.0)],
            [(0.5, 0.5, math.nan)],
        ],
        ids=[
            "mass-not-1",
            "not-a-probability",
            "second-not-a-probability",
            "negative-mass",
            "empty",
            "nan-value",
            "nan-mass",
        ],
    )
    def test_rejects_invalid(self, atoms):
        with pytest.raises(ValueError):
            mixed_or_entropy(atoms, 0.5)

    def test_accepts_zero_mass_and_rounding_in_the_total(self):
        single = mixed_or_entropy([(0.3, 0.3, 1.0)], 0.5)
        assert mixed_or_entropy([(0.3, 0.3, 1.0), (0.9, 0.9, 0.0)], 0.5) == single
        assert mixed_or_entropy([(0.3, 0.3, 1.0 + 1e-12)], 0.5) == pytest.approx(
            single, abs=1e-11
        )


class TestEntropyRatio:
    def test_denominator_is_mean_marginal_entropy(self):
        # One block (0.3, 0.5): the marginal is 0.3 or 0.5 with mass 1/2
        # each, so the denominator is (h(0.3) + 1) / 2.
        fam = ExtremeFamily(0.3, 0.5, 0.4, 1.0, 1.0)
        for alpha in (0.0, 0.5):
            expect = mixed_or_entropy(fam.atoms(), alpha) / (0.5 * H_03 + 0.5)
            assert entropy_ratio(fam, alpha) == pytest.approx(expect, abs=1e-12)

    def test_frozen_beta_zero_value(self):
        # Single block at 0.3: ratio(alpha=0) = h(0.51) / h(0.3).
        fam = ExtremeFamily(0.3, 0.3, 0.3, 1.0, 1.0)
        assert entropy_ratio(fam, 0.0) == pytest.approx(1.1343716843388378, abs=1e-12)

    def test_alpha_one_uses_fullcorr_probability(self):
        fam = ExtremeFamily(0.3, 0.3, 0.3, 1.0, 1.0)
        # max-entropy OR probability of (0.3, 0.3) at full correlation is 1/2.
        assert entropy_ratio(fam, 1.0) == pytest.approx(1.0 / H_03, abs=1e-12)

    def test_degenerate_marginal_raises(self):
        with pytest.raises(DegenerateDenominator):
            entropy_ratio(ExtremeFamily(0.0, 0.0, 0.2, 1.0, 1.0), 0.5)

    def test_mass_at_one_costs_nothing_upstairs(self):
        # Adding the (1, 1) block leaves the correlated numerator at
        # h(1) = 0 for that block, so the ratio drops below the
        # single-block value at alpha = 0.
        single = entropy_ratio(ExtremeFamily(0.3, 0.3, 0.3, 1.0, 1.0), 0.0)
        lifted = entropy_ratio(ExtremeFamily(0.3, 0.3, 0.32, 1.0, 1.0), 0.0)
        assert lifted < single


def random_family(rng: random.Random) -> ExtremeFamily:
    """A family with both blocks anywhere their means allow, ends included."""
    ends = (0.0, 1.0)
    while True:
        x = [rng.choice(ends) if rng.random() < 0.1 else rng.random() for _ in range(4)]
        a1, a2, b1, b2 = min(x[:2]), max(x[:2]), min(x[2:]), max(x[2:])
        a, b = 0.5 * (a1 + a2), 0.5 * (b1 + b2)
        if a < b:
            t = a if rng.random() < 0.1 else rng.uniform(a, b)
            if a <= t < b:
                return ExtremeFamily(a1, a2, t, b1, b2)


class TestRatioTerms:
    """One oracle pass gives the alpha-free terms; the ratio blends them."""

    def test_ratio_is_the_blend_of_the_terms_bit_for_bit(self):
        rng = random.Random(SEED)
        families = [random_family(rng) for _ in range(10_000)]
        degenerate = 0
        for family in families:
            try:
                ind, cor, denom = terms = ratio_terms(family)
            except DegenerateDenominator:
                degenerate += 1
                continue
            for alpha in (0.0, 1.0, -0.0, rng.random()):
                want = ((1.0 - alpha) * ind + alpha * cor) / denom
                assert entropy_ratio(family, alpha).hex() == want.hex(), (family, alpha)
                assert terms.ratio(alpha).hex() == want.hex(), (family, alpha)
                mixed = mixed_or_entropy(family.atoms(), alpha)
                assert mixed.hex() == ((1.0 - alpha) * ind + alpha * cor).hex(), (family, alpha)
        assert degenerate < 100

    def test_each_term_is_its_float_terms_correctly_rounded(self):
        # Each term is the exact sum of its float terms, rounded once, so
        # its bits do not depend on the order or the interpreter: the
        # built-in sum compensates from Python 3.12 on.  Under 3.11's sum
        # the independent term missed this on 136 of these 299 families.
        def exact(terms):
            return float(sum(map(Fraction, terms)))

        rng = random.Random(SEED + 2)
        checked = 0
        for family in (random_family(rng) for _ in range(300)):
            try:
                terms = ratio_terms(family)
            except DegenerateDenominator:
                continue
            atoms = family.atoms()
            marginal = [(v, 0.5 * m) for x, y, m in atoms for v in (x, y)]
            want = RatioTerms(
                exact(mi * mj * binary_entropy(or_prob(vi, vj)) for vi, mi in marginal for vj, mj in marginal),
                exact(m * binary_entropy(max_entropy_or_prob_fullcorr(x, y)) for x, y, m in atoms),
                exact(0.5 * m * (binary_entropy(x) + binary_entropy(y)) for x, y, m in atoms),
            )
            assert [v.hex() for v in terms] == [v.hex() for v in want], family
            checked += 1
        assert checked > 250

    def test_terms_are_the_parts_of_the_blend(self):
        fam = ExtremeFamily(0.3, 0.3, 0.3, 1.0, 1.0)
        terms = ratio_terms(fam)
        assert isinstance(terms, RatioTerms)
        assert terms.independent == mixed_or_entropy(fam.atoms(), 0.0)
        assert terms.correlated == mixed_or_entropy(fam.atoms(), 1.0)
        assert terms.denom == pytest.approx(H_03, abs=1e-15)

    def test_degenerate_family_raises(self):
        fam = ExtremeFamily(0.0, 0.0, 0.2, 1.0, 1.0)
        with pytest.raises(DegenerateDenominator, match="is numerically zero"):
            ratio_terms(fam)
        for alpha in (0.5, math.nan, 1.1):
            with pytest.raises(DegenerateDenominator, match="is numerically zero"):
                entropy_ratio(fam, alpha)

    @pytest.mark.parametrize("alpha", [math.nan, -0.1, 1.1])
    def test_alpha_outside_the_unit_interval_raises(self, alpha):
        fam = ExtremeFamily(0.3, 0.3, 0.38234, 0.3, 1.0)
        message = f"alpha must lie in [0, 1], got {alpha!r}"
        for call in (
            lambda: entropy_ratio(fam, alpha),
            lambda: ratio_terms(fam).ratio(alpha),
            lambda: mixed_or_entropy(fam.atoms(), alpha),
        ):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
