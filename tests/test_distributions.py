"""Distribution types and the blended OR-entropy objective."""

import math

import numpy as np
import pytest

from ucsbound.distributions import (
    AtomDist,
    ExtremeFamily,
    SymmetricPairDist,
    entropy_ratio,
    mixed_or_entropy,
)
from ucsbound.errors import DegenerateDenominator

SEED = 47113

H_03 = 0.8812908992306927  # binary entropy of 0.3, frozen independently
H_051 = 0.9997114417528099  # binary entropy of 0.51


class TestAtomDist:
    def test_basic_construction(self):
        d = AtomDist((0.2, 0.8), (0.5, 0.5))
        assert len(d) == 2
        assert d.mean() == pytest.approx(0.5, abs=1e-15)

    def test_from_pairs_merges_close_values(self):
        d = AtomDist.from_pairs([(0.3, 0.4), (0.3 + 1e-13, 0.6)])
        assert len(d) == 1
        assert d.masses[0] == pytest.approx(1.0, abs=1e-12)
        assert d.values[0] == pytest.approx(0.3, abs=1e-12)

    def test_mean_entropy_frozen(self):
        d = AtomDist((0.3, 0.5), (0.5, 0.5))
        assert d.mean_entropy() == pytest.approx(0.5 * H_03 + 0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "values,masses",
        [
            ((0.5,), (0.9,)),  # mass not 1
            ((0.5, 0.4), (0.5, 0.5)),  # not increasing
            ((1.5,), (1.0,)),  # not a probability
            ((0.5,), (-1.0,)),  # negative mass
            ((), ()),  # empty
        ],
    )
    def test_rejects_invalid(self, values, masses):
        with pytest.raises(ValueError):
            AtomDist(values, masses)

    def test_json_round_trip(self):
        d = AtomDist((0.25, 0.75), (0.4, 0.6))
        again = AtomDist.loads(d.dumps())
        assert again.values == d.values
        assert again.masses == d.masses


class TestSymmetricPairDist:
    def test_symmetrisation_pools_both_orders(self):
        d = SymmetricPairDist.from_pairs([(0.2, 0.7, 0.25), (0.7, 0.2, 0.25), (0.4, 0.4, 0.5)])
        assert d.pairs == ((0.2, 0.7), (0.4, 0.4))
        assert d.masses == pytest.approx((0.5, 0.5))

    def test_marginal_halves_offdiagonal_mass(self):
        d = SymmetricPairDist.from_pairs([(0.2, 0.7, 1.0)])
        marg = d.marginal()
        assert marg.values == (0.2, 0.7)
        assert marg.masses == pytest.approx((0.5, 0.5))

    def test_ordered_atoms_expand(self):
        d = SymmetricPairDist.from_pairs([(0.2, 0.7, 0.8), (0.5, 0.5, 0.2)])
        atoms = sorted(d.ordered_atoms())
        assert atoms == [(0.2, 0.7, 0.4), (0.5, 0.5, 0.2), (0.7, 0.2, 0.4)]

    def test_marginals_of_both_coordinates_agree(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            entries = [
                (rng.uniform(), rng.uniform(), w)
                for w in np.diff([0, *sorted(rng.uniform(0, 1, 3)), 1])
            ]
            d = SymmetricPairDist.from_pairs(entries)
            first = {}
            second = {}
            for x, y, m in d.ordered_atoms():
                first[x] = first.get(x, 0.0) + m
                second[y] = second.get(y, 0.0) + m
            for key, val in first.items():
                assert second[key] == pytest.approx(val, abs=1e-12)

    def test_rejects_unsorted_canonical(self):
        with pytest.raises(ValueError):
            SymmetricPairDist(((0.7, 0.2),), (1.0,))

    def test_json_round_trip_recanonicalises(self):
        d = SymmetricPairDist.from_pairs([(0.6, 0.1, 1.0)])
        again = SymmetricPairDist.loads(d.dumps())
        assert again.pairs == d.pairs
        assert again.masses == pytest.approx(d.masses)


class TestExtremeFamily:
    def test_reference_family_weights(self):
        # a1 = a2 = b1 = 0.3300622, b2 = 1 at t = 0.38234 gives the
        # published high-block weight.
        fam = ExtremeFamily(0.3300622, 0.3300622, 0.38234, 0.3300622, 1.0)
        assert fam.beta == pytest.approx(0.1560676229942542, abs=1e-12)
        dist = fam.pair_dist()
        assert dist.pairs == ((0.3300622, 0.3300622), (0.3300622, 1.0))
        assert dist.masses[0] == pytest.approx(1 - 0.1560676229942542, abs=1e-12)
        ordered = dist.ordered_atoms()
        assert (0.3300622, 1.0, pytest.approx(0.0780338114971271, abs=1e-12)) in ordered

    def test_beta_zero_when_no_high_block(self):
        fam = ExtremeFamily(0.2, 0.3, 0.3)
        assert fam.beta == 0.0
        assert len(fam.pair_dist()) == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a1=0.4, a2=0.3, t=0.4),  # a1 > a2
            dict(a1=0.3, a2=0.5, t=0.3),  # low-block mean above t
            dict(a1=0.2, a2=0.2, t=0.3, b1=0.25, b2=0.3),  # high block not above t
            dict(a1=0.2, a2=0.2, t=0.3, b1=0.9, b2=None),  # half a block
            dict(a1=0.2, a2=0.2, t=0.3, b1=0.9, b2=0.5),  # b1 > b2
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExtremeFamily(**kwargs)

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
            assert fam.marginal().mean() == pytest.approx(t, abs=1e-9)


class TestMixedOrEntropy:
    def test_single_atom_blend(self):
        # One pair (0.3, 0.3): independent part h(0.51), correlated part
        # h(1/2) = 1, blended linearly.
        d = SymmetricPairDist.from_pairs([(0.3, 0.3, 1.0)])
        for alpha in (0.0, 0.25, 1.0):
            expect = (1 - alpha) * H_051 + alpha * 1.0
            assert mixed_or_entropy(d, alpha) == pytest.approx(expect, abs=1e-12)

    def test_linear_in_alpha(self):
        d = ExtremeFamily(0.25, 0.3, 0.35, 0.5, 0.9).pair_dist()
        g0 = mixed_or_entropy(d, 0.0)
        g1 = mixed_or_entropy(d, 1.0)
        for alpha in (0.2, 0.5, 0.8):
            assert mixed_or_entropy(d, alpha) == pytest.approx(
                (1 - alpha) * g0 + alpha * g1, abs=1e-12
            )

    def test_independent_part_uses_product_of_marginal(self):
        # A fully off-diagonal pair: the independent term must mix the
        # two values, not just OR them pointwise.
        d = SymmetricPairDist.from_pairs([(0.2, 0.6, 1.0)])
        h = lambda x: -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        expect = 0.25 * h(0.2 + 0.2 - 0.04) + 0.5 * h(0.2 + 0.6 - 0.12) + 0.25 * h(0.6 + 0.6 - 0.36)
        assert mixed_or_entropy(d, 0.0) == pytest.approx(expect, abs=1e-12)


class TestEntropyRatio:
    def test_frozen_beta_zero_value(self):
        # Single block at 0.3: ratio(alpha=0) = h(0.51) / h(0.3).
        fam = ExtremeFamily(0.3, 0.3, 0.3)
        assert entropy_ratio(fam, 0.0) == pytest.approx(1.1343716843388378, abs=1e-12)

    def test_alpha_one_uses_fullcorr_probability(self):
        fam = ExtremeFamily(0.3, 0.3, 0.3)
        # max-entropy OR probability of (0.3, 0.3) at full correlation is 1/2.
        assert entropy_ratio(fam, 1.0) == pytest.approx(1.0 / H_03, abs=1e-12)

    def test_degenerate_marginal_raises(self):
        with pytest.raises(DegenerateDenominator):
            entropy_ratio(ExtremeFamily(0.0, 0.0, 0.2), 0.5)

    def test_mass_at_one_costs_nothing_upstairs(self):
        # Adding the (1, 1) block leaves the correlated numerator at
        # h(1) = 0 for that block, so the ratio drops below the
        # single-block value at alpha = 0.
        single = entropy_ratio(ExtremeFamily(0.3, 0.3, 0.3), 0.0)
        lifted = entropy_ratio(ExtremeFamily(0.3, 0.3, 0.32, 1.0, 1.0), 0.0)
        assert lifted < single
