"""Enumeration lab: closures, frequencies, and the coupling-entropy ceiling's family count."""

import csv
import hashlib
import io
import itertools
import json
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from ucsbound import ucslab
from ucsbound.cli import main
from ucsbound.errors import DimensionTooLarge, NotClosed
from ucsbound.ucslab import (
    EntropyCheckReport,
    FamilySet,
    check_entropy_inequality,
    element_frequencies,
    enumerate_or_closed,
    frequency_list,
    is_or_closed,
    lowest_peak,
    max_symmetric_coupling_entropy,
    min_peak_frequency,
    peak_frequency,
    sample_or_closed,
    scan,
    _HEADER,
    _chunks,
    _closed_masks,
    _fold,
    _sheet,
    _tally,
)

SEED = 31337


def counted(monkeypatch, name):
    """One cell counting the calls of ``ucslab.<name>`` while the test runs."""
    count = [0]
    real = getattr(ucslab, name)

    def wrapper(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(ucslab, name, wrapper)
    return count


@pytest.fixture
def constructions(monkeypatch):
    """One cell counting the FamilySets built while the test runs."""
    count = [0]
    real = FamilySet.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(FamilySet, "__new__", counted)
    return count


def naive_closed_families(n):
    """Independent enumeration oracle built on frozensets, not bitmasks."""
    ground = range(n)
    subsets = []
    for r in range(n + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(ground, r))
    out = []
    for r in range(1, len(subsets) + 1):
        for combo in itertools.combinations(subsets, r):
            family = set(combo)
            if all(a | b in family for a in family for b in family):
                out.append(family)
    return out


def pairwise_closed(mask, size):
    """Closure oracle: True iff the family mask over ``size`` candidate sets is OR-closed.

    Each member is paired with the smaller ones as the scan meets it, so
    an open family is rejected without listing all its members first.
    """
    seen = []
    for k in range(size):
        if (mask >> k) & 1:
            for a in seen:
                if not (mask >> (a | k)) & 1:
                    return False
            seen.append(k)
    return True


def reference_closure(n, generators):
    """Closure oracle on sets: sorted, deduplicated generators folded one by one."""
    members = set()
    for g in sorted({int(g) for g in generators}):
        members |= {g} | {g | m for m in members}
    return sum(1 << m for m in members)


def family_to_masks(family):
    return frozenset(sum(1 << e for e in member) for member in family)


def member_loop_frequencies(family):
    """Element frequencies by the definition: one count per member and element."""
    members = family.members
    freq = np.zeros(family.n)
    for m in members:
        for e in range(family.n):
            if (m >> e) & 1:
                freq[e] += 1.0
    return freq / len(members)


class TestFamilySet:
    def test_members_round_trip(self):
        fam = FamilySet(3, 1 << 0 | 1 << 3 | 1 << 7)
        assert fam.members == (0, 3, 7)
        assert fam.size == 3
        assert fam.hex_mask == "0x89"

    @pytest.mark.parametrize("n,mask", [(0, 1), (6, 1), (2, 0), (2, 1 << 4)])
    def test_rejects_invalid(self, n, mask):
        with pytest.raises(ValueError):
            FamilySet(n, mask)

    @pytest.mark.parametrize("n", [-1, 0, 6])
    def test_bad_ground_size_is_named_before_any_member_is_read(self, n):
        # n = -1 used to fail on 1 << n with "negative shift count".  The
        # size is checked before the mask that holds the members is read.
        error = DimensionTooLarge if n > 5 else ValueError
        for mask in (1, "members"):
            with pytest.raises(error, match=rf"^ground-set size must be in 1\.\.5, got {n}$") as info:
                FamilySet(n, mask)
            assert type(info.value) is error

    # (n, mask, message of the ValueError or None if accepted): both
    # edges of the mask range for every n, the masks just outside them,
    # sizes outside 1..5, and each kind of non-int value for n and mask.
    VALIDATION = [
        *[(n, 1, None) for n in range(1, 6)],
        *[(n, (1 << (1 << n)) - 1, None) for n in range(1, 6)],
        *[(n, 0, rf"family mask must be in \[1, 2\^\(2\^{n}\)\), got 0") for n in range(1, 6)],
        *[
            (n, 1 << (1 << n), rf"family mask must be in \[1, 2\^\(2\^{n}\)\), got {1 << (1 << n)}")
            for n in range(1, 6)
        ],
        (0, 1, r"ground-set size must be in 1\.\.5, got 0"),
        (6, 1, r"ground-set size must be in 1\.\.5, got 6"),
        (True, 3, None),
        (np.int64(3), 3, None),
        (3.0, 3, r"ground-set size must be an integer, got 3\.0"),
        ("3", 3, r"ground-set size must be an integer, got '3'"),
        (2, True, None),
        (2, np.int64(3), None),
        (2, 3.0, r"family mask must be an integer, got 3\.0"),
        (2, "3", r"family mask must be an integer, got '3'"),
    ]

    @pytest.mark.parametrize(
        "n, mask, message", VALIDATION, ids=[f"{n!r}-{mask!r}" for n, mask, _ in VALIDATION]
    )
    def test_validation_table(self, n, mask, message):
        if message is not None:
            with pytest.raises(ValueError, match=f"^{message}$"):
                FamilySet(n, mask)
            return
        fam = FamilySet(n, mask)
        assert type(fam.n) is int and type(fam.mask) is int
        assert (fam.n, fam.mask) == (int(n), int(mask))


# Every public function that takes a ground-set size, called with n.
ENTRY_POINTS = {
    "FamilySet": lambda n: FamilySet(n, 3),
    "enumerate_or_closed": lambda n: list(enumerate_or_closed(n)),
    "min_peak_frequency": lambda n: min_peak_frequency(n),
    "check_entropy_inequality": lambda n: check_entropy_inequality(n),
    "sample_or_closed": lambda n: sample_or_closed(n, 5, 1),
}


def as_plain(value):
    """The value with each family as (type of n, n, mask), for comparing results."""
    if isinstance(value, FamilySet):
        return type(value.n), value.n, value.mask
    if isinstance(value, EntropyCheckReport):
        return [getattr(value, name) for name in value._fields]
    if isinstance(value, (list, tuple)):
        return [as_plain(v) for v in value]
    return value


class TestGroundSetSize:
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    @pytest.mark.parametrize("n", [4.0, "4"])
    def test_non_integer_size_is_named(self, name, n):
        # A float used to fail on 1 << n with a bare TypeError.
        with pytest.raises(ValueError, match=rf"ground-set size must be an integer, got {n!r}"):
            ENTRY_POINTS[name](n)

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_numpy_integer_size_works_as_an_int(self, name):
        assert as_plain(ENTRY_POINTS[name](np.int64(4))) == as_plain(ENTRY_POINTS[name](4))

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    @pytest.mark.parametrize("n", [-1, 0, 6, 7])
    def test_out_of_range_size_gets_the_one_message(self, name, n):
        # MAX_ENUM_N is the one cap: every entry point refuses a size
        # outside 1..5 with the same message, DimensionTooLarge above it.
        error = DimensionTooLarge if n > 5 else ValueError
        with pytest.raises(error, match=rf"^ground-set size must be in 1\.\.5, got {n}$") as info:
            ENTRY_POINTS[name](n)
        assert type(info.value) is error

    def test_bool_size_is_kept_as_an_int(self):
        fam = FamilySet(True, 1)
        assert type(fam.n) is int and fam == FamilySet(1, 1)


# Argument name -> a call taking it, where 3 is a valid value.
INTEGER_ARGUMENTS = {
    "family mask": lambda v: FamilySet(2, v),
    "count": lambda v: sample_or_closed(3, v, 1),
    "seed": lambda v: sample_or_closed(3, 5, v),
}


class TestIntegerArguments:
    @pytest.mark.parametrize("arg", list(INTEGER_ARGUMENTS))
    @pytest.mark.parametrize("value", [3.0, "3"])
    def test_non_integer_is_named(self, arg, value):
        # Each is checked before use: a float mask would construct.
        with pytest.raises(ValueError, match=rf"{arg} must be an integer, got {value!r}"):
            INTEGER_ARGUMENTS[arg](value)

    @pytest.mark.parametrize("arg", list(INTEGER_ARGUMENTS))
    @pytest.mark.parametrize("value", [True, np.int64(3)], ids=["True", "np.int64(3)"])
    def test_bool_and_numpy_integers_work_as_ints(self, arg, value):
        got = INTEGER_ARGUMENTS[arg](value)
        assert as_plain(got) == as_plain(INTEGER_ARGUMENTS[arg](int(value)))
        families = got if isinstance(got, list) else [got]
        assert all(type(fam.mask) is int for fam in families)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((3, 0, 1), "count must be >= 1, got 0"),
            ((3, 5, -1), "seed must be >= 0, got -1"),
        ],
    )
    def test_sampling_bounds_are_named(self, args, message):
        with pytest.raises(ValueError, match=message):
            sample_or_closed(*args)


class TestIsOrClosed:
    def test_hand_cases(self):
        assert is_or_closed(FamilySet(2, 0b1))  # {empty}
        assert is_or_closed(FamilySet(2, 0b11))  # {empty}, {e0}
        assert is_or_closed(FamilySet(3, (1 << 8) - 1))  # full cube
        # {e0}, {e1} without their union:
        assert not is_or_closed(FamilySet(2, 0b110))

    def test_matches_naive_oracle(self):
        for n in (1, 2):
            for fam in naive_closed_families(n):
                encoded = FamilySet(n, sum(1 << m for m in family_to_masks(fam)))
                assert is_or_closed(encoded)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_pairwise_oracle_on_every_mask(self, n):
        size = 1 << n
        for mask in range(1, 1 << size):
            assert is_or_closed(FamilySet(n, mask)) == pairwise_closed(mask, size), hex(mask)

    def test_matches_pairwise_oracle_on_n5(self):
        # Random masks are almost never closed; one-bit flips of closed
        # families sit next to the boundary from both sides.
        rng = random.Random(SEED)
        masks = [rng.getrandbits(32) or 1 for _ in range(100_000)]
        for fam in sample_or_closed(5, 300, SEED):
            masks += [fam.mask ^ (1 << k) for k in range(32) if fam.mask != 1 << k]
        closed = 0
        for mask in masks:
            expected = pairwise_closed(mask, 32)
            assert is_or_closed(FamilySet(5, mask)) == expected, hex(mask)
            closed += expected
        assert closed > 1000


class TestOrClosure:
    """The closure fold over member sets in [0, 2^n), :func:`ucslab._fold`,
    which closes the sampler's draws, against :func:`reference_closure`."""

    def test_adds_missing_unions(self):
        assert FamilySet(2, _fold(2, [1, 2])).members == (1, 2, 3)

    def test_fixed_point_on_closed_input(self):
        assert FamilySet(3, _fold(3, [0, 1, 3, 7])).members == (0, 1, 3, 7)

    def test_closure_is_always_closed(self):
        rng = random.Random(SEED)
        for _ in range(100):
            gens = [rng.randrange(16) for _ in range(rng.randint(1, 4))]
            assert is_or_closed(FamilySet(4, _fold(4, gens)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_reference_fold(self, n):
        # Unsorted lists with repeats, as lists and as one-pass iterators;
        # no generators fold to 0, the empty family.
        rng = random.Random(SEED + n)
        assert _fold(n, []) == 0
        for _ in range(200):
            gens = [rng.randrange(1 << n) for _ in range(rng.randint(1, 8))]
            want = reference_closure(n, gens)
            assert _fold(n, gens) == _fold(n, iter(gens)) == want

    def test_closure_is_the_smallest_closed_superset(self):
        # Closed families are closed under intersection, so the smallest
        # one holding the generators is the AND of all that hold them.
        families = [f.mask for f in enumerate_or_closed(3)]
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            gens = [int(g) for g in rng.integers(0, 8, size=rng.integers(1, 5))]
            want = sum(1 << g for g in set(gens))
            meet = (1 << 8) - 1
            for mask in families:
                if mask & want == want:
                    meet &= mask
            assert _fold(3, gens) == meet


class TestFrequencies:
    def test_full_cube_frequencies_are_half(self):
        fam = FamilySet(3, (1 << 8) - 1)
        assert element_frequencies(fam) == pytest.approx([0.5, 0.5, 0.5], abs=1e-15)
        assert peak_frequency(fam) == 0.5

    def test_empty_only_family_has_zero_peak(self):
        assert peak_frequency(FamilySet(2, 0b1)) == 0.0

    def test_hand_case(self):
        fam = FamilySet(2, 0b1010)  # {e0}, {e0,e1}
        assert element_frequencies(fam) == pytest.approx([1.0, 0.5], abs=1e-15)

    @staticmethod
    def check_against_member_loop(families):
        """Arrays match the member loop; peaks and sheet rows match the arrays bit for bit."""
        n, masks = families[0].n, [fam.mask for fam in families]
        tops, sizes, columns = _tally(n, masks, columns=True)
        peaks = [top / size for top, size in zip(tops, sizes)]
        rows = list(_sheet(n, masks, sizes, tops, columns))
        assert len(peaks) == len(rows) == len(families)
        for fam, p_a, line in zip(families, peaks, rows):
            freqs = element_frequencies(fam)
            assert freqs.tobytes() == member_loop_frequencies(fam).tobytes()
            peak = float(freqs.max())
            assert peak_frequency(fam).hex() == peak.hex()
            assert p_a.hex() == peak.hex()
            assert line.split(",")[4] == ";".join(repr(float(v)) for v in freqs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_popcounts_match_member_loop_on_every_family(self, n):
        self.check_against_member_loop(list(enumerate_or_closed(n)))

    @staticmethod
    def check_against_frequency_list(families):
        for fam in families:
            freqs = element_frequencies(fam)
            assert freqs.dtype == np.float64
            assert freqs.tobytes() == np.array(frequency_list(fam)).tobytes()

    def test_each_call_returns_a_fresh_array(self):
        fam = FamilySet(2, 0b1010)  # {e0}, {e0,e1}
        first = element_frequencies(fam)
        first[:] = -1.0
        second = element_frequencies(fam)
        assert second is not first and second.flags.writeable
        assert second.tolist() == frequency_list(fam) == [1.0, 0.5]

    def test_array_is_the_frequency_list_bit_for_bit(self):
        for n in (1, 2, 3, 4):
            self.check_against_frequency_list(list(enumerate_or_closed(n)))
        self.check_against_frequency_list(sample_or_closed(5, 500, SEED))

    def test_popcounts_match_member_loop_on_sampled_n5(self):
        families = sample_or_closed(5, 250, SEED)[:200]
        assert len(families) == 200
        self.check_against_member_loop(families)
        self.check_against_member_loop(sample_or_closed(5, 200, 1))


class TestEnumeration:
    def test_counts_match_naive_oracle(self):
        for n, expected in ((1, 3), (2, 13)):
            ours = list(enumerate_or_closed(n))
            naive = naive_closed_families(n)
            assert len(ours) == len(naive) == expected

    def test_exact_families_match_naive_oracle(self):
        ours = {f.mask for f in enumerate_or_closed(2)}
        naive = set()
        for fam in naive_closed_families(2):
            mask = 0
            for member_mask in family_to_masks(fam):
                mask |= 1 << member_mask
            naive.add(mask)
        assert ours == naive

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_split_matches_brute_force_scan_in_order(self, n):
        size = 1 << n
        scan = [m for m in range(1, 1 << size) if pairwise_closed(m, size)]
        assert [f.mask for f in enumerate_or_closed(n)] == scan

    def test_split_counts_n5_ground_truth(self):
        # OEIS A102896: 2,771,103 closed families at n = 5.  The split
        # pairs each closed hi on 4 elements with every closed lo inside
        # its stabiliser; a sum over submasks counts those lo for every
        # 16-bit mask at once, so no pair is built.
        start = time.perf_counter()
        lower = _closed_masks(4)
        inside = np.zeros(1 << 16, dtype=np.int64)
        inside[list(lower)] = 1
        for k in range(16):
            halves = inside.reshape(-1, 2, 1 << k)
            halves[:, 1, :] += halves[:, 0, :]
        count = sum(int(inside[ucslab._stabiliser(4, hi)]) for hi in lower)
        elapsed = time.perf_counter() - start
        assert count - 1 == 2_771_103  # less the empty family
        assert elapsed <= 3.0

    def test_frozen_count_n3(self):
        assert sum(1 for _ in enumerate_or_closed(3)) == 121

    def test_all_enumerated_are_closed(self):
        for fam in enumerate_or_closed(3):
            assert is_or_closed(fam)

    def test_too_large_raises(self):
        with pytest.raises(DimensionTooLarge):
            list(enumerate_or_closed(6))

    @pytest.mark.parametrize(
        "n,error", [(6, DimensionTooLarge), (0, ValueError), ("x", ValueError)]
    )
    def test_bad_size_raises_when_called_not_when_iterated(self, n, error):
        with pytest.raises(error):
            enumerate_or_closed(n)


class TestClosedTable:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_table_is_every_closed_mask_with_its_stabiliser(self, k):
        size = 1 << k

        def stabiliser(mask):
            members = [y for y in range(size) if mask >> y & 1]
            return sum(1 << x for x in range(size) if all(mask >> (x | y) & 1 for y in members))

        closed = [m for m in range(1 << size) if pairwise_closed(m, size)]
        assert list(_closed_masks(k)) == closed
        assert [ucslab._stabiliser(k, m) for m in closed] == list(map(stabiliser, closed))

    @staticmethod
    def clear_tables():
        ucslab._closed_masks.cache_clear()
        ucslab._enumerated.cache_clear()

    def test_each_size_up_to_four_is_walked_once_per_process(self, monkeypatch):
        # Every n <= 4 job reads the masks built by the first walk of each
        # size; only n = 5 is walked per scan.
        self.clear_tables()
        walks = []
        real = ucslab._split
        monkeypatch.setattr(ucslab, "_split", lambda n: walks.append(n) or real(n))
        for _ in range(2):
            for n in range(1, 5):
                list(enumerate_or_closed(n))
                scan(n, io.StringIO())
                min_peak_frequency(n)
                check_entropy_inequality(n)
        assert sorted(walks) == [2, 3, 4]
        next(_chunks(5))
        assert sorted(walks) == [2, 3, 4, 5]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_call_up_to_four_yields_the_same_families(self, n):
        self.clear_tables()
        first = list(enumerate_or_closed(n))
        second = list(enumerate_or_closed(n))
        assert len(first) == len(second) == [3, 13, 121, 4959][n - 1]
        assert all(a is b for a, b in zip(first, second))
        assert ucslab._enumerated.cache_info().misses == 1

    @pytest.mark.parametrize("size", [None, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_shared_families_are_the_streamed_ones_in_order(self, n, size, monkeypatch):
        # The same masks, in the same order, as streaming the chunks through
        # the one construction gives, at the default chunk size and a small one.
        if size is not None:
            monkeypatch.setattr(ucslab, "_CHUNK", size)
        self.clear_tables()
        streamed = list(ucslab._families(n, itertools.chain.from_iterable(_chunks(n))))
        shared = list(enumerate_or_closed(n))
        assert shared == streamed and [f.mask for f in shared] == list(_closed_masks(n))[1:]
        assert all(type(f) is FamilySet and f.n == n for f in shared)

    def test_enumerating_five_elements_caches_no_families(self):
        self.clear_tables()
        for n in range(1, 5):
            list(enumerate_or_closed(n))
        # Counted, not listed: the families on 5 elements are not held at once.
        assert sum(1 for _ in enumerate_or_closed(5)) == 2_771_103
        info = ucslab._enumerated.cache_info()
        assert (info.misses, info.currsize) == (4, 4)

    def test_a_chunk_is_the_callers_own_list(self):
        before = scan(4), [f.mask for f in enumerate_or_closed(4)]
        next(_chunks(4)).clear()
        assert (scan(4), [f.mask for f in enumerate_or_closed(4)]) == before

    def test_the_n5_scan_caches_no_masks_of_its_own(self):
        self.clear_tables()
        next(_chunks(5))
        for n in range(5):
            ucslab._closed_masks(n)
        # Sizes 0..4, each built once, and nothing else.
        info = ucslab._closed_masks.cache_info()
        assert (info.misses, info.currsize) == (5, 5)

    def test_closure_proofs_build_the_tables_up_to_three_elements(self):
        # A closure proof up to n = 5 looks n <= 3 up and computes the
        # stabilisers it needs: it builds no table on 4 elements, which
        # the n = 4 and n = 5 scans build once, and no other table.
        self.clear_tables()
        families = sample_or_closed(5, 300, SEED)
        assert all(is_or_closed(f) for f in families) and len(families) > 100
        # Sizes 0..3 built, each once, and nothing else.
        info = ucslab._closed_masks.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        next(_chunks(5))
        next(_chunks(5))
        info = ucslab._closed_masks.cache_info()
        assert (info.misses, info.currsize) == (5, 5)


class TestMinPeakFrequency:
    def test_half_with_deterministic_witness(self):
        for n in (1, 2, 3):
            value, witness = min_peak_frequency(n)
            assert value == 0.5
            assert witness.mask == 0x3  # {empty, {e0}}

    def test_empty_only_family_is_excluded(self):
        # Without the exclusion the minimum would be 0 via {empty}.
        value, _ = min_peak_frequency(2)
        assert value > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_witness_is_smallest_mask_of_least_peak(self, n):
        peaks = {f.mask: peak_frequency(f) for f in enumerate_or_closed(n) if f.mask != 1}
        least = min(peaks.values())
        value, witness = min_peak_frequency(n)
        assert value == least
        assert witness.mask == min(m for m, p in peaks.items() if p == least)

    def test_order_does_not_change_the_witness(self):
        families = sample_or_closed(5, 200, seed=1)
        peaks, masks = [peak_frequency(f) for f in families], [f.mask for f in families]
        forward = lowest_peak(peaks, masks)
        least = min(p for p, m in zip(peaks, masks) if m != 1)
        assert forward == (least, min(m for p, m in zip(peaks, masks) if p == least and m != 1))
        assert lowest_peak(peaks[::-1], masks[::-1]) == forward
        assert lowest_peak([], []) is None
        assert lowest_peak([0.0], [1]) is None  # {empty set}
        assert lowest_peak([0.5, 0.0], [0x3, 1]) == (0.5, 0x3)
        peaks, masks = [0.0, 0.5, 0.5], [1, 0x5, 0x3]
        assert lowest_peak(peaks, masks) == (0.5, 0x3)
        assert (peaks, masks) == ([0.0, 0.5, 0.5], [1, 0x5, 0x3])  # left as they were

    @pytest.mark.parametrize(
        "peaks, masks, least",
        [
            ([0.0, 0.5, 0.75, 0.5], [1, 0x5, 0xF, 0x3], (0.5, 0x3)),  # mask 1 first
            ([0.5, 0.75, 0.0, 0.5], [0x5, 0xF, 1, 0x3], (0.5, 0x3)),  # in the middle
            ([0.5, 0.75, 0.5, 0.0], [0x5, 0xF, 0x3, 1], (0.5, 0x3)),  # last
            ([0.0, 0.5, 0.0, 0.75, 0.5, 0.0], [1, 0x5, 1, 0xF, 0x3, 1], (0.5, 0x3)),  # repeated
            ([0.5, 0.75, 0.5], [0x5, 0xF, 0x3], (0.5, 0x3)),  # absent
            ([0.0, 0.0], [1, 1], None),  # nothing else
        ],
    )
    def test_mask_one_anywhere_is_passed_over_and_the_lists_are_kept(self, peaks, masks, least):
        before = list(peaks), list(masks)
        assert lowest_peak(peaks, masks) == least
        assert (peaks, masks) == before

    @pytest.mark.parametrize("peaks, masks", [([0.5], [0x3, 0x5]), ([0.5, 0.25], [0x3]), ([], [0x3])])
    def test_lists_of_unequal_length_raise(self, peaks, masks):
        # zip would cut both to the shorter: ([0.5], [0x3, 0x5]) gave
        # (0.5, 0x3) without reading 0x5.
        message = f"got {len(peaks)} peaks and {len(masks)} masks"
        with pytest.raises(ValueError, match=message):
            lowest_peak(peaks, masks)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_masks_give_the_rule_over_families(self, n):
        value, witness = min_peak_frequency(n)
        families = list(enumerate_or_closed(n))
        peak, mask = lowest_peak([peak_frequency(f) for f in families], [f.mask for f in families])
        assert value.hex() == peak.hex()
        assert witness == FamilySet(n, mask)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scan_keeps_the_pair_rule(self, n):
        # The least (peak, mask) tuple over every family but {empty set}.
        peak, mask = min((peak_frequency(f), f.mask) for f in enumerate_or_closed(n) if f.mask != 1)
        got_peak, got_mask = scan(n)[1]
        assert (got_peak.hex(), got_mask) == (peak.hex(), mask)

    def test_builds_the_witness_alone(self, constructions):
        min_peak_frequency(4)
        assert constructions == [1]

    def test_reads_the_closed_masks_once(self, monkeypatch):
        calls = []
        real = ucslab._chunks
        monkeypatch.setattr(ucslab, "_chunks", lambda n: calls.append(n) or real(n))
        min_peak_frequency(4)
        assert calls == [4]

    @staticmethod
    def check_columns_against_peak_frequency(n, masks):
        """The kernel's counts are each family's popcounts, and its peaks
        are :func:`peak_frequency` bit for bit."""
        tops, sizes, columns = _tally(n, masks, columns=True)
        assert list(sizes) == list(map(int.bit_count, masks))
        assert [list(column) for column in columns] == [[(m & c).bit_count() for m in masks] for c in ucslab._CONTAIN[n]]
        assert _tally(n, masks) == (tops, sizes, [])
        got = [(top / size).hex() for top, size in zip(tops, sizes)]
        assert got == [peak_frequency(FamilySet(n, mask)).hex() for mask in masks]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_columns_give_peak_frequency_on_every_family(self, n):
        # Every closed family but the empty one, 0, which has no size.
        self.check_columns_against_peak_frequency(n, list(_closed_masks(n))[1:])

    def test_columns_give_peak_frequency_on_sampled_n5_in_draw_order(self):
        masks = [fam.mask for fam in sample_or_closed(5, 500, SEED)]
        assert masks != sorted(masks)
        self.check_columns_against_peak_frequency(5, masks)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_columns_fill_each_field_to_its_edge(self, n):
        # The full family has 2^n members, the most a field holds, and sets
        # every bit of its field; {ground set} is the top bit alone.
        full, top = (1 << (1 << n)) - 1, 1 << ((1 << n) - 1)
        assert _tally(n, [full]) == (bytes([1 << (n - 1)]), bytes([1 << n]), [])
        assert _tally(n, [top]) == (b"\x01", b"\x01", [])
        for masks in ([full], [top], [top, full, top], [1, full, 0x3, top]):
            self.check_columns_against_peak_frequency(n, masks)


class TestChunkedScan:
    """The exhaustive scans take the closed masks in chunks of ``_CHUNK``;
    at any chunk size they give what one chunk of every mask gives."""

    @staticmethod
    def scan_with_sheet(n):
        """:func:`scan`'s count, least pair and report, and the sheet it writes."""
        sheet = io.StringIO()
        return (*scan(n, sheet), sheet.getvalue())

    @pytest.mark.parametrize("size", [7, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chunks_split_the_closed_masks(self, n, size, monkeypatch):
        monkeypatch.setattr(ucslab, "_CHUNK", size)
        chunks = list(_chunks(n))
        assert [len(c) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert 1 <= len(chunks[-1]) <= size
        assert list(itertools.chain(*chunks)) == list(_closed_masks(n))[1:]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_up_to_four_elements_is_one_chunk(self, n):
        assert list(_chunks(n)) == [list(_closed_masks(n))[1:]]

    @pytest.mark.parametrize("size", [7, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_any_chunk_size_gives_the_single_chunk_results(self, n, size, monkeypatch):
        masks = list(_closed_masks(n))[1:]
        whole = self.scan_with_sheet(n)
        value, witness = min_peak_frequency(n)
        report = check_entropy_inequality(n)
        assert whole[0] == len(masks) and whole[2] == report
        monkeypatch.setattr(ucslab, "_CHUNK", size)
        assert len(list(_chunks(n))) > 1 or len(masks) <= size
        assert self.scan_with_sheet(n) == whole
        chunked_value, chunked_witness = min_peak_frequency(n)
        assert (chunked_value.hex(), chunked_witness) == (value.hex(), witness)
        assert check_entropy_inequality(n) == report

    @pytest.mark.parametrize("size", [7, 64])
    def test_sampled_masks_in_chunks_give_the_single_chunk_results(self, size, monkeypatch):
        # The fold relies on no order of the masks: these are in draw order.
        masks = [fam.mask for fam in sample_or_closed(5, 2000, 7)]
        assert masks != sorted(masks)
        monkeypatch.setattr(ucslab, "_chunks", lambda n: iter([masks]))
        whole = self.scan_with_sheet(5)
        chunks = [masks[i : i + size] for i in range(0, len(masks), size)]
        monkeypatch.setattr(ucslab, "_chunks", lambda n: iter(chunks))
        assert self.scan_with_sheet(5) == whole

    @pytest.mark.parametrize("size", [7, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumerate_command_is_byte_identical_in_chunks(self, n, size, tmp_path, monkeypatch):
        argv = ["enumerate", "--n", str(n), "--check-entropy", "--no-timestamps"]
        outputs = []
        for chunk in (ucslab._CHUNK, size):
            monkeypatch.setattr(ucslab, "_CHUNK", chunk)
            sheet, out = tmp_path / f"{chunk}.csv", tmp_path / f"{chunk}.json"
            assert main([*argv, "--csv", str(sheet), "--out", str(out)]) == 0
            outputs.append((sheet.read_bytes(), out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_a_tie_across_chunks_keeps_the_smallest_mask(self, monkeypatch):
        # {empty, {0}}, {empty, {1}} and the full cube on 2 elements all peak
        # at 1/2; {empty set}, 0x1, is passed over.
        for chunks in (
            [[0x5], [0x3]],
            [[0x3], [0x5]],
            [[0x5, 0x1], [0xF, 0x3]],
            [[0x5], [0xF, 0x1, 0x3]],
            [[0xF, 0x5, 0x3]],  # every peak in the chunk ties
        ):
            monkeypatch.setattr(ucslab, "_chunks", lambda n, chunks=chunks: iter(chunks))
            assert scan(2)[1] == (0.5, 0x3), chunks

    @pytest.mark.parametrize("chunks", [[], [[0x1]], [[0x1], [0x1]]])
    def test_no_eligible_family_gives_none(self, chunks, monkeypatch):
        monkeypatch.setattr(ucslab, "_chunks", lambda n: iter(chunks))
        assert scan(2)[:2] == (sum(map(len, chunks)), None)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumerated_families_are_plain_closed_family_sets(self, n):
        families = list(enumerate_or_closed(n))
        assert [f.mask for f in families] == list(_closed_masks(n))[1:]
        for fam in families:
            assert type(fam) is FamilySet
            assert fam == FamilySet(n, fam.mask) and fam.n == n
            assert is_or_closed(fam)

    @pytest.mark.slow
    def test_exhaustive_n5(self, tmp_path):
        # OEIS A102896: 2,771,103 closed families at n = 5, every one scanned,
        # in about 43 chunks: the one input that is more than one chunk.
        out = tmp_path / "n5.json"
        assert main(["enumerate", "--n", "5", "--check-entropy", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["family_count"] == 2_771_103
        assert (report["min_pA"], report["witness_mask"]) == (0.5, "0x3")
        assert report["violations"] == []
        block = report["entropy_check"]
        # The census: the 32 one-member families are skipped, as a tally of
        # the chunks' one-member masks finds.
        ones = sum(list(map(int.bit_count, masks)).count(1) for masks in _chunks(5))
        assert block == {"checked": 2_771_103 - 32, "skipped": 32} and ones == 32
        # The library's own entry points agree with the command's block.
        check = check_entropy_inequality(5)
        assert {key: getattr(check, key) for key in block} == block
        assert list(check.violations) == report["violations"]
        value, witness = min_peak_frequency(5)
        assert (value, witness.hex_mask) == (report["min_pA"], report["witness_mask"])
        assert witness == FamilySet(5, 0x3)


class TestSheet:
    @staticmethod
    def reference_sheet(families):
        """The sheet as ``csv`` writes it from the per-family frequencies and peak."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\r\n")
        writer.writerow(["n", "size", "mask", "p_A", "freqs", "H_X"])
        for fam in families:
            freqs = ";".join(map(repr, frequency_list(fam)))
            writer.writerow([fam.n, fam.size, hex(fam.mask), peak_frequency(fam), freqs, math.log2(fam.size)])
        return out.getvalue()

    def check_sheet(self, n, masks):
        families = [FamilySet(n, mask) for mask in masks]
        tops, sizes, columns = _tally(n, masks, columns=True)
        got = _HEADER + "".join(_sheet(n, masks, sizes, tops, columns))
        assert got == self.reference_sheet(families)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sheet_is_what_csv_writes_on_every_family(self, n):
        self.check_sheet(n, list(_closed_masks(n))[1:])

    def test_sheet_is_what_csv_writes_on_sampled_n5_in_draw_order(self):
        masks = [fam.mask for fam in sample_or_closed(5, 500, SEED)]
        assert masks != sorted(masks)
        self.check_sheet(5, masks)

    def test_rows_are_streamed_to_the_file(self):
        # The scan hands the file one row at a time: the sheet adds under a
        # tenth of its own text to the traced peak of the scan without one.
        # A chunk's rows held whole, as a list and then joined, added about
        # twice the text.
        class Sink:
            def write(self, text):
                pass

            def writelines(self, lines):
                for _ in lines:
                    pass

        def traced_peak(*sheet):
            tracemalloc.start()
            try:
                scan(4, *sheet)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        text = io.StringIO()
        scan(4, text)  # builds the closed tables before the peaks are read
        bare, streamed = traced_peak(), traced_peak(Sink())
        assert streamed - bare < len(text.getvalue()) / 10, (bare, streamed)


class TestSampling:
    def test_deterministic_in_seed(self):
        a = sample_or_closed(5, 20, seed=11)
        b = sample_or_closed(5, 20, seed=11)
        assert [f.mask for f in a] == [f.mask for f in b]

    def test_different_seed_differs(self):
        a = sample_or_closed(5, 20, seed=11)
        b = sample_or_closed(5, 20, seed=12)
        assert [f.mask for f in a] != [f.mask for f in b]

    def test_sampled_families_are_closed_and_distinct(self):
        fams = sample_or_closed(5, 30, seed=3)
        masks = [f.mask for f in fams]
        assert len(set(masks)) == len(masks)
        for fam in fams:
            assert is_or_closed(fam)

    def test_masks_are_the_pinned_draws(self):
        # The masks, in draw order, of the stdlib word rule (stdlib_draws)
        # for the seeds of this class.
        digest = hashlib.sha256()
        for n in range(1, 6):
            for seed in (0, 1, 3, 7, 11, 12, 12345, 2**31 - 5):
                digest.update(repr([f.mask for f in sample_or_closed(n, 2000, seed)]).encode())
        assert digest.hexdigest() == (
            "dd88baa9d1fb8de94ac741d0f626b60f3a03c900943bfa7de5f517fbd0390d57"
        )

    def test_checks_each_argument_once(self, monkeypatch, constructions):
        # n, count and seed once per call; the drawn generators are in
        # range by construction and are not checked, nor are the families.
        as_int = counted(monkeypatch, "_as_int")
        families = sample_or_closed(5, 500, SEED)
        assert as_int == [3]
        assert constructions == [0]
        assert all(type(f) is FamilySet and is_or_closed(f) for f in families)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_or_closed(5, 0, seed=1)

    def test_draws_are_pinned(self):
        # The first masks of the stdlib word rule (stdlib_draws) for seed 7;
        # another word source would change every sampled family for a seed.
        assert [f.mask for f in sample_or_closed(4, 6, 7)] == [
            0x8004, 0x401, 0x2000, 0x2222, 0x4000, 0xB
        ]

    @staticmethod
    def stdlib_draws(n, count, seed):
        """The sampled masks by the word rule on the 32-bit words of
        ``random.Random(seed)``: k = 1 + the top 2 bits of one word, then k
        generators, each the top n bits of one word, closed by
        :func:`reference_closure`."""
        word = random.Random(seed).getrandbits
        seen = {}
        for _ in range(count):
            k = 1 + (word(32) >> 30)
            seen.setdefault(reference_closure(n, [word(32) >> (32 - n) for _ in range(k)]))
        return list(seen)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_draws_are_the_stdlib_word_rule(self, n):
        for seed in (0, 1, 7, 12345, 2**31 - 5):
            for count in (1, 2, 3, 6, 500, 2000):
                got = [f.mask for f in sample_or_closed(n, count, seed)]
                assert got == self.stdlib_draws(n, count, seed), (seed, count)

    @pytest.mark.slow
    def test_memory_does_not_grow_with_the_draws(self):
        # The 17,614 families kept take about 1.8 MB and the call peaks near
        # 2.4 MB; a list of its ~350,000 words, drawn up front, would add
        # about 2.8 MB.
        tracemalloc.start()
        try:
            sample_or_closed(5, 10**5, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak


class TestMaxSymmetricCouplingEntropy:
    def test_full_cubes_reach_log_size(self):
        for n in (1, 2, 3):
            fam = FamilySet(n, (1 << (1 << n)) - 1)
            assert max_symmetric_coupling_entropy(fam) == n

    def test_chain_family(self):
        fam = FamilySet(2, 0b1011)  # {empty}, {e0}, {e0,e1}
        assert max_symmetric_coupling_entropy(fam) == math.log2(3)

    def test_ceiling_never_exceeded(self):
        for fam in enumerate_or_closed(2):
            if fam.size < 2:
                continue
            assert max_symmetric_coupling_entropy(fam) == math.log2(fam.size)

    def test_not_closed_raises(self):
        # {{0}, {1}}: the union {0, 1} is missing.
        with pytest.raises(NotClosed, match="^family 0x6 is not closed under OR$"):
            max_symmetric_coupling_entropy(FamilySet(2, 0b110))

    def test_singleton_family_is_trivial(self):
        h_star = max_symmetric_coupling_entropy(FamilySet(2, 0b1000))
        assert h_star == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_is_log2_size_on_every_closed_family(self, n):
        # The identity coupling meets the ceiling: the maximum is log2 |A|, exactly.
        for fam in enumerate_or_closed(n):
            assert max_symmetric_coupling_entropy(fam) == math.log2(fam.size), fam


class TestEntropyInequality:
    def test_no_violations_on_n2(self):
        report = check_entropy_inequality(2)
        assert report.ok
        assert report.violations == ()
        assert report.checked == 9  # 13 families minus 4 singletons
        assert report.skipped == 4

    def test_report_round_trip_keys(self):
        report = check_entropy_inequality(2)
        assert report.n == 2
        assert report.violations == ()
        assert report._fields == ("n", "checked", "skipped", "violations")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_masks_match_the_families_field_by_field(self, n):
        from_masks = check_entropy_inequality(n)
        sizes = [fam.size for fam in enumerate_or_closed(n)]
        ones = sizes.count(1)
        expected = EntropyCheckReport(n, len(sizes) - ones, ones, ())
        for other in (expected, scan(n)[2]):
            assert as_plain(from_masks) == as_plain(other)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_one_member_family_is_skipped(self, n):
        # Each of the 2^n sets alone is a closed family; every other one is
        # checked.  The census agrees with a tally of the one-member families.
        report = check_entropy_inequality(n)
        ones = sum(fam.size == 1 for fam in enumerate_or_closed(n))
        assert report.skipped == ones == 2**n
        assert report.checked + report.skipped == [3, 13, 121, 4959][n - 1]

    def test_builds_no_family(self, constructions):
        check_entropy_inequality(4)
        assert constructions == [0]

    def test_counts_sizes_without_columns(self, monkeypatch):
        # The check reads the masks once, and needs each family's size, not
        # its per-element counts.
        def tally(*args):
            raise AssertionError("the counts kernel ran")

        calls = []
        real = ucslab._chunks
        monkeypatch.setattr(ucslab, "_tally", tally)
        monkeypatch.setattr(ucslab, "_chunks", lambda n: calls.append(n) or real(n))
        assert check_entropy_inequality(4).checked == 4943
        assert calls == [4]

    def test_enumerate_command_builds_no_family(self, constructions, tmp_path, capsys):
        argv = ["enumerate", "--n", "4", "--check-entropy", "--csv", str(tmp_path / "f.csv")]
        assert main(argv) == 0
        assert constructions == [0]

    def test_open_family_raises(self):
        # The check covers closed families only: the maximum is refused, by
        # mask, for an open family, and the open masks on n = 2 (0x6 and
        # 0x7) are neither checked nor skipped.
        with pytest.raises(NotClosed, match="0x6"):
            max_symmetric_coupling_entropy(FamilySet(2, 0b110))
        open_masks = [m for m in range(1, 16) if not is_or_closed(FamilySet(2, m))]
        assert open_masks == [0x6, 0x7]
        report = check_entropy_inequality(2)
        assert report.checked + report.skipped == 15 - len(open_masks)

    def test_errors_name_the_ground_set_size(self):
        for n in ("4", 4.5, 0, -1):
            with pytest.raises(ValueError, match="ground-set size"):
                check_entropy_inequality(n)
        for n in (6, 7):
            with pytest.raises(DimensionTooLarge, match=r"^ground-set size must be in 1\.\.5, got"):
                check_entropy_inequality(n)
        for n in (0, 6):
            with pytest.raises(ValueError if n < 1 else DimensionTooLarge):
                scan(n)

    def test_ceiling_is_reached_on_n4(self):
        report = check_entropy_inequality(4)
        assert report.ok
        assert (report.checked, report.skipped) == (4943, 16)
        for fam in enumerate_or_closed(4):
            assert max_symmetric_coupling_entropy(fam) == math.log2(fam.size)
