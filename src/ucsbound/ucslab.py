"""Desk-scale laboratory for union-closed families on tiny ground sets.

A set over the ground elements {0, ..., n-1} is encoded as an integer
bitmask in [0, 2^n); taking unions is then bitwise OR.  A *family* of
such sets is in turn encoded as a bitmask over the 2^n possible
members.  Exhaustive enumeration for n <= 5 splits a family at its top
element n - 1 into two families on n - 1 elements: ``lo``, the members
lacking n - 1, and ``hi``, the members holding it, with n - 1 removed.
The family is closed iff both halves are and ``lo`` lies inside the
stabiliser of ``hi`` (see :func:`_split`).  Two cached tables per
ground-set size k <= 4, each built once per process, hold every closed
family on k elements: its masks (:func:`_closed_masks`), from one
:func:`_split` walk, which computes the stabilisers it pairs and keeps
none, and, read from those, each nonempty one as a FamilySet
(:func:`_enumerated`).  Enumeration pairs closed halves from the tables
one and two sizes down: it never meets the 2^(2^n) - 1 family masks one
by one.  A closure proof (:func:`is_or_closed`) reads no table: it tests
the definition, that each member's unions with the family are members.
Element frequencies are popcounts of the family mask against, per
element, the mask of every set containing it, over the family's size
(:func:`frequency_list`, :func:`element_frequencies`).  Over a chunk of
masks, :func:`_tally` packs them into one int, a field per mask, and
takes every family's per-element counts, largest count and size as
SWAR popcounts over all the fields at once: the peaks are the largest
counts over the sizes, and the ``--csv`` sheet (:func:`_sheet`) reads
the per-element counts too and yields its rows one at a time.  Only
:func:`element_frequencies` uses numpy, imported on its first call and
kept (:func:`_numpy`); no command calls it (the lab pass in
``benchmarks/`` does), and the package does not install numpy.  The
sampler (:func:`sample_or_closed`) draws its words from the standard
library's ``random.Random``.

Each input is checked once, where it enters: a :class:`FamilySet`, the
named tuple (n, mask), checks both in ``__new__`` (``_replace`` and
``_make`` skip it), and every public function checks its other
arguments first, each ground-set size by :func:`_ground_size`.  Every
integer input (ground-set size, family mask, sample count and seed) is
taken by :func:`ucsbound.scalars.require_int`, the rule the search's
knobs share, so a numpy integer or a bool is stored as an int.  Closure
is one fold over masks (:func:`_fold`), which :func:`sample_or_closed`
feeds with its drawn words, in range by construction.
A family the lab builds itself, closed and in range by construction, is
made as ``_make`` makes one, without a second check (:func:`_families`).
Exhaustive scans take the closed masks in ascending chunks of at most
``_CHUNK`` masks (:func:`_chunks`): n <= 4 is one chunk, copied from
:func:`_closed_masks`, and n = 5, 2,771,103 families, is walked anew by
each scan or enumeration, in bounded memory, and never cached.  One
fold over the chunks, :func:`scan`, serves :func:`min_peak_frequency`
and ``enumerate``: per chunk, :func:`lowest_peak` takes the least nonzero
peak by one ``min`` over the floats and its witness by one over the
masks that reach it: only the family {empty set}, mask 1, peaks at 0.
:func:`check_entropy_inequality` counts families alone, and both it and
:func:`scan` report the count as a census (:func:`_census`).

Besides enumeration and frequency bookkeeping, the module states the
coupling-entropy ceiling H(X OR Y) <= log2 |A| over symmetric couplings
of two uniform copies of a family, and the identity coupling Y = X
meets it: :func:`max_symmetric_coupling_entropy` is log2 |A| once the
family is proved closed.  So the ceiling check over every closed family
counts them, skipping those of one member, which are the 2^n families
{S}, and finds no violation.
Enumerated masks are closed by construction and are not proved again.
"""

from __future__ import annotations

import functools
import importlib
import math
import operator
import random
import struct
from itertools import chain, compress, islice, repeat
from typing import Iterable, Iterator, NamedTuple, TextIO

from .errors import DimensionTooLarge, NotClosed
from .scalars import require_int

__all__ = [
    "MAX_ENUM_N",
    "FamilySet",
    "EntropyCheckReport",
    "is_or_closed",
    "frequency_list",
    "element_frequencies",
    "peak_frequency",
    "enumerate_or_closed",
    "lowest_peak",
    "scan",
    "min_peak_frequency",
    "sample_or_closed",
    "max_symmetric_coupling_entropy",
    "check_entropy_inequality",
]

# Exhaustive enumeration yields every OR-closed family: 4959 at n = 4 and
# 2,771,103 at n = 5, which the exhaustive scans take a chunk at a time.
# It is the one cap on a ground-set size (:func:`_ground_size`).
MAX_ENUM_N = 5

# The most masks an exhaustive scan holds at once (:func:`_chunks`).  At
# least 2^14, so that n <= 4, 4959 families, is a single chunk.
_CHUNK = 1 << 16

# _CONTAIN[n][e]: the family mask of every subset of {0, ..., n-1} that
# contains element e, for each n in 0..5 (0 is the split's bottom level).
_CONTAIN = {
    n: tuple(sum(1 << k for k in range(1 << n) if (k >> e) & 1) for e in range(n))
    for n in range(6)
}

# _MOVES[n]: (1 << e, sets containing e, sets lacking e) per element e.
_MOVES = {
    n: tuple((1 << e, has, has ^ ((1 << (1 << n)) - 1)) for e, has in enumerate(contain))
    for n, contain in _CONTAIN.items()
}


def _ground_size(n) -> int:
    """n as an int in 1..MAX_ENUM_N; :class:`DimensionTooLarge` above it,
    ``ValueError`` below 1 or for a non-integer, each naming n."""
    size = require_int(n, "ground-set size")
    if not 1 <= size <= MAX_ENUM_N:
        error = ValueError if size < 1 else DimensionTooLarge
        raise error(f"ground-set size must be in 1..{MAX_ENUM_N}, got {n!r}")
    return size


class _FamilySet(NamedTuple):
    n: int
    mask: int


class FamilySet(_FamilySet):
    """A nonempty family of subsets of {0, ..., n-1}, as a member bitmask.

    Bit k of ``mask`` is set iff the subset with element-bitmask k
    belongs to the family.  Note the empty *set* (k = 0) is an ordinary
    member; only the empty *family* is forbidden.

    Building one converts n and the mask to ``int`` (a bool or a numpy
    integer too) and checks n in 1..5 and the mask in [1, 2^(2^n)); any
    other value raises ``ValueError`` naming the ground-set size or the
    mask (:class:`DimensionTooLarge`, a subclass, for n above 5).  The
    family is a named tuple ``(n, mask)``; its ``_replace`` and ``_make``
    skip the check, so build a new FamilySet instead.  The lab's own
    builders (enumeration and the sampler) check their inputs where they
    enter and skip it too, as their masks are in range by construction:
    each value is checked once.
    """

    __slots__ = ()

    def __new__(cls, n: int, mask: int) -> FamilySet:
        n = _ground_size(n)
        mask = require_int(mask, "family mask")
        if not 1 <= mask < (1 << (1 << n)):
            raise ValueError(f"family mask must be in [1, 2^(2^{n})), got {mask!r}")
        return tuple.__new__(cls, (n, mask))

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(k for k in range(1 << self.n) if (self.mask >> k) & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def hex_mask(self) -> str:
        return f"0x{self.mask:x}"


def _unions(n: int, i: int, mask: int) -> int:
    """Family mask of {i | m : m a member of ``mask``}, on n elements.

    For each element of i, the members lacking it move up by the shift
    that adds it, which turns the members into their unions with i.
    """
    for shift, has, lacks in _MOVES[n]:
        if i & shift:
            mask = ((mask & lacks) << shift) | (mask & has)
    return mask


def _stabiliser(n: int, mask: int) -> int:
    """Family mask of {x : x | y is a member for every member y}, on n >= 0 elements.

    It holds the empty set, and for a closed family it is itself closed.
    """
    return sum(1 << x for x in range(1 << n) if not _unions(n, x, mask) & ~mask)


def _split(n: int) -> Iterator[list[int]]:
    """Ascending closed family masks on n >= 2 elements, 0 included, in one
    list per ``hi``, from the closed masks on n - 1 and n - 2 elements
    (:func:`_closed_masks`).

    A family on n elements splits at element n - 1 into ``lo``, its
    members lacking n - 1, and ``hi``, its members holding n - 1 with
    n - 1 removed; its mask is ``lo | hi << 2^(n-1)``.  It is closed iff
    ``lo`` and ``hi`` are and every member of ``lo`` is in the stabiliser
    of ``hi``.  The ``lo`` inside a stabiliser come from the same split
    one level down, over the closed masks on n - 2 elements: ``lo``
    splits into a top half ``h`` and a bottom half, and lies inside the
    stabiliser iff each half lies inside the stabiliser's.  So no ``lo``
    outside it is ever built.  Each stabiliser is computed here, once
    per walk (:func:`_stabiliser`), and not kept after it.
    """
    shift, half = 1 << (n - 1), 1 << (n - 2)
    table = [(h, _stabiliser(n - 2, h)) for h in _closed_masks(n - 2)]
    # inside[x]: the closed masks on n - 2 elements inside the mask x.
    inside = [[m for m, _ in table if not m & ~x] for x in range(1 << half)]
    for hi in _closed_masks(n - 1):
        stab = _stabiliser(n - 1, hi)
        bottom, top = stab & ((1 << half) - 1), stab >> half
        high = hi << shift
        # "for head in (...,)" binds the block's shared high bits once per h.
        yield [
            head | m
            for h, s in table
            if not h & ~top
            for head in (high | h << half,)
            for m in inside[s & bottom]
        ]


@functools.cache
def _closed_masks(n: int) -> tuple[int, ...]:
    """Every closed family mask on 0 <= n <= 4 elements, 0 included,
    ascending: every mask for n <= 1, where all are closed, and one
    :func:`_split` walk above that; built once per process, never
    changed: 4,960 masks, about 180 KB, at n = 4."""
    return tuple(chain.from_iterable(_split(n))) if n > 1 else tuple(range(1 << (1 << n)))


def _chunks(n: int) -> Iterator[list[int]]:
    """Every nonempty closed family mask on 1 <= n <= 5 elements, ascending,
    in fresh lists of ``_CHUNK`` masks but the last, which holds the rest.

    n <= 4 is copied from :func:`_closed_masks`; n = 5 comes from
    :func:`_split`'s per-``hi`` blocks, so that no list holds them all,
    and nothing of it is cached.
    """
    masks = iter(_closed_masks(n)) if n <= 4 else chain.from_iterable(_split(n))
    next(masks)  # 0, the empty family
    while chunk := list(islice(masks, _CHUNK)):
        yield chunk


def is_or_closed(family: FamilySet) -> bool:
    """True iff the union of every member pair is again a member: for each
    member x, the unions of x with the family (:func:`_unions`) are members."""
    n, mask = family.n, family.mask
    return not any(_unions(n, x, mask) & ~mask for x in range(1 << n) if mask >> x & 1)


def _fold(n: int, generators: Iterable[int]) -> int:
    """Mask of the smallest closed family on n elements holding the
    generators, each a member in [0, 2^n); 0 if there are none.

    Adding a set g to a closed family F gives the closed family
    F + {g} + {g | m : m in F}, so one pass over the generators
    suffices, in any order; a generator already in the mask adds
    nothing and is skipped.
    """
    mask = 0
    for g in generators:
        if not mask >> g & 1:
            mask |= 1 << g | _unions(n, g, mask)
    return mask


def frequency_list(family: FamilySet) -> list[float]:
    """Fraction of members containing each ground element, as n floats."""
    mask = family.mask
    size = mask.bit_count()
    return [(mask & c).bit_count() / size for c in _CONTAIN[family.n]]


@functools.cache
def _numpy():
    """numpy, imported on the first call alone."""
    return importlib.import_module("numpy")


def element_frequencies(family: FamilySet) -> "numpy.ndarray":
    """:func:`frequency_list` as a fresh numpy array of shape (n,), the same floats.

    ucsbound does not install numpy; without it the call raises
    ``ModuleNotFoundError`` naming numpy."""
    return _numpy().array(frequency_list(family))


def peak_frequency(family: FamilySet) -> float:
    """Largest element frequency of the family, read without numpy.

    For the family whose only member is the empty set this is 0; every
    other family contains a nonempty member, so some element appears.
    """
    return max(frequency_list(family))


def _tally(n: int, masks: list[int], columns: bool = False) -> tuple[bytes, bytes, list[bytes]]:
    """Each family mask's largest member count and its size, one byte per
    mask, and, if ``columns`` is set, one such byte string per element of
    the member counts, else none: the counts of :func:`peak_frequency`.

    The masks are packed into one int, a little-endian field per mask of
    the bytes its 2^n bits fill (1, 1, 1, 2, 4 for n = 1..5), and each
    popcount is one SWAR pass over every field at once: per byte, then
    summed into the field's low byte.  No count exceeds 32, below the
    low byte's 0x80 bit, so the largest is a borrow compare per field:
    that bit of ``(top | 0x80) - count`` survives where ``top >= count``.
    """
    field = max(1, (1 << n) >> 3)
    width = field * len(masks)
    ones = int.from_bytes((b"\x01" + bytes(field - 1)) * len(masks), "little")
    every = int.from_bytes(b"\x01" * width, "little")
    m1, m2, m4, low, high = every * 0x55, every * 0x33, every * 0x0F, ones * 0xFF, ones * 0x80

    def popcount(x: int) -> int:
        x -= (x >> 1) & m1
        x = (x & m2) + ((x >> 2) & m2)
        x = (x + (x >> 4)) & m4
        if field == 1:
            return x
        x += x >> 8
        if field == 4:
            x += x >> 16
        return x & low

    def read(x: int) -> bytes:
        return x.to_bytes(width, "little")[::field]

    packed = int.from_bytes(struct.pack(f"<{len(masks)}{'BBBHI'[n - 1]}", *masks), "little")
    top, counts = None, []
    for contain in _CONTAIN[n]:
        count = popcount(packed & contain * ones)
        if columns:
            counts.append(read(count))
        if top is None:
            top = count
        else:
            keep = ((((top | high) - count) & high) >> 7) * 0xFF
            top = count ^ ((top ^ count) & keep)
    return read(top), read(popcount(packed)), counts


_HEADER = "n,size,mask,p_A,freqs,H_X\r\n"


def _sheet(
    n: int, masks: list[int], sizes: bytes, tops: bytes, columns: list[bytes]
) -> Iterator[str]:
    """The ``enumerate --csv`` rows of the family masks on n elements from
    their sizes, largest counts and columns (:func:`_tally`), each ended
    by CRLF and yielded one at a time, so that no chunk's text is held
    whole; :func:`scan` writes the :data:`_HEADER` above the first.

    A frequency is count / size, and H_X = log2 size, so each distinct
    cell is formatted once per size, by ``repr`` as ``csv`` would.  No
    cell holds a comma, quote or line break, so none is quoted.
    """
    by_size: dict[int, tuple[list[str], str]] = {}
    for mask, size, top, counts in zip(masks, sizes, tops, zip(*columns)):
        if size not in by_size:
            by_size[size] = [repr(k / size) for k in range(size + 1)], repr(math.log2(size))
        fractions, h_x = by_size[size]
        freqs = ";".join([fractions[k] for k in counts])
        yield f"{n},{size},{mask:#x},{fractions[top]},{freqs},{h_x}\r\n"


def _families(n: int, masks: Iterable[int]) -> Iterator[FamilySet]:
    """The FamilySets of closed masks on n elements, built as ``_make`` builds one, unchecked."""
    return map(tuple.__new__, repeat(FamilySet), zip(repeat(n), masks))


@functools.cache
def _enumerated(n: int) -> tuple[FamilySet, ...]:
    """:func:`enumerate_or_closed` on n <= 4, built once per process: about 0.36 MB at n = 4."""
    return tuple(_families(n, islice(_closed_masks(n), 1, None)))


def enumerate_or_closed(n: int) -> Iterator[FamilySet]:
    """All OR-closed families on n elements, in increasing mask order, each
    built by :func:`_families`.  n <= 4 iterates the tuple built once per
    process (:func:`_enumerated`), so every call yields the same objects;
    n = 5, 2,771,103 families, streams a chunk of masks at a time
    (:func:`_chunks`) and caches nothing.  It raises
    :class:`DimensionTooLarge` for n > 5 when called, not when iterated.
    """
    n = _ground_size(n)
    return iter(_enumerated(n)) if n <= 4 else _families(n, chain.from_iterable(_chunks(n)))


def lowest_peak(peaks: list[float], masks: list[int]) -> tuple[float, int] | None:
    """The least (peak frequency, family mask) over two parallel lists, or
    None if no family is eligible.

    The family {empty set}, mask 1, is excluded: it has no elements at
    all and its peak frequency of 0 says nothing about the frequency
    question being probed.  It is the only closed family whose peak is
    0, so it is dropped by that peak: the least peak is one ``min`` over
    the nonzero floats, and the witness one over the masks that reach
    it.  Ties go to the smallest family mask, whatever the order of the
    lists, so the witness is deterministic.  The lists are not changed.
    Raises ``ValueError`` naming both lengths unless they are equal.
    """
    if len(peaks) != len(masks):
        raise ValueError(f"need one peak per mask, got {len(peaks)} peaks and {len(masks)} masks")
    low = min(filter(None, peaks), default=None)
    if low is None:
        return None
    return low, min(compress(masks, map(operator.eq, peaks, repeat(low))))


def scan(n: int, sheet: TextIO | None = None) -> tuple:
    """One pass over every OR-closed family on n elements, a chunk of masks
    at a time (:func:`_chunks`): the family count, the least (peak, mask)
    by :func:`lowest_peak`, or None if no family is eligible, and the
    :func:`check_entropy_inequality` report, which the count gives
    (:func:`_census`).  Across chunks it keeps only the count and the
    least pair.  Each chunk's peaks are its largest member counts over
    its sizes (:func:`_tally`), the floats of :func:`peak_frequency`, as
    rounding a quotient keeps its order; given a ``sheet`` file, it also
    reads the per-element counts and streams the ``enumerate --csv``
    sheet there, row by row (:func:`_sheet`), so that beside the file's
    own buffer it holds one row of the sheet's text at a time.  It builds no FamilySet.
    """
    n = _ground_size(n)
    count, least = 0, None
    if sheet is not None:
        sheet.write(_HEADER)
    for masks in _chunks(n):
        count += len(masks)
        tops, sizes, columns = _tally(n, masks, sheet is not None)
        pair = lowest_peak(list(map(operator.truediv, tops, sizes)), masks)
        if pair is not None:
            least = pair if least is None else min(least, pair)
        if sheet is not None:
            sheet.writelines(_sheet(n, masks, sizes, tops, columns))
    return count, least, _census(n, count)


def min_peak_frequency(n: int) -> tuple[float, FamilySet]:
    """Minimum peak frequency over OR-closed families, with a witness: the
    least pair of :func:`scan`, with a FamilySet built for the witness alone.
    Every n >= 1 has the family {empty set, {0}}, so a witness exists."""
    peak, mask = scan(n)[1]
    return peak, FamilySet(n, mask)


def sample_or_closed(n: int, count: int, seed: int) -> list[FamilySet]:
    """Distinct OR-closed families grown from random generator sets.

    Each draw picks 1 to 4 member sets uniformly at random and closes
    them under OR; duplicates (by mask) are dropped, so the result may
    be shorter than ``count`` draws.  Deterministic in ``seed``.  Raises
    ``ValueError`` naming ``count`` or ``seed`` unless it is an integer
    (count >= 1, seed >= 0).  n, count and seed are checked once per
    call; each draw's generators are in [0, 2^n) by construction, so they
    are folded (:func:`_fold`) and built into FamilySets unchecked.

    The draws come from ``random.Random(seed).getrandbits``, which for
    k <= 32 bits returns the top k bits of one 32-bit Mersenne Twister
    word.  A draw reads one word, whose top 2 bits plus 1 give its number
    k of generators, then k words, each giving a generator as its top n
    bits.
    """
    n = _ground_size(n)
    count = require_int(count, "count", 1)
    seed = require_int(seed, "seed", 0)
    bits = random.Random(seed).getrandbits
    seen: set[int] = set()
    out: list[FamilySet] = []
    for _ in range(count):
        mask = _fold(n, [bits(n) for _ in range(1 + bits(2))])
        if mask not in seen:
            seen.add(mask)
            out.append(tuple.__new__(FamilySet, (n, mask)))
    return out


def max_symmetric_coupling_entropy(family: FamilySet) -> float:
    """Maximum of H(OR(X, Y)) over symmetric uniform-marginal couplings: log2 |A|.

    OR(X, Y) takes values in the closed family A, so no coupling gives it
    more than log2 |A| bits, and the identity coupling Y = X, under which
    it is X, uniform on A, gives exactly that.

    Raises :class:`NotClosed` unless the family is closed under OR.
    """
    if not is_or_closed(family):
        raise NotClosed(f"family {family.mask:#x} is not closed under OR")
    return math.log2(family.mask.bit_count())


class EntropyCheckReport(NamedTuple):
    """Outcome of the coupling-entropy ceiling check over the closed families
    on n elements: ``checked`` of two or more members and ``skipped`` of one.
    The identity coupling meets the ceiling exactly, so ``violations`` is empty."""

    n: int
    checked: int
    skipped: int
    violations: tuple[str, ...]


def _census(n: int, count: int) -> EntropyCheckReport:
    """The ceiling check's report on the ``count`` closed families on n
    elements: each of the 2^n one-member families {S} is closed, and
    skipped; the rest are checked."""
    return EntropyCheckReport(n, count - (1 << n), 1 << n, ())


def check_entropy_inequality(n: int) -> EntropyCheckReport:
    """Check :func:`max_symmetric_coupling_entropy` <= log2 |A| over every
    family of :func:`enumerate_or_closed`.

    The maximum is log2 |A| itself, so the check counts the families, a
    chunk of masks at a time, as :func:`scan` does, without the peaks,
    and reports their census (:func:`_census`).  It builds no FamilySet.
    """
    n = _ground_size(n)
    return _census(n, sum(map(len, _chunks(n))))
