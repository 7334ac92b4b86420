"""Desk-scale laboratory for union-closed families on tiny ground sets.

A set over the ground elements {0, ..., n-1} is encoded as an integer
bitmask in [0, 2^n); taking unions is then bitwise OR.  A *family* of
such sets is in turn encoded as a bitmask over the 2^n possible
members.  Closure proofs and exhaustive enumeration for n <= 5 both
split a family at its top element n - 1 into two families on n - 1
elements: ``lo``, the members lacking n - 1, and ``hi``, the members
holding it, with n - 1 removed.  The family is closed iff both halves
are and ``lo`` lies inside the stabiliser of ``hi`` (see
:func:`_split`).  A cached table per ground-set size k <= 4
(:func:`_closed`) holds every closed family on k elements with its
stabiliser.  :func:`is_or_closed` looks n <= 3 up and splits once above
that; enumeration pairs closed halves from the tables one and two sizes
down: it never meets the 2^(2^n) - 1 family masks one by one.
Element frequencies are popcounts of the family mask against, per
element, the mask of every set containing it, over the family's size
(:func:`frequency_list`, :func:`element_frequencies`).  Over a chunk of
masks, :func:`_tally` packs them into one int, a field per mask, and
takes every family's per-element counts, largest count and size as
SWAR popcounts over all the fields at once: the peaks are the largest
counts over the sizes, and the ``--csv`` sheet (:func:`_sheet`) reads
the per-element counts too.  Only
:func:`element_frequencies` uses numpy, and imports it in its own
body; no command calls it (the lab pass in ``benchmarks/`` does), and
``import ucsbound`` has already checked that numpy is installed.  The
sampler (:func:`sample_or_closed`) draws its words from the standard
library's ``random.Random``.

Each input is checked once, where it enters: a :class:`FamilySet`, the
named tuple (n, mask), checks both in ``__new__`` (``_replace`` and
``_make`` skip it), and every public function checks its other
arguments first.  Closure is one fold over masks (:func:`_fold`), which
:func:`or_closure` feeds with each generator, checked once, and
:func:`sample_or_closed` with its drawn words, in range by construction.
A family the lab builds itself, closed and in range by construction, is
made as ``_make`` makes one, without a second check.
Exhaustive enumeration takes the closed masks in ascending chunks of at
most ``_CHUNK`` masks (:func:`_chunks`): n <= 4 is one chunk, and n = 5,
2,771,103 families, runs in bounded memory.  One fold over the chunks,
:func:`scan`, serves :func:`min_peak_frequency` and ``enumerate``: per
chunk, :func:`lowest_peak` takes the least peak by one ``min`` over the
chunk's floats and its witness by one over the masks that reach it.
:func:`check_entropy_inequality` counts family sizes alone.

Besides enumeration and frequency bookkeeping, the module checks the
coupling-entropy ceiling H(X OR Y) <= log2 |A| over symmetric couplings
of two uniform copies of a family.  Its maximum is known exactly: the
identity coupling Y = X attains it.  The check evaluates that coupling
directly, so it is exact by construction.  The value depends on the
family's size alone, so the check runs once per family size that occurs
and skips only the families of fewer than two members.  Closure is
proved where a family enters (:func:`max_symmetric_coupling_entropy`);
enumerated masks are closed by construction and are not proved again.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import struct
from itertools import chain, compress, islice, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, TextIO

from .errors import DimensionTooLarge, NotClosed
from .scalars import entropy_bits

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MAX_ENUM_N",
    "FamilySet",
    "EntropyCheckReport",
    "is_or_closed",
    "or_closure",
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
# A FamilySet holds no family on more than 5 elements.
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


def _as_int(value, what: str, low: int | None = None) -> int:
    """value as an int, a numpy one too; ``ValueError`` naming ``what`` if not one or below ``low``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if low is not None and number < low:
        raise ValueError(f"{what} must be >= {low}, got {value!r}")
    return number


def _ground_size(n) -> int:
    """n as an int; ``ValueError`` unless it is a ground-set size a FamilySet allows."""
    size = _as_int(n, "ground-set size")
    if not 1 <= size <= 5:
        raise ValueError(f"ground-set size must be in 1..5, got {n!r}")
    return size


def _enum_size(n) -> int:
    """n as an int; :class:`DimensionTooLarge` above MAX_ENUM_N, ``ValueError`` below 1."""
    size = _as_int(n, "ground-set size")
    if size > MAX_ENUM_N:
        raise DimensionTooLarge(f"exhaustive enumeration supports n <= {MAX_ENUM_N}, got {n!r}")
    if size < 1:
        raise ValueError(f"ground-set size must be >= 1, got {n!r}")
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
    mask.  The family is a named tuple ``(n, mask)``; its ``_replace`` and
    ``_make`` skip the check, so build a new FamilySet instead.  The
    lab's own builders (enumeration, closure and the sampler) check their
    inputs where they enter and skip it too, as their masks are in range
    by construction: each value is checked once.
    """

    __slots__ = ()

    def __new__(cls, n: int, mask: int) -> FamilySet:
        n = _ground_size(n)
        mask = _as_int(mask, "family mask")
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


def _member(n: int, m) -> int:
    """m as a set on n elements; ``ValueError`` naming it unless an integer in [0, 2^n)."""
    m = _as_int(m, "member")
    if not 0 <= m < (1 << n):
        raise ValueError(f"member {m!r} outside [0, 2^{n})")
    return m


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
    """Family mask of {x : x | y is a member for every member y}, on n >= 1 elements.

    It holds the empty set, and for a closed family it is itself closed.
    """
    return sum(1 << x for x in range(1 << n) if not _unions(n, x, mask) & ~mask)


def _split(n: int) -> Iterator[list[int]]:
    """Ascending closed family masks on n >= 2 elements, 0 included, in one
    list per ``hi``, from the closed masks on n - 1 elements (:func:`_closed`).

    A family on n elements splits at element n - 1 into ``lo``, its
    members lacking n - 1, and ``hi``, its members holding n - 1 with
    n - 1 removed; its mask is ``lo | hi << 2^(n-1)``.  It is closed iff
    ``lo`` and ``hi`` are and every member of ``lo`` is in the stabiliser
    of ``hi``.  The ``lo`` inside a stabiliser come from the same split
    one level down, over the closed masks on n - 2 elements: ``lo``
    splits into a top half ``h`` and a bottom half, and lies inside the
    stabiliser iff each half lies inside the stabiliser's.  So no ``lo``
    outside it is ever built.
    """
    shift, half = 1 << (n - 1), 1 << (n - 2)
    table = _closed(n - 2)
    # inside[x]: the closed masks on n - 2 elements inside the mask x.
    inside = [[m for m in table if not m & ~x] for x in range(1 << half)]
    for hi, stab in _closed(n - 1).items():
        bottom, top = stab & ((1 << half) - 1), stab >> half
        high = hi << shift
        # "for head in (...,)" binds the block's shared high bits once per h.
        yield [
            head | m
            for h, s in table.items()
            if not h & ~top
            for head in (high | h << half,)
            for m in inside[s & bottom]
        ]


@functools.cache
def _closed(k: int) -> dict[int, int]:
    """Every closed family mask on k <= 4 elements, 0 included, mapped to
    its stabiliser, ascending; built once per process, never changed.
    Families on k <= 1 are all closed; :func:`_split` builds the rest.
    Only the n = 5 scan (:func:`_chunks`) builds k = 4, 4,960 stabilisers;
    a closure proof computes the one stabiliser it needs.
    """
    masks = range(1 << (1 << k)) if k <= 1 else chain.from_iterable(_split(k))
    return {f: _stabiliser(k, f) for f in masks}


def _chunks(n: int) -> Iterator[list[int]]:
    """Every nonempty closed family mask on 1 <= n <= 5 elements, ascending,
    in lists of ``_CHUNK`` masks but the last, which holds the rest.

    They come from :func:`_split`'s per-``hi`` blocks, so that at n = 5
    no list holds them all.
    """
    masks = chain.from_iterable(_split(n) if n > 1 else [_closed(1)])
    next(masks)  # 0, the empty family
    while chunk := list(islice(masks, _CHUNK)):
        yield chunk


def _is_closed(n: int, mask: int) -> bool:
    """True iff the family mask on n >= 0 elements is OR-closed (see :func:`_split`)."""
    if n <= 3:
        return mask in _closed(n)
    shift = 1 << (n - 1)
    lo, hi = mask & ((1 << shift) - 1), mask >> shift
    return _is_closed(n - 1, lo) and _is_closed(n - 1, hi) and not lo & ~_stabiliser(n - 1, hi)


def is_or_closed(family: FamilySet) -> bool:
    """True iff the union of every member pair is again a member."""
    return _is_closed(family.n, family.mask)


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


def or_closure(n: int, generators: Iterable[int]) -> FamilySet:
    """Smallest OR-closed family containing the given member sets.

    n is checked first, then each generator once, as it is read, as a
    member in [0, 2^n), and the checked generators are folded into the
    mask (:func:`_fold`).  The result is closed and in range by
    construction, so its FamilySet is built without a second check.
    Raises ``ValueError`` on an empty list of generators.
    """
    n = _ground_size(n)
    mask = _fold(n, (_member(n, g) for g in generators))
    if not mask:
        raise ValueError("a closure needs at least one generator")
    return tuple.__new__(FamilySet, (n, mask))


def frequency_list(family: FamilySet) -> list[float]:
    """Fraction of members containing each ground element, as n floats."""
    mask = family.mask
    size = mask.bit_count()
    return [(mask & c).bit_count() / size for c in _CONTAIN[family.n]]


def element_frequencies(family: FamilySet) -> np.ndarray:
    """:func:`frequency_list` as an array of shape (n,), the same floats."""
    import numpy as np

    return np.array(frequency_list(family))


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


_HEADER = "n,size,mask,p_A,freqs,H_X,H_star,ratio\r\n"


def _sheet(n: int, masks: list[int], sizes: bytes, tops: bytes, columns: list[bytes], check: bool) -> str:
    """The ``enumerate --csv`` rows of the family masks on n elements from
    their sizes, largest counts and columns (:func:`_tally`), each ended
    by CRLF; :func:`scan` writes the :data:`_HEADER` above the first.

    H_star and ratio are empty cells unless ``check`` is set and the
    family has at least two members.  A frequency is count / size, and
    H_X, H_star and ratio depend on the size alone, so each distinct cell
    is formatted once per size, by ``repr`` as ``csv`` would.  No cell
    holds a comma, quote or line break, so none is quoted.
    """
    by_size: dict[int, tuple[list[str], str]] = {}
    rows = []
    for mask, size, top, counts in zip(masks, sizes, tops, zip(*columns)):
        if size not in by_size:
            star = _uniform_bits(size) if check and size > 1 else None
            h_x = math.log2(size)
            tail = f"{h_x!r},," if star is None else f"{h_x!r},{star!r},{star / h_x!r}"
            by_size[size] = [repr(k / size) for k in range(size + 1)], tail
        fractions, tail = by_size[size]
        freqs = ";".join([fractions[k] for k in counts])
        rows.append(f"{n},{size},{mask:#x},{fractions[top]},{freqs},{tail}\r\n")
    return "".join(rows)


def enumerate_or_closed(n: int) -> Iterator[FamilySet]:
    """All OR-closed families on n elements, in increasing mask order.

    They are the masks :func:`_split` pairs from closed halves on n - 1
    elements, read a chunk at a time (:func:`_chunks`), so that at n = 5,
    2,771,103 families, the iterator holds one chunk of masks, not all of
    them.  Each mask is closed and in range by construction, so each
    FamilySet is built as ``_make`` builds one, without the check in
    ``FamilySet.__new__``.  It raises :class:`DimensionTooLarge` for n > 5
    when called, not when iterated.
    """
    n = _enum_size(n)
    masks = chain.from_iterable(_chunks(n))
    return map(tuple.__new__, repeat(FamilySet), zip(repeat(n), masks))


def lowest_peak(peaks: list[float], masks: list[int]) -> tuple[float, int] | None:
    """The least (peak frequency, family mask) over two parallel lists, or
    None if no family is eligible.

    The family {empty set}, mask 1, is excluded: it has no elements at
    all and its peak frequency of 0 says nothing about the frequency
    question being probed.  Ties go to the smallest family mask,
    whatever the order of the lists, so the witness is deterministic.
    Mask 1, where present, leaves both lists by one ``compress``; then
    the least peak is one ``min`` over the floats and the witness one
    over the masks that reach it, so no pair is built per family.
    """
    if 1 in masks:
        keep = list(map(operator.ne, masks, repeat(1)))
        peaks, masks = list(compress(peaks, keep)), list(compress(masks, keep))
    if not peaks:
        return None
    low = min(peaks)
    return low, min(compress(masks, map(operator.eq, peaks, repeat(low))))


def scan(n: int, check: bool = False, sheet: TextIO | None = None) -> tuple:
    """One pass over every OR-closed family on n elements, a chunk of masks
    at a time (:func:`_chunks`): the family count, the least (peak, mask)
    by :func:`lowest_peak`, or None if no family is eligible, and, if
    ``check`` is set, the :func:`check_entropy_inequality` report, else
    None.  Across chunks it keeps only those and the number of families
    of each size.  Each chunk's peaks are its largest member counts over
    its sizes (:func:`_tally`), the floats of :func:`peak_frequency`, as
    rounding a quotient keeps its order; given a ``sheet`` file, it also
    reads the per-element counts and writes the ``enumerate --csv`` sheet
    there.  It builds no FamilySet.
    """
    n = _enum_size(n)
    count, least, histogram = 0, None, [0] * ((1 << n) + 1)
    if sheet is not None:
        sheet.write(_HEADER)
    for masks in _chunks(n):
        count += len(masks)
        tops, sizes, columns = _tally(n, masks, sheet is not None)
        pair = lowest_peak(list(map(operator.truediv, tops, sizes)), masks)
        if pair is not None:
            least = pair if least is None else min(least, pair)
        if check:
            for size in range(1, len(histogram)):
                histogram[size] += sizes.count(size)
        if sheet is not None:
            sheet.write(_sheet(n, masks, sizes, tops, columns, check))
    return count, least, _report(n, histogram) if check else None


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
    count = _as_int(count, "count", 1)
    seed = _as_int(seed, "seed", 0)
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
    """Maximum of H(OR(X, Y)) over symmetric uniform-marginal couplings.

    The maximum is log2 |A|, attained by the identity coupling Y = X:
    OR(X, Y) takes values in the closed family A, so no coupling gives
    it more than log2 |A| bits, and under Y = X it equals X, uniform on
    A.  The entropy of that OR output is evaluated directly, so the
    result is exact by construction.

    Raises :class:`NotClosed` unless the family is closed under OR.
    """
    if not _is_closed(family.n, family.mask):
        raise NotClosed(f"family {family.mask:#x} is not closed under OR")
    return _uniform_bits(family.mask.bit_count())


def _uniform_bits(k: int) -> float:
    """Entropy in bits of the uniform distribution on k outcomes."""
    return entropy_bits([1.0 / k] * k)


class EntropyCheckReport(NamedTuple):
    """Outcome of checking the coupling-entropy ceiling over families.

    Ratios are None when no family was checked."""

    n: int
    checked: int
    skipped: int
    violations: tuple[str, ...]
    ratio_min: float | None
    ratio_max: float | None

    @property
    def ok(self) -> bool:
        return not self.violations


# Slack of the ceiling check; H_star is exact by construction.
_CEILING_TOL = 1e-6


def _report(n: int, sizes: list[int]) -> EntropyCheckReport:
    """The ceiling check over the closed families on n elements, of which
    ``sizes[k]`` have k members: H_star and the ceiling depend on the size
    alone.  Only if some size is over the ceiling are the closed masks
    read again (:func:`_chunks`), to list each family of that size; the
    families of one member are skipped."""
    h_star = {size: _uniform_bits(size) for size in range(2, len(sizes)) if sizes[size]}
    ratios: list[float] = []
    over: dict[int, str] = {}  # the message of each size over the ceiling
    for size, value in h_star.items():
        ceiling = math.log2(size)
        if value > ceiling + _CEILING_TOL:
            over[size] = f"H_star={value!r} exceeds log2|A|={ceiling!r}"
        ratios.append(value / ceiling)
    masks = [m for m in chain.from_iterable(_chunks(n)) if m.bit_count() in over] if over else []
    return EntropyCheckReport(
        n=n,
        checked=sum(sizes[2:]),
        skipped=sizes[1],
        violations=tuple([f"{m:#x}: {over[m.bit_count()]}" for m in masks]),
        ratio_min=min(ratios, default=None),
        ratio_max=max(ratios, default=None),
    )


def check_entropy_inequality(n: int) -> EntropyCheckReport:
    """Check H_star <= log2 |A| + 1e-6 over every family of :func:`enumerate_or_closed`.

    H_star is :func:`max_symmetric_coupling_entropy`, read from the
    family's size; families of fewer than two members are skipped, and
    the ratios H_star / log2 |A| sit at 1 up to rounding.  It counts the
    families of each size a chunk of masks at a time, as :func:`scan`
    does, without the peaks, and builds no FamilySet.
    """
    n = _enum_size(n)
    sizes = [0] * ((1 << n) + 1)
    for masks in _chunks(n):
        for mask in masks:
            sizes[mask.bit_count()] += 1
    return _report(n, sizes)
