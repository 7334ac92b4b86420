"""Desk-scale laboratory for union-closed families on tiny ground sets.

A set over the ground elements {0, ..., n-1} is encoded as an integer
bitmask in [0, 2^n); taking unions is then bitwise OR.  A *family* of
such sets is in turn encoded as a bitmask over the 2^n possible
members.  Closure proofs and exhaustive enumeration for n <= 5 both
split a family at its top element n - 1 into two families on n - 1
elements: ``lo``, the members lacking n - 1, and ``hi``, the members
holding it, with n - 1 removed.  The family is closed iff both halves
are and ``lo`` lies inside the stabiliser of ``hi`` (see
:func:`_split`).  A table built at import holds every closed family on
at most 3 elements with its stabiliser, so :func:`is_or_closed` is a
lookup or three for n <= 4, and enumeration pairs closed halves from
that table, or at n = 5 from one it builds from the families on 4
elements: it never meets the 2^(2^n) - 1 family masks one by one.
Element frequencies are popcounts of the family mask against, per
element, the mask of every set containing it, over the family's size
(:func:`frequency_list`, :func:`element_frequencies`); over many masks,
one popcount column per element (:func:`_columns`), which gives both
the peaks (:func:`_peaks`) and the ``--csv`` sheet (:func:`_sheet`).  Only
:func:`element_frequencies` and :func:`sample_or_closed` use numpy, and
each imports it in its own body; ``import ucsbound`` has already checked
that it is installed.

Input is validated where it enters: a :class:`FamilySet`, the named
tuple (n, mask), checks both in ``__new__`` (``_replace`` and ``_make``
skip it), and every public function checks its other arguments first.
Closure works on masks (:func:`or_closure`): each generator is checked
and folded into the mask, and one FamilySet is built for the result.
Exhaustive enumeration takes the closed masks in ascending chunks of at
most ``_CHUNK`` masks (:func:`_chunks`): n <= 4 is one chunk, and n = 5,
2,771,103 families, runs in bounded memory.  The checks over a whole
enumeration, :func:`min_peak_frequency` (by the column scan) and
:func:`check_entropy_inequality`, read the chunks' masks directly and
keep only a running result across them: a :class:`FamilySet` is built
only for the witness.

Besides enumeration and frequency bookkeeping, the module checks the
coupling-entropy ceiling H(X OR Y) <= log2 |A| over symmetric couplings
of two uniform copies of a family.  Its maximum is known exactly: the
identity coupling Y = X attains it.  The check evaluates that coupling
directly, so it is exact by construction.  The value depends on the
family's size alone, so the check runs once per family size that occurs
and skips only the families of fewer than two members.  Closure is
proved where a family enters (:func:`max_symmetric_coupling_entropy`);
enumerated and sampled masks are closed by construction and are not
proved again.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain, islice, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

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
# contains element e, for each ground-set size a FamilySet allows.
_CONTAIN = {
    n: tuple(sum(1 << k for k in range(1 << n) if (k >> e) & 1) for e in range(n))
    for n in range(1, 6)
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

    Building one validates: a plain ``int`` n in 1..5 and a plain
    ``int`` mask in [1, 2^(2^n)) pass one chained test, the case of every
    family the module builds; anything else (a bool, a numpy integer, a
    float, a value out of range) is converted to ``int`` or rejected
    with ``ValueError`` naming the ground-set size or the mask.  The
    family is a named tuple ``(n, mask)``; its ``_replace`` and
    ``_make`` skip the validation, so build a new FamilySet instead.
    """

    __slots__ = ()

    def __new__(cls, n: int, mask: int) -> FamilySet:
        if not (type(n) is int and type(mask) is int and 1 <= n <= 5 and 1 <= mask < 1 << (1 << n)):
            n = _ground_size(n)  # a bool or a numpy int is kept as an int
            if type(mask) is not int:  # likewise the mask; a float raises ValueError
                mask = _as_int(mask, "family mask")
            if not 1 <= mask < (1 << (1 << n)):
                raise ValueError(f"family mask must be in [1, 2^(2^{n})), got {mask!r}")
        return tuple.__new__(cls, (n, mask))

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "FamilySet":
        n = _ground_size(n)
        mask = 0
        for m in members:
            mask |= 1 << _member(n, m)
        if not mask:
            raise ValueError("a family needs at least one member")
        return cls(n, mask)

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
    if type(m) is not int:
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


def _split(n: int, lower: dict[int, int]) -> Iterator[list[int]]:
    """Ascending closed family masks on n >= 2 elements, 0 included, from
    those on n - 1, in one list per ``hi``.

    ``lower`` maps each closed mask on n - 1 elements, 0 included, to its
    stabiliser, in ascending order.  A family on n elements splits at
    element n - 1 into ``lo``, its members lacking n - 1, and ``hi``, its
    members holding n - 1 with n - 1 removed; its mask is
    ``lo | hi << 2^(n-1)``.  It is closed iff ``lo`` and ``hi`` are and
    every member of ``lo`` is in the stabiliser of ``hi``.  The ``lo``
    inside a stabiliser come from the same split one level down, over the
    table of closed masks on n - 2 elements: ``lo`` splits into a top half
    ``h`` and a bottom half, and lies inside the stabiliser iff each half
    lies inside the stabiliser's.  So no ``lo`` outside it is ever built.
    """
    shift, half = 1 << (n - 1), 1 << (n - 2)
    table = _STAB[n - 2]
    # inside[x]: the closed masks on n - 2 elements inside the mask x.
    inside = [[m for m in table if not m & ~x] for x in range(1 << half)]
    for hi, stab in lower.items():
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


# _STAB[n]: every closed family mask on n <= 3 elements, the empty family
# included, mapped to its stabiliser, in ascending order: 142 entries in
# all.  Closure on n <= 4 elements is then a lookup or three.  Every
# family on one element is closed; the split builds the rest.
_STAB: dict[int, dict[int, int]] = {0: {0: 1, 1: 1}}
_STAB[1] = {f: _stabiliser(1, f) for f in range(4)}
for _n in (2, 3):
    _STAB[_n] = {f: _stabiliser(_n, f) for block in _split(_n, _STAB[_n - 1]) for f in block}
del _n


def _closed_masks(n: int) -> list[int]:
    """Every closed family mask on 1 <= n <= 4 elements, 0 included, ascending."""
    table = _STAB.get(n)
    if table is not None:
        return list(table)
    return list(chain.from_iterable(_split(n, _STAB[n - 1])))


def _chunks(n: int) -> Iterator[list[int]]:
    """Every nonempty closed family mask on 1 <= n <= 5 elements, ascending,
    in lists of ``_CHUNK`` masks but the last, which holds the rest.

    For n <= 4 the masks are :func:`_closed_masks`; for n = 5 they come
    from :func:`_split`'s per-``hi`` blocks, over a table of the closed
    masks on 4 elements and their stabilisers built here, so that no list
    holds them all.
    """
    if n <= 4:
        blocks = [_closed_masks(n)]
    else:
        blocks = _split(n, {f: _stabiliser(n - 1, f) for f in _closed_masks(n - 1)})
    masks = chain.from_iterable(blocks)
    next(masks)  # 0, the empty family
    while chunk := list(islice(masks, _CHUNK)):
        yield chunk


def _is_closed(n: int, mask: int) -> bool:
    """True iff the family mask on n >= 0 elements is OR-closed (see :func:`_split`)."""
    table = _STAB.get(n)
    if table is not None:
        return mask in table
    shift = 1 << (n - 1)
    lo, hi = mask & ((1 << shift) - 1), mask >> shift
    if not (_is_closed(n - 1, lo) and _is_closed(n - 1, hi)):
        return False
    table = _STAB.get(n - 1)
    stab = _stabiliser(n - 1, hi) if table is None else table[hi]
    return not lo & ~stab


def is_or_closed(family: FamilySet) -> bool:
    """True iff the union of every member pair is again a member."""
    return _is_closed(family.n, family.mask)


def or_closure(n: int, generators: Iterable[int]) -> FamilySet:
    """Smallest OR-closed family containing the given member sets.

    Adding a set g to a closed family F gives the closed family
    F + {g} + {g | m : m in F}, so one pass over the generators
    suffices, in any order.  The pass works on the family mask: n is
    checked first, then each generator as it is read, as a member in
    [0, 2^n); a generator already in the mask adds nothing and is
    skipped.  Raises ``ValueError`` on an empty list of generators.
    """
    n = _ground_size(n)
    mask = 0
    for g in generators:
        g = _member(n, g)
        if not mask >> g & 1:
            mask |= 1 << g | _unions(n, g, mask)
    if not mask:
        raise ValueError("a closure needs at least one generator")
    return FamilySet(n, mask)


def frequency_list(family: FamilySet) -> list[float]:
    """Fraction of members containing each ground element, as n floats."""
    mask = family.mask
    size = mask.bit_count()
    return [(mask & c).bit_count() / size for c in _CONTAIN[family.n]]


def element_frequencies(family: FamilySet) -> np.ndarray:
    """:func:`frequency_list` as an array of shape (n,), the same floats.

    It makes the same single popcount pass itself rather than call
    :func:`frequency_list`: it runs once per family in a lab pass.
    """
    import numpy as np

    mask = family.mask
    size = mask.bit_count()
    return np.array([(mask & c).bit_count() / size for c in _CONTAIN[family.n]])


def peak_frequency(family: FamilySet) -> float:
    """Largest element frequency of the family, read without numpy.

    For the family whose only member is the empty set this is 0; every
    other family contains a nonempty member, so some element appears.
    It is the largest count over the size, the same float as the largest
    of :func:`frequency_list`, as rounding a quotient keeps its order.
    """
    mask = family.mask
    return max([(mask & c).bit_count() for c in _CONTAIN[family.n]]) / mask.bit_count()


def _columns(n: int, masks: list[int]) -> tuple[list[list[int]], list[int]]:
    """Member counts of the family masks on n elements, one list per element,
    and each family's largest count: the counts of :func:`peak_frequency`."""
    columns = [list(map(int.bit_count, map(c.__and__, masks))) for c in _CONTAIN[n]]
    return columns, columns[0] if n == 1 else list(map(max, *columns))


def _peaks(tops: list[int], masks: list[int]) -> list[float]:
    """:func:`peak_frequency` of each nonzero family mask from its largest count
    (:func:`_columns`): the same counts and sizes, so the same floats."""
    return list(map(operator.truediv, tops, map(int.bit_count, masks)))


def _sheet(
    n: int, masks: list[int], columns: list, tops: list[int], h_star: dict, header: bool = True
) -> str:
    """The ``enumerate --csv`` sheet of the family masks on n elements from
    their :func:`_columns`: a header, then a row per family, each ended by CRLF.
    A sheet written a chunk of masks at a time has its header only once:
    ``header`` is false for every chunk after the first.

    ``h_star`` maps each checked family size to its H_star; H_star and
    ratio are empty cells for families not checked.  A frequency is
    count / size, and H_X, H_star and ratio depend on the size alone, so
    each distinct cell is formatted once per size, by ``repr`` as ``csv``
    would.  No cell holds a comma, quote or line break, so none is quoted.
    """
    by_size: dict[int, tuple[list[str], str]] = {}
    rows = ["n,size,mask,p_A,freqs,H_X,H_star,ratio\r\n"] if header else []
    for mask, top, counts in zip(masks, tops, zip(*columns)):
        size = mask.bit_count()
        if size not in by_size:
            star, h_x = h_star.get(size), math.log2(size)
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


def lowest_peak(peaks: Iterable[tuple[float, int]]) -> tuple[float, int] | None:
    """The least (peak frequency, family mask) pair, or None if none is eligible.

    The family {empty set}, mask 1, is excluded: it has no elements at
    all and its peak frequency of 0 says nothing about the frequency
    question being probed.  Ties go to the smallest family mask,
    whatever the input order, so the witness is deterministic.
    """
    return min((pair for pair in peaks if pair[1] != 1), default=None)


def _least(
    least: tuple[float, int] | None, tops: list[int], masks: list[int]
) -> tuple[float, int] | None:
    """The :func:`lowest_peak` of ``least``, the least pair of the chunks so
    far or None, and the chunk's masks with their largest counts ``tops``."""
    pairs = zip(_peaks(tops, masks), masks)
    return lowest_peak(pairs if least is None else chain([least], pairs))


def min_peak_frequency(n: int) -> tuple[float, FamilySet]:
    """Minimum peak frequency over OR-closed families, with a witness.

    It scans the masks of :func:`enumerate_or_closed` a chunk at a time
    by :func:`_peaks`, keeping the :func:`lowest_peak` so far, and builds
    a FamilySet for the witness alone.  Every n >= 1 has the family
    {empty set, {0}}, so a witness always exists.
    """
    n = _enum_size(n)
    least = None
    for masks in _chunks(n):
        least = _least(least, _columns(n, masks)[1], masks)
    peak, mask = least
    return peak, FamilySet(n, mask)


def sample_or_closed(n: int, count: int, seed: int) -> list[FamilySet]:
    """Distinct OR-closed families grown from random generator sets.

    Each draw picks 1 to 4 member sets uniformly at random and closes
    them under OR; duplicates (by mask) are dropped, so the result may
    be shorter than ``count`` draws.  Deterministic in ``seed``.  Raises
    ``ValueError`` naming ``count`` or ``seed`` unless it is an integer
    (count >= 1, seed >= 0).
    """
    import numpy as np

    n = _ground_size(n)
    count = _as_int(count, "count", 1)
    seed = _as_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    out: list[FamilySet] = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        fam = or_closure(n, rng.integers(0, 1 << n, size=k).tolist())
        if fam.mask not in seen:
            seen.add(fam.mask)
            out.append(fam)
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

    Ratios are None when no family was checked.  ``h_star_by_size`` maps
    the size of each checked family to its H_star; each report has its
    own dict.
    """

    n: int
    checked: int
    skipped: int
    violations: tuple[str, ...]
    ratio_min: float | None
    ratio_max: float | None
    h_star_by_size: dict[int, float]

    @property
    def ok(self) -> bool:
        return not self.violations


# Slack of the ceiling check; H_star is exact by construction.
_CEILING_TOL = 1e-6


def _check(n: int, masks: list[int]) -> EntropyCheckReport:
    """The ceiling check over closed family masks on n elements, one family
    size at a time: H_star and the ceiling depend on the size alone."""
    counts = [0] * ((1 << n) + 1)
    for mask in masks:
        counts[mask.bit_count()] += 1
    h_star = {size: _uniform_bits(size) for size in range(2, len(counts)) if counts[size]}
    ratios: list[float] = []
    over: dict[int, str] = {}  # the message of each size over the ceiling
    for size, value in h_star.items():
        ceiling = math.log2(size)
        if value > ceiling + _CEILING_TOL:
            over[size] = f"H_star={value!r} exceeds log2|A|={ceiling!r}"
        ratios.append(value / ceiling)
    over_masks = [mask for mask in masks if mask.bit_count() in over] if over else []
    return EntropyCheckReport(
        n=n,
        checked=sum(counts[2:]),
        skipped=counts[0] + counts[1],
        violations=tuple([f"{mask:#x}: {over[mask.bit_count()]}" for mask in over_masks]),
        ratio_min=min(ratios, default=None),
        ratio_max=max(ratios, default=None),
        h_star_by_size=h_star,
    )


def _merged(a: EntropyCheckReport, b: EntropyCheckReport) -> EntropyCheckReport:
    """The :func:`_check` of two lists of masks on n elements, one after the
    other, from the check of each: H_star and the ceiling depend on the
    size alone, so each size gives the same ratio in both."""
    lows = [r for r in (a.ratio_min, b.ratio_min) if r is not None]
    highs = [r for r in (a.ratio_max, b.ratio_max) if r is not None]
    return EntropyCheckReport(
        n=a.n,
        checked=a.checked + b.checked,
        skipped=a.skipped + b.skipped,
        violations=a.violations + b.violations,
        ratio_min=min(lows, default=None),
        ratio_max=max(highs, default=None),
        h_star_by_size=dict(sorted({**a.h_star_by_size, **b.h_star_by_size}.items())),
    )


def check_entropy_inequality(n: int) -> EntropyCheckReport:
    """Check H_star <= log2 |A| + 1e-6 over every family of :func:`enumerate_or_closed`.

    H_star is :func:`max_symmetric_coupling_entropy`, read from the
    family's size; families of fewer than two members are skipped, and
    the ratios H_star / log2 |A| sit at 1 up to rounding.  It checks the
    families' masks a chunk at a time and builds no FamilySet.
    """
    n = _enum_size(n)
    return functools.reduce(_merged, map(_check, repeat(n), _chunks(n)))
