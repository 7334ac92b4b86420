"""Two input checks, binary entropy, and two bits' OR-output probabilities.

The checks are each written once: ``require_prob`` takes a probability
(an alpha, a marginal, an atom's value) as a float, and ``require_int``
an integer (the search's three knobs, the lab's ground-set sizes,
family masks, sample counts and seeds) as an int.  The kernels work on
plain floats and are deliberately allocation-free; the face search in
:mod:`ucsbound.optimizer` calls ``binary_entropy`` for the entropies of
the seed grid's axes (3 per point of the a axis, 2 per point of the b1
axis) and for those a line-objective call moves.  The entropy of the
search's cross term, one per seed cell and per line-objective call, is
written out there in ``binary_entropy``'s float operations instead of
called; the tests check that copy against this one bit for bit.  All
entropies are in bits.
"""

from __future__ import annotations

import math
import operator

__all__ = [
    "require_prob",
    "require_int",
    "binary_entropy",
    "or_prob",
    "max_entropy_or_prob_fullcorr",
]


_LN2 = math.log(2.0)


def require_prob(x: float, name: str = "value") -> float:
    """Validate that ``x`` is a probability and return it as a float.

    Rejects NaN and anything outside [0, 1]; returns -0.0 as 0.0.
    """
    x = float(x)
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x or 0.0


def require_int(x, name: str, low: int | None = None) -> int:
    """x as an int, a numpy integer or a bool too; ``ValueError`` naming
    ``name`` if it is not an integer, or is below ``low``."""
    try:
        number = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if low is not None and number < low:
        raise ValueError(f"{name} must be >= {low}, got {x!r}")
    return number


def binary_entropy(a: float) -> float:
    """Entropy in bits of a Bernoulli(a) variable, with 0*log(0) = 0.

    The endpoint convention is handled by branching rather than by
    adding a fudge term, so ``binary_entropy(0.0) == 0.0`` exactly.
    log(1 - a) is taken as log1p(-a): rounding 1 - a first would cost
    an absolute error of ~1e-16 on an h(a) of only ~a log2(1/a), 6e-11
    of it at a = 3.4e-8.
    """
    if a <= 0.0 or a >= 1.0:
        return 0.0
    return -(a * math.log2(a) + (1.0 - a) * math.log1p(-a) / _LN2)


def or_prob(p: float, q: float) -> float:
    """P(X or Y = 1) for independent bits with marginals p and q.

    Written p + q (1 - p), which is exactly 1 when either marginal is
    1.  p + q - pq can miss 1 there by an ulp, and h of that is ~6e-15
    instead of 0: 2.7e-13 of the entropy ratio of a family whose low
    block is near 0, where the other terms are ~1e-3.
    """
    return p + q * (1.0 - p)


def max_entropy_or_prob_fullcorr(p: float, q: float) -> float:
    """OR-output probability of maximal entropy over all couplings.

    A coupling of Bernoulli(p) and Bernoulli(q) with joint on-mass z
    gives the OR an on-probability p + q - z, and z ranges over the
    Frechet window [max(0, p + q - 1), min(p, q)].  Binary entropy is
    maximised by the feasible value closest to 1/2:

        median{ max(p, q), 1/2, min(p+q, 1) }

    This is the correlated term of the search objective, evaluated in
    its inner loop.  The test-suite checks it against a dense scan of
    the window.
    """
    lo = p if p >= q else q
    s = p + q
    hi = s if s < 1.0 else 1.0
    if lo >= 0.5:
        return lo
    if hi <= 0.5:
        return hi
    return 0.5
