"""Scalar kernels: binary entropy and the OR-output probability of two bits.

Everything here works on plain floats and is deliberately allocation-free;
the face search in :mod:`ucsbound.optimizer` calls ``binary_entropy``
1.8-4.9 x 10^3 times per ``gamma_hat`` at the default settings over t
in [0.05, 0.49], 320 of them to build the seed grid (3 per point of the
a axis, 2 per point of the b1 axis).  The entropy of the
search's cross term, one per seed cell and per line-objective call, is
written out there in ``binary_entropy``'s float operations instead of
called; the tests check that copy against this one bit for bit.  All
entropies are in bits.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "require_prob",
    "binary_entropy",
    "entropy_bits",
    "or_prob",
    "max_entropy_or_prob_fullcorr",
]


_LN2 = math.log(2.0)


def require_prob(x: float, name: str = "value") -> float:
    """Validate that ``x`` is a probability and return it as a float.

    Rejects NaN and anything outside [0, 1].
    """
    x = float(x)
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


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


def entropy_bits(masses: Sequence[float]) -> float:
    """Shannon entropy in bits of a finite mass vector.

    Zero masses, and any negative entry, contribute nothing rather than
    being fed to the logarithm.
    """
    total = 0.0
    for m in masses:
        if m > 0.0:
            total -= m * math.log2(m)
    return total


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
