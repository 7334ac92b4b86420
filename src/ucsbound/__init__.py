"""Entropy-ratio certificates for union-closed frequency bounds.

The package has two halves.  The certificate half evaluates a
worst-case entropy ratio over small mixture families: whenever that
ratio stays above 1 at a mean target t, every finite union-closed
family of sets (other than {empty set}) must contain an element in at
least a t fraction of its members.  The ratio blends two couplings of
the pair: the independent one and the fully correlated one.  The
laboratory half exhaustively enumerates union-closed families on tiny
ground sets and counts those the coupling-entropy ceiling
H(X or Y) <= log2 |A| covers; the identity coupling meets it, so its
maximum is log2 |A|.  Element frequencies and peaks are popcounts of
the family's member bitmask.

Each public name is imported from the submodule that defines it, as in
``from ucsbound.optimizer import gamma_hat``; ``import ucsbound`` loads
none of them and binds only ``__version__``.

- ``optimizer``: the search and its knobs, ``SearchConfig``,
  ``inner_inf``, ``gamma_hat``, ``find_tmax``,
  ``verify_reference_point``, their reports ``InnerSearchReport``,
  ``BoundCertificate`` and ``ThresholdCertificate``, and
  ``BASELINE_THRESHOLD``.
- ``distributions``: the two-block families ``ExtremeFamily``, their
  oracle ``ratio_terms``, ``entropy_ratio`` and ``mixed_or_entropy``.
- ``scalars``: ``binary_entropy``, ``or_prob`` and
  ``max_entropy_or_prob_fullcorr``.
- ``ucslab``: ``FamilySet``, ``is_or_closed``, ``enumerate_or_closed``,
  ``scan``, ``min_peak_frequency``, ``sample_or_closed``, the
  frequencies and peaks, ``max_symmetric_coupling_entropy`` and
  ``check_entropy_inequality`` with its ``EntropyCheckReport``.
- ``maxcorr``: ``maximal_correlation`` and ``binary_coupling``.
- ``errors``: ``UcsBoundError`` and the errors derived from it.
- ``cli``: the command line, ``main``.

The package needs nothing beyond the standard library.  numpy is
imported only inside ``ucslab.element_frequencies``, a library call no
command makes, and it is not installed with the package; the
certificate search, enumeration, peaks, the entropy check, the sampler
and ``maxcorr`` run without it.

``maxcorr`` is a sidecar that no certificate calls: it gives the
maximal correlation of a two-by-two Bernoulli coupling in closed form,
|r - pq| / sqrt(p (1 - p) q (1 - q)).
"""

__version__ = "0.1.0"
