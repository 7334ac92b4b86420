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

``import ucsbound`` loads none of the submodules: each exported name
is resolved on first access, which imports the submodule defining it.
``SearchConfig``, the search's knobs, is defined in ``optimizer`` with
the search.
The package needs nothing beyond the standard library.  numpy is
imported only inside ``element_frequencies``, a library call no command
makes, and it is not installed with the package; the certificate
search, enumeration, peaks, the entropy check, the sampler and
``maxcorr`` run without it.

``maxcorr`` is a sidecar that no certificate calls: it gives the
maximal correlation of a two-by-two Bernoulli coupling in closed form,
|r - pq| / sqrt(p (1 - p) q (1 - q)).
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "ExtremeFamily": "distributions",
    "mixed_or_entropy": "distributions",
    "entropy_ratio": "distributions",
    "UcsBoundError": "errors",
    "DegenerateDenominator": "errors",
    "RankDeficient": "errors",
    "InfeasibleCorrelation": "errors",
    "EmptyFeasible": "errors",
    "GridTooLarge": "errors",
    "BracketFailure": "errors",
    "VerificationFailed": "errors",
    "NotClosed": "errors",
    "DimensionTooLarge": "errors",
    "maximal_correlation": "maxcorr",
    "binary_coupling": "maxcorr",
    "SearchConfig": "optimizer",
    "InnerSearchReport": "optimizer",
    "BoundCertificate": "optimizer",
    "ThresholdCertificate": "optimizer",
    "inner_inf": "optimizer",
    "gamma_hat": "optimizer",
    "find_tmax": "optimizer",
    "verify_reference_point": "optimizer",
    "BASELINE_THRESHOLD": "optimizer",
    "binary_entropy": "scalars",
    "or_prob": "scalars",
    "max_entropy_or_prob_fullcorr": "scalars",
    "FamilySet": "ucslab",
    "EntropyCheckReport": "ucslab",
    "is_or_closed": "ucslab",
    "element_frequencies": "ucslab",
    "peak_frequency": "ucslab",
    "enumerate_or_closed": "ucslab",
    "min_peak_frequency": "ucslab",
    "sample_or_closed": "ucslab",
    "max_symmetric_coupling_entropy": "ucslab",
    "check_entropy_inequality": "ucslab",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """An exported name, or a submodule that exports one, imported on first access."""
    if name in _EXPORTS.values():
        return _import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
