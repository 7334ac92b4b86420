"""Entropy-ratio certificates for union-closed frequency bounds.

The package has two halves.  The certificate half evaluates a
worst-case entropy ratio over small mixture families: whenever that
ratio stays above 1 at a mean target t, every finite union-closed
family of sets (other than {empty set}) must contain an element in at
least a t fraction of its members.  The ratio blends two couplings of
the pair: the independent one and the fully correlated one.  The
laboratory half exhaustively enumerates union-closed families on tiny
ground sets and checks the coupling-entropy ceiling on each of them.
That check evaluates the identity coupling directly; the identity
attains the ceiling, so the check is exact by construction.  Element
frequencies and peaks are popcounts of the family's member bitmask.

numpy loads on the first array operation, not on import: only
``element_frequencies`` and ``sample_or_closed`` build arrays; the
certificate search, enumeration, peaks, the entropy check and
``maxcorr`` do not.

``maxcorr`` is a sidecar that no certificate calls: it gives the
maximal correlation of a two-by-two Bernoulli coupling, in closed form
from the normalised joint's Frobenius norm and determinant, and checked
against the absolute Pearson correlation.
"""

__version__ = "0.1.0"

from .distributions import ExtremeFamily, entropy_ratio, mixed_or_entropy
from .errors import (
    BracketFailure,
    DegenerateDenominator,
    DimensionTooLarge,
    EmptyFeasible,
    GridTooLarge,
    InfeasibleCorrelation,
    NotClosed,
    RankDeficient,
    UcsBoundError,
    VerificationFailed,
)
from .maxcorr import (
    JointDist,
    binary_coupling,
    correlation_spectrum,
    maximal_correlation,
    pearson,
)
from .optimizer import (
    BASELINE_THRESHOLD,
    BoundCertificate,
    InnerSearchReport,
    SearchConfig,
    ThresholdCertificate,
    find_tmax,
    gamma_hat,
    inner_inf,
    verify_reference_point,
)
from .scalars import (
    binary_entropy,
    entropy_bits,
    max_entropy_or_prob_fullcorr,
    or_prob,
)
from .ucslab import (
    EntropyCheckReport,
    FamilySet,
    check_entropy_inequality,
    check_families,
    element_frequencies,
    enumerate_or_closed,
    is_or_closed,
    max_symmetric_coupling_entropy,
    min_peak_frequency,
    or_closure,
    peak_frequency,
    sample_or_closed,
)

__all__ = [
    "__version__",
    # distributions
    "ExtremeFamily",
    "mixed_or_entropy",
    "entropy_ratio",
    # errors
    "UcsBoundError",
    "DegenerateDenominator",
    "RankDeficient",
    "InfeasibleCorrelation",
    "EmptyFeasible",
    "GridTooLarge",
    "BracketFailure",
    "VerificationFailed",
    "NotClosed",
    "DimensionTooLarge",
    # maximal correlation
    "JointDist",
    "pearson",
    "correlation_spectrum",
    "maximal_correlation",
    "binary_coupling",
    # optimizer
    "SearchConfig",
    "InnerSearchReport",
    "BoundCertificate",
    "ThresholdCertificate",
    "inner_inf",
    "gamma_hat",
    "find_tmax",
    "verify_reference_point",
    "BASELINE_THRESHOLD",
    # scalars
    "binary_entropy",
    "entropy_bits",
    "or_prob",
    "max_entropy_or_prob_fullcorr",
    # lab
    "FamilySet",
    "EntropyCheckReport",
    "is_or_closed",
    "or_closure",
    "element_frequencies",
    "peak_frequency",
    "enumerate_or_closed",
    "min_peak_frequency",
    "sample_or_closed",
    "max_symmetric_coupling_entropy",
    "check_families",
    "check_entropy_inequality",
]
