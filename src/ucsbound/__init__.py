"""Entropy-ratio certificates for union-closed frequency bounds.

The package has two halves.  The certificate half evaluates a
worst-case entropy ratio over small mixture families: whenever that
ratio stays above 1 at a mean target t, every finite union-closed
family of sets (other than {empty set}) must contain an element in at
least a t fraction of its members.  The laboratory half exhaustively
enumerates union-closed families on tiny ground sets and checks the
information-theoretic building blocks (maximal correlation, symmetric
couplings, entropy ceilings) against those concrete examples.
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
    ConditionalJoint,
    JointDist,
    binary_coupling,
    conditional_maximal_correlation,
    correlation_spectrum,
    independent_coupling,
    maximal_correlation,
    pearson,
    product_coupling,
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
    CouplingMatrix,
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
    "ConditionalJoint",
    "pearson",
    "correlation_spectrum",
    "maximal_correlation",
    "conditional_maximal_correlation",
    "product_coupling",
    "binary_coupling",
    "independent_coupling",
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
    "CouplingMatrix",
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
