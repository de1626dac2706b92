"""sdefi: strong/weak first-integral analysis for polynomial and Laurent SDEs.

Exact-arithmetic conservation checking, linearization and resonance scans,
degree-bounded integral search, integrability-destroying noise construction,
and Monte Carlo cross-validation.
"""

from .algebra import (
    CRational,
    DimensionMismatch,
    LaurentPoly,
    PoleError,
    VField,
    default_var_names,
    dot,
    gradient,
    hessian,
    jacobian,
    parse_poly_text,
    to_text,
)
from .ito import (
    ConstantCandidateError,
    IntegralVerdict,
    SdeSystem,
    check_strong,
    check_weak,
    lemma_identity_residual,
    stratonovich_drift,
    weak_generator_apply,
)
from .mc import ConservationReport, SimConfig, SimEnsemble, conservation_test, simulate_paths
from .perturb import (
    PerturbationError,
    PerturbationPlan,
    PerturbVerdict,
    build_perturbation,
    recurrence_exponents,
    verify_perturbation,
)
from .resonance import (
    EpistemicStatus,
    ResonanceReport,
    Verdict,
    WeakResonanceResult,
    enumerate_resonances,
    halfplane_certificate,
    lattice_rank,
    nonintegrability_report,
    weak_resonance_test,
)
from .search import (
    CountBoundVerdict,
    IntegralBasis,
    count_bound_check,
    find_first_integrals,
    independence_rank,
    monomial_basis,
    operator_matrix,
)
from .spectral import (
    Eigenvalues,
    H1Status,
    NotApplicableError,
    RootFindingError,
    SpectralData,
    aligned_spectra,
    eigenvalues,
    h1_check,
    linearization,
)

__version__ = "0.1.0"

__all__ = [
    "CRational", "LaurentPoly", "VField", "DimensionMismatch", "PoleError",
    "default_var_names", "dot", "gradient", "hessian", "jacobian",
    "parse_poly_text", "to_text",
    "SdeSystem", "IntegralVerdict", "ConstantCandidateError",
    "check_strong", "check_weak", "stratonovich_drift", "weak_generator_apply",
    "lemma_identity_residual",
    "Eigenvalues", "H1Status", "SpectralData", "NotApplicableError",
    "RootFindingError", "linearization", "eigenvalues", "h1_check", "aligned_spectra",
    "ResonanceReport", "Verdict", "EpistemicStatus", "WeakResonanceResult",
    "enumerate_resonances", "lattice_rank", "halfplane_certificate",
    "weak_resonance_test", "nonintegrability_report",
    "IntegralBasis", "CountBoundVerdict",
    "monomial_basis", "operator_matrix", "find_first_integrals",
    "independence_rank", "count_bound_check",
    "PerturbationPlan", "PerturbVerdict", "PerturbationError",
    "recurrence_exponents", "build_perturbation", "verify_perturbation",
    "SimConfig", "SimEnsemble", "ConservationReport",
    "simulate_paths", "conservation_test",
    "__version__",
]
