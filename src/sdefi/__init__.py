"""sdefi: strong/weak first-integral analysis for polynomial and Laurent SDEs.

Exact-arithmetic conservation checking, linearization and resonance scans,
degree-bounded integral search, integrability-destroying noise construction,
and Monte Carlo cross-validation.

Importing sdefi loads only the exact core, `algebra` and `ito`.  Every other
name in `__all__`, and each other submodule (`sdefi.mc`, `sdefi.search`, ...),
loads its module on first access (a PEP 562 module `__getattr__`), so a
program that never touches a layer never compiles or runs it.
"""

import sys as _sys

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

# submodule -> the names it serves from here; the submodule's own name serves the module
_LAYERS = {
    "mc": ("ConservationReport", "SimConfig", "SimEnsemble", "conservation_test",
           "simulate_paths"),
    "perturb": ("PerturbationError", "PerturbationPlan", "PerturbVerdict", "build_perturbation",
                "recurrence_exponents", "verify_perturbation"),
    "resonance": ("EpistemicStatus", "ResonanceReport", "Verdict", "WeakResonanceResult",
                  "enumerate_resonances", "halfplane_certificate", "lattice_rank",
                  "nonintegrability_report", "weak_resonance_test"),
    "search": ("CountBoundVerdict", "IntegralBasis", "count_bound_check", "find_first_integrals",
               "independence_rank", "monomial_basis", "operator_matrix"),
    "spectral": ("Eigenvalues", "H1Status", "NotApplicableError", "RootFindingError",
                 "SpectralData", "aligned_spectra", "eigenvalues", "h1_check", "linearization"),
    "cli": (),
    "exactla": (),
    "systems": (),
}
_LAZY = {name: module for module, names in _LAYERS.items() for name in (module, *names)}

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


def __getattr__(name: str):
    """Load the module serving `name` and bind `name` here, so later reads are plain."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
