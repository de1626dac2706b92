"""sdefi: strong/weak first-integral analysis for polynomial and Laurent SDEs.

Exact-arithmetic conservation checking, linearization and resonance scans,
degree-bounded integral search, integrability-destroying noise construction,
and Monte Carlo cross-validation.

`_LAYERS` is the one table of which module serves which name: `__all__` is
its names, and `cli` binds the other layers' names through it.  Importing
sdefi loads only the exact core, `algebra` and `ito`; every other module
loads on the first access to one of its names or to the module itself (a
PEP 562 module `__getattr__`), so a program that never touches a layer never
compiles or runs it.
"""

import sys as _sys

from . import algebra, ito

# submodule -> the names it serves from here; the submodule's own name serves the module
_LAYERS = {
    "algebra": ("CRational", "DimensionMismatch", "LaurentPoly", "PoleError", "VField",
                "default_var_names", "dot", "gradient", "hessian", "jacobian",
                "parse_poly_text", "to_text"),
    "ito": ("ConstantCandidateError", "IntegralVerdict", "SdeSystem", "check_strong",
            "check_weak", "lemma_identity_residual", "stratonovich_drift",
            "weak_generator_apply"),
    "mc": ("ConservationReport", "SimConfig", "SimEnsemble", "check_candidate", "check_start",
           "conservation_test", "simulate_paths"),
    "perturb": ("PerturbationError", "PerturbationPlan", "PerturbVerdict", "build_perturbation",
                "recurrence_exponents", "verify_perturbation"),
    "resonance": ("EpistemicStatus", "ResonanceReport", "Verdict", "WeakResonanceResult",
                  "check_scan_options", "enumerate_resonances", "halfplane_certificate",
                  "lattice_rank", "nonintegrability_report", "weak_resonance_test"),
    "search": ("CountBoundVerdict", "IntegralBasis", "count_bound_check", "find_first_integrals",
               "independence_rank", "monomial_basis", "operator_matrix"),
    "spectral": ("Eigenvalues", "H1Status", "NotApplicableError", "RootFindingError",
                 "SpectralData", "aligned_spectra", "eigenvalues", "h1_check", "linearization"),
    "cli": (),
    "exactla": (),
    "systems": (),
}
_LAYER_OF = {name: module for module, names in _LAYERS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = [*(name for names in _LAYERS.values() for name in names), "__version__"]


def _bind(space: dict, name: str, where: str):
    """Bind `name` in `space` (the globals of module `where`) to the object its layer module
    holds, loading that module on first use, and return it."""
    module = _LAYER_OF.get(name)
    if module is None:
        raise AttributeError(f"module {where!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = _sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    space[name] = value
    return value


def __getattr__(name: str):
    return _bind(globals(), name, __name__)


def __dir__():
    return sorted(set(globals()) | set(_LAYER_OF))
