"""Generator calculus for Ito SDEs with polynomial/Laurent coefficients.

A system  dX = f(X) dt + sum_i g_i(X) dB^i  is held symbolically.  The
infinitesimal generator acts on a scalar candidate Phi as

    L Phi = <grad Phi, f> + (1/2) sum_i g_i^T (Hess Phi) g_i .

Phi is a *weak* first integral iff L Phi == 0 identically, and a *strong*
first integral iff it is conserved along every path, which is equivalent to

    <grad Phi, f - (1/2) sum_i (Dg_i) g_i> == 0   and
    <grad Phi, g_i> == 0  for every i

(the drift correction turns the Ito drift into its Stratonovich form).
All checks are exact: a residual either is or is not the zero polynomial.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .algebra import (
    DimensionMismatch,
    LaurentPoly,
    Record,
    VField,
    _set,
    dot,
    gradient,
    hessian,
    jacobian,
    mat_vec_apply,
)

HALF = Fraction(1, 2)


class ConstantCandidateError(ValueError):
    """Constant (or zero) candidates are rejected; they are trivially conserved."""


class SdeSystem(Record):
    """Drift + tuple of diffusion fields + display names for the variables."""

    drift: VField
    diffusions: tuple[VField, ...]
    var_names: tuple[str, ...]

    def __init__(self, drift: VField, diffusions: Iterable[VField], var_names: Iterable[str]):
        diffusions, var_names = tuple(diffusions), tuple(var_names)
        n = drift.dim
        if len(drift) != n:
            raise DimensionMismatch("drift must have one component per variable")
        for g in diffusions:
            if g.dim != n or len(g) != n:
                raise DimensionMismatch("diffusion fields must match the drift dimension")
        if len(var_names) != n:
            raise DimensionMismatch("var_names length must equal dimension")
        _set(self, "drift", drift)
        _set(self, "diffusions", diffusions)
        _set(self, "var_names", var_names)

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def noise_dim(self) -> int:
        return len(self.diffusions)


class IntegralVerdict(Record):
    """Outcome of an exact conservation check: named symbolic residuals."""

    mode: str  # "strong" | "weak"
    holds: bool
    residuals: tuple[tuple[str, LaurentPoly], ...]

    def residual(self, name: str) -> LaurentPoly:
        for n, p in self.residuals:
            if n == name:
                return p
        raise KeyError(name)


def require_candidate(phi: LaurentPoly, dim: int):
    """Reject a candidate of another dimension or a constant one, exact or Monte Carlo."""
    if phi.dim != dim:
        raise DimensionMismatch(f"candidate dim {phi.dim} != system dim {dim}")
    if phi.is_constant:
        raise ConstantCandidateError("candidate is constant; conservation would be vacuous")


def stratonovich_drift(sys: SdeSystem) -> VField:
    """Ito drift minus (1/2) sum_i (Dg_i) g_i, exactly."""
    corrected = sys.drift
    for g in sys.diffusions:
        corrected = corrected - mat_vec_apply(jacobian(g), g).scale(HALF)
    return corrected


def weak_generator_apply(sys: SdeSystem, phi: LaurentPoly) -> LaurentPoly:
    """L phi = <grad phi, f> + (1/2) sum_i g_i^T (Hess phi) g_i."""
    if phi.dim != sys.dim:
        raise DimensionMismatch(f"candidate dim {phi.dim} != system dim {sys.dim}")
    out = dot(gradient(phi), sys.drift)
    if sys.diffusions:
        hess = hessian(phi)
        for g in sys.diffusions:
            out = out + dot(g, mat_vec_apply(hess, g)).scale(HALF)
    return out


def check_strong(sys: SdeSystem, phi: LaurentPoly,
                 corrected_drift: VField | None = None) -> IntegralVerdict:
    """Pathwise conservation: corrected-drift residual plus one residual per noise.

    `corrected_drift` is `stratonovich_drift(sys)`, computed here when not given;
    a caller checking many candidates of one system computes it once.
    """
    require_candidate(phi, sys.dim)
    if corrected_drift is None:
        corrected_drift = stratonovich_drift(sys)
    grad = gradient(phi)
    residuals: list[tuple[str, LaurentPoly]] = [("corrected_drift", dot(grad, corrected_drift))]
    for i, g in enumerate(sys.diffusions):
        residuals.append((f"diffusion_{i + 1}", dot(grad, g)))
    holds = all(p.is_zero for _, p in residuals)
    return IntegralVerdict("strong", holds, tuple(residuals))


def check_weak(sys: SdeSystem, phi: LaurentPoly) -> IntegralVerdict:
    """Conservation in expectation: the generator residual L phi."""
    require_candidate(phi, sys.dim)
    res = weak_generator_apply(sys, phi)
    return IntegralVerdict("weak", res.is_zero, (("generator", res),))


def lemma_identity_residual(phi: LaurentPoly, g: VField) -> LaurentPoly:
    """<grad<grad phi, g>, g> - g^T (Hess phi) g - <grad phi, (Dg) g>.

    This is a chain-rule identity and vanishes for *every* phi and g; it is
    what makes the strong conditions equivalent to conservation along paths.
    Kept as a separately computable residual so the identity itself is testable.
    """
    if phi.dim != g.dim:
        raise DimensionMismatch(f"phi dim {phi.dim} != field dim {g.dim}")
    grad_phi = gradient(phi)
    inner = dot(grad_phi, g)
    first = dot(gradient(inner), g)
    second = dot(g, mat_vec_apply(hessian(phi), g))
    third = dot(grad_phi, mat_vec_apply(jacobian(g), g))
    return first - second - third
