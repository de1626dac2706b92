"""Scalar geometric noise that leaves an ODE with no analytic first integral.

Given an ODE drift f with f(0) = 0 and A = Df(0) nonsingular, the SDE

    dX = f(X) dt + a X dW

has no formal weak first integral once a^2 > 2 sigma, where
sigma = max_j (-Re lam_j)^+ over the eigenvalues lam of A (lowest-form
injectivity).  Let phi be a formal weak integral without constant term and
phi_m its lowest form.  The lowest part of L phi is L_lin phi_m, with
L_lin = Ax . grad + (a^2 / 2) sum_ij x_i x_j d_i d_j, because the nonlinear
terms of f only raise the degree.  On forms of degree m,
L_lin = D_A + a^2 m (m - 1) / 2; in a Jordan basis it is triangular with
eigenvalues <l, lam> + a^2 m (m - 1) / 2, |l|_1 = m.  For m = 1 these are the
lam_j != 0; for m >= 2 their real part is at least m (a^2 (m - 1) / 2 - sigma)
> 0.  So phi_m = 0: there is no formal weak integral, hence no analytic weak
or strong one, at any degree.

a is the first rung of the ladder 1, 3/2, 2, 5/2, ... at which a^2 > 2 sigma
is certified without finding a root.  For a real A the test is Routh-Hurwitz
in Fractions: every root of chi_A(s - a^2 / 2) lies in Re s > 0, which is
a^2 > 2 sigma exactly.  For any A, complex ones included, each rung then
tries the row-sum norm bound sigma <= max_i sum_j (|re a_ij| + |im a_ij|);
it passes once a^2 exceeds twice that norm, so the ladder always ends.

Verification is independent: the exact weak-integral search on the perturbed
system, PASS iff it finds nothing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import exactla
from .algebra import CRational, LaurentPoly, Record, VField, default_var_names
from .ito import SdeSystem
from .spectral import NotApplicableError, drift_jacobian


class PerturbationPlan(Record):
    a: Fraction
    dim: int
    det_Df: CRational
    certificate: str                  # the test that decided a^2 > 2 sigma

    def noise_field(self) -> VField:
        """The linear diffusion x -> a x as an exact vector field."""
        return VField(tuple(LaurentPoly.variable(self.dim, i).scale(self.a)
                            for i in range(self.dim)))

    def to_dict(self) -> dict:
        return {"a": str(self.a), "det_Df": str(self.det_Df),
                "theorem": "lowest-form injectivity",
                "hypotheses": ["f(0) = 0", "det Df(0) != 0",
                               "a^2 > 2 sigma, sigma = max_j (-Re lam_j)^+"],
                "certificate": self.certificate,
                "claim": "no formal weak integral, hence no analytic weak or strong "
                         "integral, at every degree"}


def _reflected_shift(chi: list[Fraction], c: Fraction) -> list[Fraction]:
    """(-1)^n chi(-s - c) for the monic chi of degree n, ascending: monic, and its
    roots are -lam - c for the roots lam of chi."""
    out: list[Fraction] = []
    for coef in reversed(chi):  # Horner: out <- out * (-s - c) + coef
        out = [-c * x - y for x, y in zip(out + [0], [0] + out)]
        out[0] += coef
    return out if len(chi) % 2 else [-x for x in out]


def _hurwitz(p: list[Fraction]) -> bool:
    """Do all roots of the monic real p (ascending) lie in Re s < 0?  Routh's
    criterion: every entry of the first column of its array is positive."""
    desc = p[::-1]
    prev, cur = desc[0::2], desc[1::2]
    for _ in range(len(p) - 1):
        if cur[0] <= 0:
            return False
        r = prev[0] / cur[0]
        prev, cur = cur, [x - r * y for x, y in
                          itertools.zip_longest(prev[1:], cur[1:], fillvalue=0)]
    return True


def build_perturbation(drift: VField) -> PerturbationPlan:
    """The noise x -> a x for the first rung a of 1, 3/2, 2, ... certified to
    satisfy a^2 > 2 sigma."""
    jac = drift_jacobian(drift)  # raises on a pole at the origin or f(0) != 0
    chi = exactla.char_poly(jac)
    det = -chi[0] if len(jac) % 2 else chi[0]
    if det.is_zero():
        raise NotApplicableError("drift Jacobian at the origin is singular")
    real_chi = [c.re for c in chi] if all(x.im == 0 for row in jac for x in row) else None
    norm = max(sum(abs(x.re) + abs(x.im) for x in row) for row in jac)
    for k in itertools.count(2):  # the norm test ends the ladder for every Df(0)
        a = Fraction(k, 2)
        if real_chi is not None and _hurwitz(_reflected_shift(real_chi, a * a / 2)):
            certificate = "Routh-Hurwitz"
            break
        if a * a > 2 * norm:
            certificate = "row-sum norm"
            break
    return PerturbationPlan(a=a, dim=len(jac), det_Df=det, certificate=certificate)


class PerturbVerdict(Record):
    passed: bool
    dmin: int
    dmax: int
    found: tuple[LaurentPoly, ...]


def verify_perturbation(drift: VField, plan: PerturbationPlan, D: int = 4) -> PerturbVerdict:
    """Exact weak-integral search over [1, D] on the perturbed system; PASS iff empty."""
    from .search import find_first_integrals

    sys = SdeSystem(drift=drift, diffusions=(plan.noise_field(),),
                    var_names=default_var_names(drift.dim))
    basis = find_first_integrals(sys, "weak", 1, D)
    return PerturbVerdict(passed=(len(basis) == 0), dmin=1, dmax=D, found=basis.basis)
