"""Construction of a linear noise that destroys all low-degree weak integrals.

Given an ODE drift f with f(0) = 0 and invertible Jacobian A = Df(0) whose
eigenvalues are distinct (exactly: gcd(chi, chi') is constant for the
characteristic polynomial chi), pick 0 < u < 1 and set

    P = Q diag(u^{a_1}, ..., u^{a_n}) Q^{-1},    a_1 = 1, a_k = 2 (a_1 + ... + a_{k-1}),

where Q is `spectral.eigenbasis` of A: its columns are eigenvectors in the
order of the sorted eigenvalue tuple.  The exponents grow as (1, 2, 6, 18,
...): a_{k+1} = 3 a_k from the second term on, which keeps all pairwise sums
distinct.  The plan is
accepted only if the degree-l obstruction

    E(l) = 2 <lam, l> + sum_i l_i (l_i - 1) mu_i^2 + sum_{i != j} l_i l_j mu_i mu_j

is nonzero for every 0 < |l|_1 <= L (mu_i = u^{a_i}); then the perturbed
system dX = f dt + (P X) dB has no polynomial weak integral through degree L.
E(l) = 2 q(l), twice the weak resonance function of the corrected spectrum
lam_j - mu_j^2 / 2 and the noise spectrum mu, and `resonance.resonance_values`
computes it.  If some E(l) vanishes, fresh u values from a seeded sequence are
tried.

When every eigenvalue is exact, Q and hence P are computed exactly
(`exact_route`); otherwise Q is numeric and P is lifted bit for bit to
complex rationals.  Verification is independent: the weak-integral search is
run on that exactly rational P, so PASS means an exact kernel computation
found nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import CRational, LaurentPoly, VField, default_var_names
from .exactla import Matrix
from .ito import SdeSystem
from .resonance import resonance_values
from .spectral import Eigenvalues, NotApplicableError, eigenbasis, linearization

_MAX_RETRIES = 20  # seeded fresh u values tried after the requested one


class PerturbationError(RuntimeError):
    """No admissible u: u outside (0, 1), or every tried u has a vanishing E(l)."""


def recurrence_exponents(n: int) -> tuple[int, ...]:
    """a_1 = 1, a_k = 2 * (a_1 + ... + a_{k-1}): 1, 2, 6, 18, 54, ..."""
    exps: list[int] = []
    for _ in range(n):
        exps.append(1 if not exps else 2 * sum(exps))
    return tuple(exps)


@dataclass(frozen=True)
class PerturbationPlan:
    u: Fraction
    exponents: tuple[int, ...]
    mu: tuple[Fraction, ...]
    eigenvalues: Eigenvalues          # drift spectrum, order matches Q columns
    Q: np.ndarray
    P: np.ndarray
    P_exact: Matrix                   # CRational lift actually used for verification
    exact_route: bool                 # True: P_exact is Q diag(mu) Q^-1 computed exactly
    residual_min: float               # min |E(l)| over the accepted scan
    L: int
    det_Df: CRational

    def noise_field(self) -> VField:
        """The linear diffusion x -> P x as an exact vector field."""
        n = len(self.P_exact)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return VField(tuple(LaurentPoly(n, zip(units, row)) for row in self.P_exact))

    def to_dict(self) -> dict:
        eig = self.eigenvalues.to_dict()
        return {
            "u": str(self.u),
            "exponents": list(self.exponents),
            "mu": [str(m) for m in self.mu],
            "eigenvalues": eig["values"],
            "eigenvalues_exact": eig["exact"],
            "Q": [[[z.real, z.imag] for z in row] for row in self.Q.tolist()],
            "P": [[[z.real, z.imag] for z in row] for row in self.P.tolist()],
            "P_exact": [[str(x) for x in row] for row in self.P_exact],
            "exact_route": self.exact_route,
            "residual_min": self.residual_min,
            "L": self.L,
            "det_Df": str(self.det_Df),
        }


def _as_u_fraction(u) -> Fraction:
    """Read u exactly; floats go through their decimal literal (0.37 -> 37/100)."""
    if isinstance(u, Fraction):
        f = u
    elif isinstance(u, float):
        f = Fraction(repr(u))
    else:
        f = Fraction(u)
    if not 0 < f < 1:
        raise PerturbationError(f"u must lie in (0, 1), got {f}")
    return f


def build_perturbation(drift: VField, u=Fraction(37, 100), L: int = 8,
                       seed: int = 0) -> PerturbationPlan:
    """Construct P for the drift, retrying fresh u values until E(l) != 0 through L."""
    n = drift.dim
    lin = linearization(SdeSystem(drift, (), default_var_names(n)))  # raises unless f(0) = 0
    a, chi, eig = lin.A_f, lin.char_polys["Df"], lin.mu0
    if chi[0].is_zero():  # chi(0) = det(A - 0 I)
        raise NotApplicableError("drift Jacobian at the origin is singular")
    if len(exactla.poly_gcd(chi, exactla.poly_deriv(chi))) > 1:  # a repeated root, exactly
        # the closest pair of the spectrum is the repeated eigenvalue, twice
        near = min(((v, w) for i, v in enumerate(eig.values) for w in eig.values[i + 1:]),
                   key=lambda vw: abs(vw[0] - vw[1]))[0]
        raise NotApplicableError(
            f"repeated eigenvalue near {near:.6g}: "
            "defective/defect-prone Jacobians are not supported")

    exponents = recurrence_exponents(n)
    rng = random.Random(seed)
    candidates = [_as_u_fraction(u)]
    while len(candidates) < 1 + _MAX_RETRIES:
        c = Fraction(rng.randint(11, 989), 1000)
        if c not in candidates:
            candidates.append(c)

    chosen: Fraction | None = None
    chosen_mu: list[Fraction] | None = None
    last_bad = None
    for cand in candidates:
        mu = [cand ** k for k in exponents]
        # P shifts the drift spectrum to the corrected lam_j - mu_j^2 / 2
        scan = resonance_values(
            [v - float(m * m) / 2 if e is None else e - m * m / 2
             for v, e, m in zip(eig.values, eig.exact, mu)], [mu], L)
        zeros = scan.zeros(1e-12)  # the l with E(l) = 2 q(l) = 0
        if zeros:
            last_bad = (cand, zeros[0])
            continue
        chosen, chosen_mu = cand, mu
        residual_min = min((abs(complex(q + q)) for q in scan.near_min()), default=float("inf"))
        break
    if chosen is None:
        raise PerturbationError(
            f"no admissible u in {len(candidates)} tries; last failure u={last_bad[0]} "
            f"at l={last_bad[1]}")

    # distinct eigenvalues: the basis always exists, exact when the spectrum is
    qmat, _, exact_route = eigenbasis([a], [eig])
    if exact_route:  # P = Q diag(mu) Q^-1, exactly
        p_exact = exactla.mat_mul([[x * m for x, m in zip(row, chosen_mu)] for row in qmat],
                                  exactla.inverse(qmat))
        qmat, p_float = exactla.mat_to_complex(qmat), exactla.mat_to_complex(p_exact)
    else:
        p_float = qmat @ np.diag([float(m) for m in chosen_mu]) @ np.linalg.inv(qmat)
        p_exact = [[CRational(Fraction(z.real), Fraction(z.imag)) for z in row]
                   for row in p_float.tolist()]

    return PerturbationPlan(u=chosen, exponents=exponents, mu=tuple(chosen_mu),
                            eigenvalues=eig, Q=qmat, P=p_float, P_exact=p_exact,
                            exact_route=exact_route, residual_min=residual_min,
                            L=L, det_Df=chi[0])


@dataclass(frozen=True)
class PerturbVerdict:
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
