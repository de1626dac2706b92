"""Linearization data at the origin and certified eigenvalue extraction.

For a system dX = f dt + sum_i g_i dB^i with f(0) = 0 this computes, exactly,

    A_f = Df(0),   A_g_i = Dg_i(0),   A0 = A_f - (1/2) sum_i A_g_i^2,

their characteristic polynomials (Faddeev-LeVerrier over the complex
rationals), and their eigenvalues.  Roots are found by stripping zero roots
exactly, reducing to a square-free polynomial with exact gcds, then running
Durand-Kerner simultaneous iteration; every float root is afterwards tested
against a nearby small complex rational and certified exact when the exact
evaluation vanishes.  Hence an eigenvalue is either `exact` (a CRational
witness) or honest floating point.

Also here: the simultaneous-diagonalizability check (exact commutators plus
an exact square-free-part test per matrix) and the common-eigenbasis alignment
of drift/noise spectra that downstream resonance tests require.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla
from .algebra import CRational, LaurentPoly, VField
from .exactla import Matrix
from .ito import SdeSystem

HALF = Fraction(1, 2)


class NotApplicableError(ValueError):
    """Local analysis at the origin is undefined for this system."""


class RootFindingError(RuntimeError):
    """Simultaneous iteration failed to converge; never silently truncated."""


@dataclass(frozen=True)
class Eigenvalues:
    """Eigenvalue multiset, sorted by (re, im); exact[i] is a certified witness or None."""

    values: tuple[complex, ...]
    exact: tuple[CRational | None, ...]

    def __len__(self) -> int:
        return len(self.values)

    def all_exact(self) -> bool:
        return all(e is not None for e in self.exact)


@dataclass(frozen=True)
class H1Status:
    verdict: str  # "holds" | "fails" | "unknown"
    witness: str | None = None


@dataclass(frozen=True)
class SpectralData:
    """Exact Jacobians at the origin plus their spectra.

    A_g entries and mu entries are None when the corresponding diffusion is
    not analytic at the origin; A0/lam are None unless every A_g exists.
    char_polys holds det(A - xI) coefficient lists, ascending degree.
    """

    A_f: Matrix
    A_g: tuple[Matrix | None, ...]
    A0: Matrix | None
    mu0: Eigenvalues
    mu: tuple[Eigenvalues | None, ...]
    lam: Eigenvalues | None
    char_polys: dict
    g_zero_at_origin: tuple[bool, ...]
    g_higher_order: tuple[bool, ...]

    @property
    def dim(self) -> int:
        return len(self.A_f)


# -- Jacobians at the origin (coefficient extraction, exact) ---------------------

def value_at_origin(v: VField) -> list[CRational]:
    """Constant terms; raises if a component has a pole at the origin."""
    for i, p in enumerate(v):
        if p.has_negative_exponents():
            raise NotApplicableError(f"component {i + 1} has a pole at the origin")
    return [p.constant_term() for p in v]


def jacobian_at_origin(v: VField) -> Matrix:
    """Linear-term coefficient matrix; exact, requires analyticity at 0."""
    n = v.dim
    out = exactla.zeros(len(v), n)
    for i, p in enumerate(v):
        if p.has_negative_exponents():
            raise NotApplicableError(f"component {i + 1} has a pole at the origin")
        for j in range(n):
            e = [0] * n
            e[j] = 1
            out[i][j] = p.coeff(e)
    return out


def _is_analytic(v: VField) -> bool:
    return not any(p.has_negative_exponents() for p in v)


def _char_det_form(monic: list[CRational], n: int) -> list[CRational]:
    """det(A - xI) from the monic det(xI - A): multiply by (-1)^n."""
    if n % 2 == 0:
        return list(monic)
    return [-c for c in monic]


def linearization(sys: SdeSystem) -> SpectralData:
    """Exact local data at the origin; requires f analytic with f(0) = 0."""
    f0 = value_at_origin(sys.drift)  # raises on drift poles
    if any(not c.is_zero() for c in f0):
        raise NotApplicableError("drift does not vanish at the origin (f(0) != 0)")
    n = sys.dim
    A_f = jacobian_at_origin(sys.drift)

    A_g: list[Matrix | None] = []
    zero_flags: list[bool] = []
    h2_flags: list[bool] = []
    for g in sys.diffusions:
        if _is_analytic(g):
            g0 = value_at_origin(g)
            A_g.append(jacobian_at_origin(g))
            zero_flags.append(all(c.is_zero() for c in g0))
            mindeg = min((p.min_total_degree() for p in g if not p.is_zero), default=None)
            h2_flags.append(mindeg is None or mindeg >= 2)
        else:
            A_g.append(None)
            zero_flags.append(False)
            h2_flags.append(False)

    A0: Matrix | None = None
    if all(m is not None for m in A_g):
        A0 = A_f
        for m in A_g:
            A0 = exactla.mat_sub(A0, exactla.mat_scale(exactla.mat_mul(m, m), HALF))

    char_polys: dict = {}

    def spectrum(name: str, m: Matrix) -> Eigenvalues:
        chi = exactla.char_poly(m)  # once per matrix: stored, then rooted
        char_polys[name] = _char_det_form(chi, n)
        return roots(chi)

    mu0 = spectrum("Df", A_f)
    mu = [None if m is None else spectrum(f"Dg_{i + 1}", m) for i, m in enumerate(A_g)]
    lam = None if A0 is None else spectrum("A0", A0)

    return SpectralData(A_f=A_f, A_g=tuple(A_g), A0=A0, mu0=mu0, mu=tuple(mu), lam=lam,
                        char_polys=char_polys, g_zero_at_origin=tuple(zero_flags),
                        g_higher_order=tuple(h2_flags))


# -- root finding -----------------------------------------------------------------

_DK_TOL = 1e-12
_DK_MAX_ITER = 600
_DK_RESTARTS = 8


def _durand_kerner(coeffs: list[complex], seed: int = 0) -> list[complex]:
    """All roots of a monic complex polynomial (ascending coefficients)."""
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-coeffs[0]]
    rng = random.Random(seed)
    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    offset = 0.43
    for attempt in range(_DK_RESTARTS + 1):
        w = [radius * np.exp(1j * (2 * np.pi * k / deg + offset)) for k in range(deg)]
        for _ in range(_DK_MAX_ITER):
            max_step = 0.0
            for k in range(deg):
                pk = 0j
                for c in reversed(coeffs):
                    pk = pk * w[k] + c
                denom = 1.0 + 0j
                for j in range(deg):
                    if j != k:
                        denom *= w[k] - w[j]
                if denom == 0:
                    max_step = float("inf")
                    break
                step = pk / denom
                w[k] -= step
                max_step = max(max_step, abs(step))
            scale = max(1.0, max(abs(x) for x in w))
            if max_step <= _DK_TOL * scale:
                return w
            if not np.isfinite(max_step):
                break
        offset = 0.43 + rng.uniform(0.1, 2.9)
        radius *= 1.0 + rng.uniform(0.0, 0.5)
    raise RootFindingError(f"Durand-Kerner failed after {_DK_RESTARTS + 1} attempts (degree {deg})")


def _certify_root(p: list[CRational], w: complex) -> CRational | None:
    """Try to promote a float root to an exact complex-rational one."""
    try:
        cand = CRational(Fraction(w.real).limit_denominator(10 ** 6),
                         Fraction(w.imag).limit_denominator(10 ** 6))
    except (OverflowError, ValueError):
        return None
    if abs(complex(cand) - w) > 1e-6:
        return None
    return cand if exactla.poly_eval(p, cand).is_zero() else None


def _distinct_roots(p: list[CRational], seed: int) -> list[tuple[complex, CRational | None]]:
    """Roots of a square-free monic polynomial, each exactly certified when possible.

    Every root is simple, so an exact root certifies only the first float root
    that rounds to it; a later one keeps its float value and no witness.
    """
    floats = _durand_kerner([complex(c) for c in p], seed=seed)
    out = []
    seen: set[CRational] = set()
    for w in floats:
        ex = _certify_root(p, w)
        if ex is None or ex in seen:
            out.append((w, None))
        else:
            seen.add(ex)
            out.append((complex(ex), ex))
    return out


def _roots_multiset(p: list[CRational], seed: int = 0) -> list[tuple[complex, CRational | None]]:
    p = exactla.poly_monic(p)
    out: list[tuple[complex, CRational | None]] = []
    while len(p) > 1 and p[0].is_zero():  # strip exact zero roots
        out.append((0j, CRational(0)))
        p = p[1:]
    if len(p) <= 1:
        return out
    g = exactla.poly_gcd(p, exactla.poly_deriv(p))
    if len(g) > 1:  # repeated roots: radical + recurse into the gcd
        radical, _ = exactla.poly_divmod(p, g)
        out.extend(_distinct_roots(exactla.poly_monic(radical), seed))
        out.extend(_roots_multiset(g, seed + 1))
        return out
    out.extend(_distinct_roots(p, seed))
    return out


def roots(char: list[CRational], seed: int = 0) -> Eigenvalues:
    """Eigenvalue multiset of a characteristic polynomial (either sign convention)."""
    pairs = _roots_multiset(list(char), seed=seed)
    pairs.sort(key=lambda t: (t[0].real, t[0].imag))
    return Eigenvalues(values=tuple(v for v, _ in pairs), exact=tuple(e for _, e in pairs))


def eigenvalues(m: Matrix, seed: int = 0) -> Eigenvalues:
    """Exact-where-possible spectrum of a complex-rational matrix."""
    return roots(exactla.char_poly(m), seed=seed)


# -- simultaneous diagonalizability (hypothesis H of the weak resonance test) -----

def _diagonalizable(m: Matrix, chi: list[CRational]) -> bool:
    """Exact: m is diagonalizable iff r(m) = 0, where r = chi / gcd(chi, chi') is
    the square-free part of its characteristic polynomial chi (the minimal
    polynomial divides r exactly when it has no repeated root).  Either sign
    convention of chi will do: it only scales r by -1."""
    r, _ = exactla.poly_divmod(chi, exactla.poly_gcd(chi, exactla.poly_deriv(chi)))
    acc = exactla.zeros(len(m))
    for c in reversed(r):  # Horner: acc <- acc m + c I
        acc = exactla.mat_mul(acc, m)
        for i in range(len(m)):
            acc[i][i] = acc[i][i] + c
    return exactla.is_zero_matrix(acc)


def h1_check(data: SpectralData) -> H1Status:
    """Do Df(0) and all Dg_i(0) commute pairwise and diagonalize simultaneously?

    Both tests are exact, with no borderline case: the commutators are
    computed over the complex rationals, and each matrix is diagonalizable iff
    the square-free part of its characteristic polynomial annihilates it.
    """
    mats: list[tuple[str, Matrix]] = [("Df", data.A_f)]
    for i, m in enumerate(data.A_g):
        if m is None:
            return H1Status("unknown", f"Dg_{i + 1} undefined: diffusion {i + 1} not analytic at 0")
        mats.append((f"Dg_{i + 1}", m))
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            comm = exactla.mat_sub(exactla.mat_mul(mats[a][1], mats[b][1]),
                                   exactla.mat_mul(mats[b][1], mats[a][1]))
            if not exactla.is_zero_matrix(comm):
                return H1Status("fails", f"[{mats[a][0]}, {mats[b][0]}] != 0")
    for name, m in mats:
        if not _diagonalizable(m, data.char_polys[name]):
            return H1Status("fails", f"{name} is not diagonalizable")
    return H1Status("holds", None)


def aligned_spectra(data: SpectralData) -> tuple[Eigenvalues, list[Eigenvalues], bool] | None:
    """Common-eigenbasis-aligned (lam, [mu^i...], exact?) for the weak resonance test.

    Precondition: `h1_check(data)` holds; the caller checks it, and this
    function does not repeat it.  lam_j = mu0_j - (1/2) sum_i (mu^i_j)^2 with
    all tuples read in one shared eigenvector order.  Exact when every matrix
    is literally diagonal; otherwise numeric via the eigenbasis of a generic
    combination of the commuting family.  Returns None when no reliable
    numeric alignment exists.
    """
    if any(m is None for m in data.A_g):
        return None
    n = data.dim
    mats = [data.A_f] + [m for m in data.A_g]

    if all(exactla.is_diagonal(m) for m in mats):
        mu0 = [data.A_f[j][j] for j in range(n)]
        mus = [[m[j][j] for j in range(n)] for m in data.A_g]
        lam = []
        for j in range(n):
            s = CRational(0)
            for mu_i in mus:
                s = s + mu_i[j] * mu_i[j]
            lam.append(mu0[j] - s * HALF)
        to_eig = lambda xs: Eigenvalues(values=tuple(complex(x) for x in xs), exact=tuple(xs))
        return to_eig(lam), [to_eig(m) for m in mus], True

    fmats = [exactla.mat_to_complex(m) for m in mats]
    rng = random.Random(17)
    for _ in range(8):
        combo = fmats[0].copy()
        for fm in fmats[1:]:
            combo = combo + rng.uniform(0.5, 2.0) * fm
        vals, t = np.linalg.eig(combo)
        if n > 1:
            sep = min(abs(vals[i] - vals[j]) for i in range(n) for j in range(i + 1, n))
            if sep < 1e-8:
                continue  # combo not generic enough; try another
        try:
            tinv = np.linalg.inv(t)
        except np.linalg.LinAlgError:
            continue
        diags = []
        ok = True
        for fm in fmats:
            d = tinv @ fm @ t
            off = d - np.diag(np.diag(d))
            if np.max(np.abs(off)) > 1e-8 * max(1.0, np.max(np.abs(d))):
                ok = False
                break
            diags.append(np.diag(d))
        if not ok:
            continue
        mu0 = diags[0]
        mus = diags[1:]
        lam = mu0 - 0.5 * sum(m * m for m in mus)
        none_eig = lambda xs: Eigenvalues(values=tuple(complex(x) for x in xs),
                                          exact=(None,) * n)
        return none_eig(lam), [none_eig(m) for m in mus], False
    return None
