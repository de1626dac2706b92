"""Linearization data at the origin, certified eigenvalues, one common eigenbasis.

For a system dX = f dt + sum_i g_i dB^i with f(0) = 0 this computes, exactly,

    A_f = Df(0),   A_g_i = Dg_i(0),   A0 = A_f - (1/2) sum_i A_g_i^2,

their characteristic polynomials (Faddeev-LeVerrier over the complex
rationals), and their eigenvalues.  Zero roots are stripped exactly and
repeated roots split off by exact gcds; a linear factor x + c gives the exact
root -c.  `numpy.roots` finds the rest, and a float root is certified exact
when a nearby small complex rational is an exact root.  Hence an eigenvalue
is either `exact` (a CRational witness) or honest floating point.  An A0
equal to A_f (no linear noise) reuses A_f's spectrum.

Also here: the exact simultaneous-diagonalizability check (commutators plus
a square-free-part test per matrix: a square-free characteristic polynomial
passes at once, and only repeated roots evaluate a matrix polynomial) and
`eigenbasis`, the one place that diagonalizes: exactly when every spectrum is
exact, numerically otherwise.  The weak resonance test reads its spectra in it.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import exactla
from .algebra import CRational, Record, VField
from .exactla import Matrix
from .ito import SdeSystem

HALF = Fraction(1, 2)


class NotApplicableError(ValueError):
    """Local analysis at the origin is undefined for this system."""


class RootFindingError(RuntimeError):
    """The float root finder failed to converge; never silently truncated."""


class Eigenvalues(Record):
    """Eigenvalue multiset (`roots` sorts it by (re, im)); exact[i] is a witness or None."""

    values: tuple[complex, ...]
    exact: tuple[CRational | None, ...]

    def __len__(self) -> int:
        return len(self.values)

    def all_exact(self) -> bool:
        return all(e is not None for e in self.exact)

    def to_dict(self) -> dict:
        """JSON form: each value as [re, im], each exact witness as its text or None."""
        return {"values": [[v.real, v.imag] for v in self.values],
                "exact": [str(e) if e is not None else None for e in self.exact]}


class H1Status(Record):
    verdict: str  # "holds" | "fails" | "unknown"
    witness: str | None = None


class SpectralData(Record):
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

def jacobian_at_origin(v: VField) -> Matrix:
    """Linear-term coefficient matrix; exact, requires analyticity at 0."""
    n = v.dim
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    out = []
    for i, p in enumerate(v):
        if p.has_negative_exponents():
            raise NotApplicableError(f"component {i + 1} has a pole at the origin")
        out.append([p.coeff(e) for e in units])
    return out


def _char_det_form(monic: list[CRational], n: int) -> list[CRational]:
    """det(A - xI) from the monic det(xI - A): multiply by (-1)^n."""
    if n % 2 == 0:
        return list(monic)
    return [-c for c in monic]


def drift_jacobian(drift: VField) -> Matrix:
    """Df(0), exactly; requires f analytic at 0 with f(0) = 0."""
    a = jacobian_at_origin(drift)  # raises on drift poles
    if any(not p.constant_term().is_zero() for p in drift):
        raise NotApplicableError("drift does not vanish at the origin (f(0) != 0)")
    return a


def linearization(sys: SdeSystem) -> SpectralData:
    """Exact local data at the origin; requires f analytic with f(0) = 0."""
    A_f = drift_jacobian(sys.drift)
    n = sys.dim

    A_g: list[Matrix | None] = []
    zero_flags: list[bool] = []
    h2_flags: list[bool] = []
    for g in sys.diffusions:
        try:
            a = jacobian_at_origin(g)
            low = min((p.min_total_degree() for p in g if not p.is_zero), default=2)
        except NotApplicableError:  # a pole at 0: no Dg_i, and g is neither O(|x|) nor O(|x|^2)
            a, low = None, 0
        A_g.append(a)
        zero_flags.append(low >= 1)
        h2_flags.append(low >= 2)

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
    if A0 == A_f:  # no noise, or noise without a linear part: Df(0)'s spectrum again
        char_polys["A0"], lam = char_polys["Df"], mu0
    else:
        lam = None if A0 is None else spectrum("A0", A0)

    return SpectralData(A_f=A_f, A_g=tuple(A_g), A0=A0, mu0=mu0, mu=tuple(mu), lam=lam,
                        char_polys=char_polys, g_zero_at_origin=tuple(zero_flags),
                        g_higher_order=tuple(h2_flags))


# -- root finding -----------------------------------------------------------------

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


def _distinct_roots(p: list[CRational]) -> list[tuple[complex, CRational | None]]:
    """Roots of a square-free monic polynomial, each exactly certified when possible.

    A linear x + c has the exact root -c.  Otherwise float roots come from
    `numpy.roots`, on a real coefficient array when every coefficient is
    real.  Every root is simple, so an exact root certifies only the first
    float root that rounds to it; a later one keeps its float value and no
    witness.
    """
    if len(p) == 2:
        root = -p[0]
        return [(complex(root), root)]
    import numpy as np

    coeffs = np.array([complex(c) for c in reversed(p)])
    if not coeffs.imag.any():
        coeffs = coeffs.real
    try:
        floats = np.roots(coeffs)
    except np.linalg.LinAlgError as e:
        raise RootFindingError(f"numpy.roots failed (degree {len(p) - 1}): {e}") from e
    out = []
    seen: set[CRational] = set()
    for w in map(complex, floats):
        ex = _certify_root(p, w)
        if ex is None or ex in seen:
            out.append((w, None))
        else:
            seen.add(ex)
            out.append((complex(ex), ex))
    return out


def _roots_multiset(p: list[CRational]) -> list[tuple[complex, CRational | None]]:
    p = exactla.poly_monic(p)
    out: list[tuple[complex, CRational | None]] = []
    while len(p) > 1 and p[0].is_zero():  # strip exact zero roots
        out.append((0j, CRational(0)))
        p = p[1:]
    if len(p) <= 1:
        return out
    if len(p) == 2:  # linear: square-free, no gcd to take
        return out + _distinct_roots(p)
    g = exactla.poly_gcd(p, exactla.poly_deriv(p))
    if len(g) > 1:  # repeated roots: radical + recurse into the gcd
        radical, _ = exactla.poly_divmod(p, g)
        out.extend(_distinct_roots(exactla.poly_monic(radical)))
        out.extend(_roots_multiset(g))
        return out
    out.extend(_distinct_roots(p))
    return out


def roots(char: list[CRational]) -> Eigenvalues:
    """Eigenvalue multiset of a characteristic polynomial (either sign convention)."""
    pairs = _roots_multiset(list(char))
    pairs.sort(key=lambda t: (t[0].real, t[0].imag))
    return Eigenvalues(values=tuple(v for v, _ in pairs), exact=tuple(e for _, e in pairs))


def eigenvalues(m: Matrix) -> Eigenvalues:
    """Exact-where-possible spectrum of a complex-rational matrix."""
    return roots(exactla.char_poly(m))


# -- simultaneous diagonalizability (hypothesis H of the weak resonance test) -----

def _diagonalizable(m: Matrix, chi: list[CRational]) -> bool:
    """Exact: m is diagonalizable iff r(m) = 0, where r = chi / gcd(chi, chi') is
    the square-free part of its characteristic polynomial chi (the minimal
    polynomial divides r exactly when it has no repeated root).  A constant
    gcd means distinct eigenvalues, so m is diagonalizable with no matrix
    polynomial formed.  Either sign convention of chi will do: it only
    scales r by -1."""
    g = exactla.poly_gcd(chi, exactla.poly_deriv(chi))
    if len(g) <= 1:
        return True
    r, _ = exactla.poly_divmod(chi, g)
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


# -- one common eigenbasis -----------------------------------------------------------

def eigenbasis(mats: list[Matrix], spectra: list[Eigenvalues]
               ) -> tuple[object, list[Eigenvalues], bool] | None:
    """A common eigenbasis (Q, values, exact) of a commuting, diagonalizable family.

    `spectra[i]` is the spectrum of `mats[i]`.  Column j of Q is an
    eigenvector of every matrix, `values[i]` lists the eigenvalues of
    `mats[i]` on the columns, and the columns follow `spectra[0]`'s order.
    When every spectrum is exact, so is the basis: Q is a CRational Matrix and
    each value carries its witness.  Otherwise Q is a complex ndarray and the
    values are floats.  Returns None when no basis is found.
    """
    if all(s.all_exact() for s in spectra):
        return _exact_eigenbasis(mats, spectra)
    return _numeric_eigenbasis(mats, spectra)


def _exact_eigenbasis(mats: list[Matrix], spectra: list[Eigenvalues]):
    """Each matrix M in turn splits every block of columns B into the pieces
    B ker((M - lam I) B), one per distinct lam; B starts as the identity.
    A block of one column c needs no kernel: it stays whole with the lam
    of Mc = lam c, or is lost when no lam of the spectrum fits."""
    n = len(mats[0])
    blocks = [(exactla.identity(n), ())]  # (columns, eigenvalue of each matrix so far)
    for m, spec in zip(mats, spectra):
        split = []
        for cols, vals in blocks:
            b = [list(row) for row in zip(*cols)]
            mb = exactla.mat_mul(m, b)
            if len(cols) == 1:
                lam = next((lam for lam in dict.fromkeys(spec.exact)
                            if all(rm[0] == lam * rb[0] for rm, rb in zip(mb, b))), None)
                if lam is not None:
                    split.append((cols, vals + (lam,)))
                continue
            for lam in dict.fromkeys(spec.exact):
                ker = exactla.nullspace([[x - lam * y for x, y in zip(rm, rb)]
                                         for rm, rb in zip(mb, b)])
                if ker:
                    split.append((exactla.mat_mul(ker, cols), vals + (lam,)))
        blocks = split
        if sum(len(cols) for cols, _ in blocks) != n:
            return None  # M is not diagonalizable on some block
    q = [[col[i] for cols, _ in blocks for col in cols] for i in range(n)]
    per_col = [vals for cols, vals in blocks for _ in cols]
    return q, [Eigenvalues(tuple(complex(v[i]) for v in per_col), tuple(v[i] for v in per_col))
               for i in range(len(mats))], True


def _numeric_eigenbasis(mats: list[Matrix], spectra: list[Eigenvalues]):
    """Eigenvectors of a seeded random combination of the family, matched
    greedily to `spectra[0]`.  With two or more matrices the combination is
    redrawn until its eigenvalues separate and its eigenvectors diagonalize
    every member."""
    import numpy as np

    fmats = [exactla.mat_to_complex(m) for m in mats]
    n = len(fmats[0])
    rng = random.Random(17)
    for _ in range(8):
        combo = fmats[0].copy()
        for fm in fmats[1:]:
            combo = combo + rng.uniform(0.5, 2.0) * fm
        vals, t = np.linalg.eig(combo)
        diags = [vals]
        if len(fmats) > 1:
            if min((abs(vals[i] - vals[j]) for i in range(n) for j in range(i + 1, n)),
                   default=1.0) < 1e-8:
                continue  # combo not generic enough; try another
            try:
                tinv = np.linalg.inv(t)
            except np.linalg.LinAlgError:
                continue
            diags = [tinv @ fm @ t for fm in fmats]
            if any(np.max(np.abs(d - np.diag(np.diag(d)))) > 1e-8 * max(1.0, np.max(np.abs(d)))
                   for d in diags):
                continue
            diags = [np.diag(d) for d in diags]
        order: list[int] = []
        for target in spectra[0].values:
            order.append(min((j for j in range(n) if j not in order),
                             key=lambda j: abs(diags[0][j] - target)))
        return t[:, order], [Eigenvalues(tuple(map(complex, d[order])), (None,) * n)
                             for d in diags], False
    return None


def aligned_spectra(data: SpectralData) -> tuple[Eigenvalues, list[Eigenvalues], bool] | None:
    """Common-eigenbasis-aligned (lam, [mu^i...], exact?) for the weak resonance test.

    Precondition: `h1_check(data)` holds; the caller checks it, and this
    function does not repeat it.  lam_j = mu0_j - (1/2) sum_i (mu^i_j)^2 with
    all tuples read in the column order of `eigenbasis` of Df(0) and every
    Dg_i(0); exact whenever every spectrum is.  Returns None when no common
    eigenbasis is found.
    """
    if any(m is None for m in data.A_g):
        return None
    basis = eigenbasis([data.A_f, *data.A_g], [data.mu0, *data.mu])
    if basis is None:
        return None
    _, (mu0, *mus), exact = basis
    df, *dgs = [s.exact if exact else s.values for s in (mu0, *mus)]
    lam = tuple(v - sum(dg[j] * dg[j] for dg in dgs) * HALF for j, v in enumerate(df))
    return Eigenvalues(tuple(map(complex, lam)), lam if exact else (None,) * len(lam)), mus, exact
