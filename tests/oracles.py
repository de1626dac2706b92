"""Reference implementations that the tests compare sdefi against.

The accumulation loops are the plain way to form a sum of products, one
``out = out + a * b`` per term, so that every partial sum is reduced; sdefi
forms each such sum once over one denominator and must agree exactly.
``evaluate_exact`` evaluates a polynomial term by term in CRational
arithmetic, independently of the integer forms sdefi works in.
``gauss_jordan`` is a dense CRational Gauss-Jordan pass: rank, kernel,
determinant and inverse read off it check sdefi's fraction-free elimination
and its Faddeev-LeVerrier determinant and inverse.  ``parse_poly_text`` and
``to_text`` read and print the text form through one CRational (and its
Fractions) per coefficient and build the polynomial through ``LaurentPoly``;
sdefi works on the integer pairs directly and must give the same polynomial,
the same text and the same errors.  ``poly_mul`` multiplies term by term in
CRational arithmetic, one monomial at a time.  ``paper_perturbation`` is the
paper's integrability-destroying noise P = Q diag(u^{a_1}, ..., u^{a_n}) Q^-1
on an exact eigenbasis Q of Df(0); sdefi's scalar noise a X dW is checked
against it.  ``diagonalizable`` evaluates the square-free part of the
characteristic polynomial at the matrix for every input, and
``exact_eigenbasis`` takes a kernel per eigenvalue for every block of
columns; sdefi answers square-free polynomials and one-column blocks at once
and must return the same.
"""

from fractions import Fraction

from sdefi import exactla
from sdefi.algebra import (
    _TOKEN_RE,
    CRational,
    DimensionMismatch,
    LaurentPoly,
    PoleError,
    VField,
    _as_crational,
    check_var_names,
    default_var_names,
    gradient,
    grlex_key,
    hessian,
    jacobian,
)
from sdefi.ito import SdeSystem
from sdefi.spectral import Eigenvalues, eigenbasis, linearization

HALF = Fraction(1, 2)


def dot(u: VField, v: VField) -> LaurentPoly:
    if len(u) != len(v):
        raise DimensionMismatch("vector fields of different length")
    out = LaurentPoly.zero(u.dim)
    for a, b in zip(u, v):
        out = out + a * b
    return out


def mat_vec_apply(mat, v: VField) -> VField:
    comps = []
    for row in mat:
        acc = LaurentPoly.zero(v.dim)
        for m, c in zip(row, v):
            acc = acc + m * c
        comps.append(acc)
    return VField(tuple(comps))


def stratonovich_drift(sys) -> VField:
    corrected = sys.drift
    for g in sys.diffusions:
        corrected = corrected - mat_vec_apply(jacobian(g), g).scale(HALF)
    return corrected


def weak_generator_apply(sys, phi: LaurentPoly) -> LaurentPoly:
    out = dot(gradient(phi), sys.drift)
    if sys.diffusions:
        hess = hessian(phi)
        for g in sys.diffusions:
            out = out + dot(g, mat_vec_apply(hess, g)).scale(HALF)
    return out


def poly_mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    if p.dim != q.dim:
        raise DimensionMismatch(f"dim {p.dim} vs {q.dim}")
    out = LaurentPoly.zero(p.dim)
    for e1, c1 in p.terms():
        for e2, c2 in q.terms():
            out = out + LaurentPoly.monomial(p.dim, [x + y for x, y in zip(e1, e2)], c1 * c2)
    return out


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if any(len(r) != k for r in a):
        raise ValueError("incompatible shapes")
    out = exactla.zeros(n, m)
    for i in range(n):
        for j in range(m):
            s = CRational(0)
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def evaluate_exact(p: LaurentPoly, point, powers: dict | None = None) -> CRational:
    """Exact value of p at a complex-rational point.

    Evaluations at the same point may share one `powers` table {(axis, k): x ** k},
    so that each coordinate power is computed once for all of them.
    """
    if len(point) != p.dim:
        raise DimensionMismatch(f"point has {len(point)} coords, poly dim {p.dim}")
    z = [_as_crational(x) for x in point]
    if powers is None:
        powers = {}
    total = CRational(0)
    for e, c in p.terms():
        for j, k in enumerate(e):
            if k:
                if (j, k) not in powers:
                    if z[j].is_zero() and k < 0:
                        raise PoleError(f"0**{k} while evaluating Laurent term {e}")
                    powers[j, k] = z[j] ** k
                c = c * powers[j, k]
        total += c
    return total


# -- dense Gauss-Jordan over Q(i): rank, kernel, determinant and inverse ------------

def gauss_jordan(a):
    """Exact Gauss-Jordan: (R, pivot_columns, d), R the reduced row echelon form.

    d is the product of the pivots, negated once per row swap, so a square
    matrix of full rank has determinant d.
    """
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    d = CRational(1)
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            d = -d
        d = d * m[r][c]
        inv = CRational(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots, d


def rref(a):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    return gauss_jordan(a)[:2]


def rank(a):
    return len(rref(a)[1]) if a else 0


def nullspace(a):
    """Kernel basis read off the RREF; each vector has coefficient 1 at its free column."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [CRational(0)] * cols
        v[fc] = CRational(1)
        for r_idx, pc in enumerate(pivots):
            v[pc] = -red[r_idx][fc]
        basis.append(v)
    return basis


def det(a):
    """The signed pivot product of the Gauss-Jordan pass."""
    _, pivots, d = gauss_jordan(a)
    return d if len(pivots) == len(a) else CRational(0)


def inverse(a):
    """The right half of the RREF of [A | I]."""
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, exactla.identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


# -- the text form through CRational ------------------------------------------------

def to_text(p: LaurentPoly, var_names=None) -> str:
    """Canonical text form, graded-lex descending, each coefficient through str(CRational)."""
    names = tuple(var_names) if var_names is not None else default_var_names(p.dim)
    if len(names) != p.dim:
        raise DimensionMismatch("var_names length != dim")
    check_var_names(names)
    if p.is_zero:
        return "0"
    chunks = []
    for e, c in sorted(p.terms(), key=lambda t: grlex_key(t[0]), reverse=True):
        factors = []
        for name, k in zip(names, e):
            if k == 0:
                continue
            factors.append(name if k == 1 else f"{name}^{k}")
        coeff_txt = str(c)
        if coeff_txt in ("1i", "-1i"):  # the unit imaginary prints as i, -i
            coeff_txt = coeff_txt.replace("1", "")
        neg = coeff_txt.startswith("-")
        if neg:
            coeff_txt = coeff_txt[1:]
        if not factors:
            body = coeff_txt
        elif coeff_txt == "1":
            body = " ".join(factors)
        else:
            body = f"{coeff_txt} * {' '.join(factors)}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(chunks)


def parse_poly_text(text: str, var_names) -> LaurentPoly:
    """The text form read with the same token regex, each coefficient made by
    CRational(str) and the terms summed by the LaurentPoly constructor."""
    names = list(var_names)
    check_var_names(names)
    dim = len(names)
    index = {n: i for i, n in enumerate(names)}
    terms = []
    sign, exps = 0, None  # the product of the signs read since the last term (0: none)
    for m in _TOKEN_RE.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind == "op":
            if tok != "*":  # a sign closes the open term
                exps, sign = None, (sign or 1) * (-1 if tok == "-" else 1)
            continue
        if kind == "inexact":
            raise ValueError(f"coefficient {tok!r} is not an exact rational "
                             f"(write 1/2, not 0.5)")
        lead = exps is None and kind in ("cplx", "coeff")
        if exps is None:  # this token opens a term
            exps, c = [0] * dim, CRational(1)
            try:
                if kind == "cplx":
                    c = CRational(m["re"], m["sgn"] + (m["im"] or "1"))
                elif lead:
                    c = CRational(0, tok[:-1] or 1) if tok.endswith("i") else CRational(tok)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in coefficient {tok!r}") from None
            terms.append((exps, -c if sign < 0 else c))
            sign = 0
        if lead:
            continue
        if m["name"] not in index:
            raise ValueError(f"unknown factor {tok!r} (variables: {', '.join(names)})")
        if m["badexp"]:
            raise ValueError(f"exponent {m['badexp']!r} in {tok!r} is not an integer")
        exps[index[m["name"]]] += int(m["exp"] or 1)
    if sign:
        raise ValueError(f"sign with no term after it in {text!r}")
    if not terms:
        raise ValueError("empty polynomial text")
    return LaurentPoly(dim, [(tuple(e), c) for e, c in terms])


# -- the paper's linear noise --------------------------------------------------------

def paper_exponents(n: int) -> tuple[int, ...]:
    """a_1 = 1, a_k = 2 (a_1 + ... + a_{k-1}): 1, 2, 6, 18, 54, ..."""
    exps: list[int] = []
    for _ in range(n):
        exps.append(1 if not exps else 2 * sum(exps))
    return tuple(exps)


def paper_perturbation(drift: VField, u=Fraction(37, 100)):
    """(exponents, P) with P = Q diag(u^{a_1}, ..., u^{a_n}) Q^-1, exactly.

    Q is the exact eigenbasis of Df(0), its columns in the order of the sorted
    spectrum, so Df(0) needs distinct eigenvalues with exact witnesses.  The
    exponents keep every pairwise sum a_i + a_j distinct.
    """
    n = drift.dim
    lin = linearization(SdeSystem(drift, (), default_var_names(n)))
    q, _, exact = eigenbasis([lin.A_f], [lin.mu0])
    if not exact:
        raise ValueError("the paper's plan needs an exact eigenbasis of Df(0)")
    exps = paper_exponents(n)
    mu = [u ** k for k in exps]
    return exps, mat_mul([[x * m for x, m in zip(row, mu)] for row in q], inverse(q))


def linear_field(mat) -> VField:
    """The vector field x -> M x."""
    n = len(mat)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return VField(tuple(LaurentPoly(n, zip(units, row)) for row in mat))


# -- diagonalizability and the exact eigenbasis, with no early answers --------------

def diagonalizable(m, chi) -> bool:
    """m is diagonalizable iff r(m) = 0 for the square-free part r = chi / gcd(chi, chi'),
    evaluated by Horner's rule for every chi."""
    r, _ = exactla.poly_divmod(chi, exactla.poly_gcd(chi, exactla.poly_deriv(chi)))
    acc = exactla.zeros(len(m))
    for c in reversed(r):  # Horner: acc <- acc m + c I
        acc = exactla.mat_mul(acc, m)
        for i in range(len(m)):
            acc[i][i] = acc[i][i] + c
    return exactla.is_zero_matrix(acc)


def exact_eigenbasis(mats, spectra):
    """Each matrix M in turn splits every block of columns B into the pieces
    B ker((M - lam I) B), one kernel per distinct lam and block; B starts as
    the identity."""
    n = len(mats[0])
    blocks = [(exactla.identity(n), ())]
    for m, spec in zip(mats, spectra):
        split = []
        for cols, vals in blocks:
            b = [list(row) for row in zip(*cols)]
            mb = exactla.mat_mul(m, b)
            for lam in dict.fromkeys(spec.exact):
                ker = exactla.nullspace([[x - lam * y for x, y in zip(rm, rb)]
                                         for rm, rb in zip(mb, b)])
                if ker:
                    split.append((exactla.mat_mul(ker, cols), vals + (lam,)))
        blocks = split
        if sum(len(cols) for cols, _ in blocks) != n:
            return None
    q = [[col[i] for cols, _ in blocks for col in cols] for i in range(n)]
    per_col = [vals for cols, vals in blocks for _ in cols]
    return q, [Eigenvalues(tuple(complex(v[i]) for v in per_col), tuple(v[i] for v in per_col))
               for i in range(len(mats))], True
