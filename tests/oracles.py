"""Reference implementations that the tests compare sdefi against.

The accumulation loops are the plain way to form a sum of products, one
``out = out + a * b`` per term, so that every partial sum is reduced; sdefi
forms each such sum once over one denominator and must agree exactly.
``evaluate_exact`` evaluates a polynomial term by term in CRational
arithmetic, independently of the integer forms sdefi works in.
``gauss_jordan`` is a dense CRational Gauss-Jordan pass: rank, kernel,
determinant and inverse read off it check sdefi's fraction-free elimination
and its Faddeev-LeVerrier determinant and inverse.
"""

from fractions import Fraction

from sdefi import exactla
from sdefi.algebra import (
    CRational,
    DimensionMismatch,
    LaurentPoly,
    PoleError,
    VField,
    _as_crational,
    gradient,
    hessian,
    jacobian,
)

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
