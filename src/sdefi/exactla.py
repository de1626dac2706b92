"""Exact linear algebra over the complex rationals.

Dense matrices are lists of rows of :class:`CRational`; the sparse kernel of
a search runs fraction-free on rows of Gaussian integers.  Everything here
is exact — no tolerances, no floats — so ranks, nullspaces, determinants
and characteristic polynomials are certificates, not estimates.  Univariate
polynomials are dense coefficient lists, ascending degree.
"""

from __future__ import annotations

from math import gcd, lcm

from .algebra import CoeffLike, CRational, _as_crational, _ints

Matrix = list  # list[list[CRational]]
Vector = list  # list[CRational]
_ZERO = CRational(0)


def as_matrix(rows) -> Matrix:
    out = [[_as_crational(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return [[CRational(1 if i == j else 0) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return [[CRational(0) for _ in range(m)] for _ in range(n)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: CoeffLike) -> Matrix:
    c = _as_crational(c)
    return [[x * c for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    if any(len(r) != k for r in a):
        raise ValueError("incompatible shapes")
    out = zeros(n, m)
    for i in range(n):
        for j in range(m):
            s = CRational(0)
            for t in range(k):
                s = s + a[i][t] * b[t][j]
            out[i][j] = s
    return out


def trace(a: Matrix) -> CRational:
    return sum((a[i][i] for i in range(len(a))), CRational(0))


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_to_complex(a: Matrix):
    import numpy as np

    return np.array([[complex(x) for x in row] for row in a], dtype=complex)


# -- elimination ---------------------------------------------------------------

def _gauss_jordan(a: Matrix) -> tuple[Matrix, list[int], CRational]:
    """Exact Gauss-Jordan: (R, pivot_columns, d), R the reduced row echelon form.

    d is the product of the pivots, negated once per row swap, so a square
    matrix of full rank has determinant d.
    """
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
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


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (exact Gauss-Jordan); returns (R, pivot_columns)."""
    return _gauss_jordan(a)[:2]


def rank(a: Matrix) -> int:
    if not a:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Exact kernel basis; each vector has coefficient 1 at its free column."""
    if not a:
        return []
    cols = len(a[0])
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis: list[Vector] = []
    for fc in free:
        v = [CRational(0)] * cols
        v[fc] = CRational(1)
        for r_idx, pc in enumerate(pivots):
            v[pc] = -red[r_idx][fc]
        basis.append(v)
    return basis


def _remove_content(row: dict):
    """Divide a Gaussian-integer row by the gcd of all its parts."""
    g = gcd(*[x for pair in row.values() for x in pair])
    if g > 1:
        for k, (x, y) in row.items():
            row[k] = (x // g, y // g)


def _eliminate_top_down(rows: list[dict]) -> dict[int, dict]:
    """Fraction-free sparse Gauss-Jordan in place on Gaussian-integer rows
    {column: (re, im)}, columns from last to first: {pivot column: row}.

    Each pivot row ends with a positive integer at its pivot and 0 at every
    other pivot column, and holds no column above its pivot: the RREF with
    the columns reversed, up to a scale per row, which keeps the kernel.  The
    pivot is the candidate row with the fewest nonzeros (Markowitz), and
    eliminating a column touches only the rows that hold it.
    """
    rows_with: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            rows_with.setdefault(c, set()).add(i)
    pivot_of: dict[int, int] = {}
    used: set[int] = set()
    # fill-in only reaches columns some row holds, so the others are skipped
    for c in sorted(rows_with, reverse=True):
        candidates = rows_with[c] - used
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        a, b = prow[c]
        if b or a < 0:
            # times conj(a + bi) / gcd(a, b): the pivot becomes (a^2 + b^2) / gcd(a, b)
            g = gcd(a, b)
            a, b = a // g, -b // g
            for k, (x, y) in prow.items():
                prow[k] = (a * x - b * y, a * y + b * x)
        _remove_content(prow)
        n = prow[c][0]
        for i in rows_with[c] - {p}:
            # row <- (n/g) row - (f/g) prow with f = row[c], g = gcd(n, f): 0 at c
            row = rows[i]
            fr, fi = row[c]
            g = gcd(n, fr, fi)
            s, fr, fi = n // g, fr // g, fi // g
            if s != 1:
                for k, (x, y) in row.items():
                    row[k] = (s * x, s * y)
            for k, (x, y) in prow.items():
                u, v = row.get(k, (0, 0))
                u -= fr * x - fi * y
                v -= fr * y + fi * x
                if u or v:
                    row[k] = (u, v)
                    rows_with[k].add(i)
                else:
                    del row[k]
                    rows_with[k].discard(i)
            if s != 1 and i in used:
                _remove_content(row)
        used.add(p)
        pivot_of[c] = p
    return {c: rows[p] for c, p in pivot_of.items()}


def sparse_nullspace(rows, ncols: int) -> list[Vector]:
    """Exact kernel basis of a sparse matrix, vector for vector equal to `nullspace`.

    `rows` are dicts {column: (re, im)} of Gaussian integers; no dense matrix
    is built.  The rows are eliminated from the last column to the first,
    which for a search is the highest graded-lex degree first; there the
    pivots stay sparse far longer than in ascending order.  That RREF gives
    one kernel vector per free column, integers over the lcm of its pivots.
    The canonical step runs the same elimination on those k vectors: the RREF
    of the kernel with its columns reversed is unique, and it is `nullspace`'s
    basis (1 at each free column of the ascending RREF, 0 at the other free
    columns, nonzeros only below it), one CRational per nonzero.  A zero
    operator makes every column free: k = ncols unit vectors, one entry each,
    so the canonical step stays linear where a dense RREF would be cubic.
    """
    # Copies, since elimination works in place; stored zeros dropped, then the
    # rows left empty (they hold no column, so they never pivot).
    pivots = _eliminate_top_down(
        [r for row in rows if (r := {c: v for c, v in row.items() if v != (0, 0)})])
    # (pivot column, pivot, entry) of each pivot row that holds a free column
    held: dict[int, list] = {fc: [] for fc in range(ncols) if fc not in pivots}
    for pc, row in pivots.items():
        for fc, v in row.items():
            if fc != pc:
                held[fc].append((pc, row[pc][0], v))
    kernel = []
    for fc, entries in held.items():
        m = lcm(*[n for _, n, _ in entries])
        kernel.append({fc: (m, 0), **{pc: (-x * (m // n), -y * (m // n))
                                      for pc, n, (x, y) in entries}})
    canonical = _eliminate_top_down(kernel)

    basis: list[Vector] = []
    for fc in sorted(canonical):
        row = canonical[fc]
        n = row[fc][0]
        v = [_ZERO] * ncols
        for c, (x, y) in row.items():
            v[c] = _ints(x, y, n)
        basis.append(v)
    return basis


def det(a: Matrix) -> CRational:
    """Exact determinant: the signed pivot product of the Gauss-Jordan pass."""
    _, pivots, d = _gauss_jordan(a)
    return d if len(pivots) == len(a) else CRational(0)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [row[:] + ident_row[:] for row, ident_row in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def char_poly(a: Matrix) -> list[CRational]:
    """Monic characteristic polynomial det(xI - A), coefficients ascending.

    Faddeev-LeVerrier recurrence: M_1 = I, c_{n-1} = -tr(A M_1);
    M_k = A M_{k-1} + c_{n-k+1} I, c_{n-k} = -tr(A M_k)/k.  Each product
    A M_k serves twice, for c_{n-k} and then for M_{k+1}, so an n x n matrix
    costs n products.
    """
    n = len(a)
    coeffs = [CRational(0)] * (n + 1)
    coeffs[n] = CRational(1)
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = coeffs[n - k] = -(trace(am) / k)
        if k < n:
            m = am
            for i in range(n):
                m[i][i] = m[i][i] + c
    return coeffs


# -- dense univariate polynomials (ascending coefficients) ----------------------

def poly_trim(p: list[CRational]) -> list[CRational]:
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def poly_eval(p: list[CRational], x: CRational) -> CRational:
    out = CRational(0)
    for c in reversed(p):
        out = out * x + c
    return out


def poly_deriv(p: list[CRational]) -> list[CRational]:
    return [c * k for k, c in enumerate(p)][1:]


def poly_divmod(num: list[CRational], den: list[CRational]) -> tuple[list[CRational], list[CRational]]:
    num, den = poly_trim(num[:]), poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [CRational(0)] * max(0, len(num) - len(den) + 1)
    r = num
    inv_lead = CRational(1) / den[-1]
    while len(r) >= len(den):
        shift = len(r) - len(den)
        c = r[-1] * inv_lead
        q[shift] = c
        r = poly_trim([rc - c * den[k - shift] if 0 <= k - shift < len(den) else rc
                       for k, rc in enumerate(r)])
    return q, r


def poly_monic(p: list[CRational]) -> list[CRational]:
    p = poly_trim(p)
    if not p:
        return p
    inv = CRational(1) / p[-1]
    return [c * inv for c in p]


def poly_gcd(a: list[CRational], b: list[CRational]) -> list[CRational]:
    """Monic gcd over the complex-rational field (Euclid)."""
    a, b = poly_trim(a[:]), poly_trim(b[:])
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)
