"""Exact linear algebra over the complex rationals.

Dense matrices are lists of rows of :class:`CRational`.  One fraction-free
elimination over Gaussian integers gives every rank and kernel; determinants
and inverses come from the Faddeev-LeVerrier pass.  Everything is exact — no
tolerances, no floats — so ranks, nullspaces, determinants and characteristic
polynomials are certificates.  Univariate polynomials are dense coefficient
lists, ascending degree.
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


def _shape(a: Matrix) -> str:
    return f"{len(a)} x {len(a[0]) if a else 0}"


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    if [len(r) for r in a] != [len(r) for r in b]:
        raise ValueError(f"cannot subtract a {_shape(b)} matrix from a {_shape(a)} one")
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: CoeffLike) -> Matrix:
    c = _as_crational(c)
    return [[x * c for x in row] for row in a]


def _over_one_den(xs) -> tuple[list[tuple[int, int]], int]:
    """([(re, im) numerators], den): the entries of xs over their one lcm denominator."""
    den = lcm(*[x._den for x in xs])
    return [(x._re * (den // x._den), x._im * (den // x._den)) for x in xs], den


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """A B.  Each row of a and each column of b is put over one denominator once,
    so an entry is an integer sum of products over their product: one gcd pass."""
    if any(len(r) != len(b) for r in a):
        raise ValueError("incompatible shapes")
    cols = [_over_one_den(col) for col in zip(*b)]
    out = []
    for row in a:
        ra, da = _over_one_den(row)
        out_row = []
        for cb, db in cols:
            re = im = 0
            for (x, y), (u, v) in zip(ra, cb):
                re += x * u - y * v
                im += x * v + y * u
            out_row.append(_ints(re, im, da * db))
        out.append(out_row)
    return out


def trace(a: Matrix) -> CRational:
    nums, den = _over_one_den([a[i][i] for i in range(len(a))])
    return _ints(sum(x for x, _ in nums), sum(y for _, y in nums), den)


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_to_complex(a: Matrix):
    import numpy as np

    return np.array([[complex(x) for x in row] for row in a], dtype=complex)


# -- elimination ---------------------------------------------------------------

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
    """Exact kernel basis of a sparse matrix.

    `rows` are dicts {column: (re, im)} of Gaussian integers; no dense matrix
    is built.  The rows are eliminated from the last column to the first,
    which for a search is the highest graded-lex degree first; there the
    pivots stay sparse far longer than in ascending order.  That RREF gives
    one kernel vector per free column, integers over the lcm of its pivots.
    The canonical step runs the same elimination on those k vectors: the RREF
    of the kernel with its columns reversed is unique, and it is the basis
    with 1 at each free column of the ascending RREF, 0 at the other free
    columns and nonzeros only below it, one CRational per nonzero.  A zero
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


def _gaussian_rows(a: Matrix) -> list[dict]:
    """The nonzero rows of a as Gaussian-integer rows {column: (re, im)}, each
    over its one denominator: scaling a row keeps the rank and the kernel."""
    rows = (_over_one_den(row)[0] for row in a)
    return [r for row in rows if (r := {c: v for c, v in enumerate(row) if v != (0, 0)})]


def rank(a: Matrix) -> int:
    """The number of pivots of the fraction-free elimination."""
    return len(_eliminate_top_down(_gaussian_rows(a)))


def nullspace(a: Matrix) -> list[Vector]:
    """Exact kernel basis, the canonical one of `sparse_nullspace`."""
    return sparse_nullspace(_gaussian_rows(a), len(a[0])) if a else []


def _faddeev(a: Matrix) -> tuple[list[CRational], Matrix]:
    """(coefficients of det(xI - A) ascending, M_n) by Faddeev-LeVerrier.

    M_1 = I, c_{n-1} = -tr(A M_1); M_k = A M_{k-1} + c_{n-k+1} I,
    c_{n-k} = -tr(A M_k)/k.  Each product A M_k serves twice, for c_{n-k} and
    then for M_{k+1}, so an n x n matrix costs n products.  By Cayley-Hamilton
    A M_n + c_0 I = 0.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"{_shape(a)} matrix is not square")
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
    return coeffs, m


def char_poly(a: Matrix) -> list[CRational]:
    """Monic characteristic polynomial det(xI - A), coefficients ascending."""
    return _faddeev(a)[0]


def det(a: Matrix) -> CRational:
    """det(A) = (-1)^n c_0, c_0 the constant term of det(xI - A)."""
    c0 = _faddeev(a)[0][0]
    return -c0 if len(a) % 2 else c0


def inverse(a: Matrix) -> Matrix:
    """A^-1 = -M_n / c_0, since A M_n = -c_0 I."""
    coeffs, m = _faddeev(a)
    if coeffs[0].is_zero():
        raise ZeroDivisionError("matrix is singular")
    return mat_scale(m, -1 / coeffs[0])


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
