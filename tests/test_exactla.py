"""Sparse kernel: equal to the dense Gauss-Jordan kernel, vector for vector,
and shaped as the search reads it; the characteristic polynomial's product count."""

import random
from fractions import Fraction

from sdefi import exactla, systems
from sdefi.algebra import CRational
from sdefi.exactla import as_matrix, char_poly, det, identity, mat_sub, nullspace, poly_eval, \
    sparse_nullspace
from sdefi.search import monomial_basis, operator_matrix


def _entry(rng, complex_share):
    re = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < complex_share else 0
    return CRational(re, im)


def _random_sparse(rng, nrows, ncols, density, complex_share=0.3, cols=None):
    """Random {col: value} rows over `cols` (default all), plus a zero row and a duplicate."""
    cols = list(range(ncols)) if cols is None else cols
    rows = [{c: _entry(rng, complex_share) for c in cols if rng.random() < density}
            for _ in range(nrows)]
    rows.insert(rng.randint(0, len(rows)), {})
    if rows:
        rows.append(dict(rng.choice(rows)))
    return rows


def _dense(rows, ncols):
    zero = CRational(0)
    return [[row.get(c, zero) for c in range(ncols)] for row in rows]


def _is_kernel(rows, v):
    return all(sum((x * v[c] for c, x in row.items()), CRational(0)).is_zero() for row in rows)


def test_sparse_nullspace_matches_dense_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(60):
        ncols = rng.randint(1, 14)
        rows = _random_sparse(rng, rng.randint(1, 16), ncols, rng.choice([0.1, 0.25, 0.5]))
        got = sparse_nullspace(rows, ncols)
        assert got == nullspace(_dense(rows, ncols))
        assert all(_is_kernel(rows, v) for v in got)
        # the shape find_first_integrals relies on: each vector ends in a 1 at its
        # free column, zero at the other free columns, and the free columns ascend
        free = [max(c for c, x in enumerate(v) if not x.is_zero()) for v in got]
        assert free == sorted(set(free))
        for v, fc in zip(got, free):
            assert v[fc] == CRational(1)
            assert all(v[c].is_zero() for c in free if c != fc)


def test_sparse_nullspace_empty_columns_are_free():
    rng = random.Random(11)
    ncols = 12
    used = [c for c in range(ncols) if c % 3]  # columns 0, 3, 6, 9 hold no entry
    for _ in range(20):
        rows = _random_sparse(rng, rng.randint(1, 10), ncols, 0.4, cols=used)
        got = sparse_nullspace(rows, ncols)
        assert got == nullspace(_dense(rows, ncols))
        free = [next(c for c, x in enumerate(v) if x == CRational(1)) for v in got]
        assert {0, 3, 6, 9} <= set(free)


def test_sparse_nullspace_block_diagonal():
    # Three blocks on interleaved columns: each kernel vector lives in one block.
    rng = random.Random(7)
    ncols = 15
    blocks = [list(range(k, ncols, 3)) for k in range(3)]
    for _ in range(15):
        rows = []
        for cols in blocks:
            rows.extend(_random_sparse(rng, rng.randint(1, 5), ncols, 0.6, cols=cols))
        rng.shuffle(rows)
        got = sparse_nullspace(rows, ncols)
        assert got == nullspace(_dense(rows, ncols))
        for v in got:
            support = {c for c, x in enumerate(v) if not x.is_zero()}
            assert sum(1 for cols in blocks if support & set(cols)) == 1


def test_sparse_nullspace_no_rows_is_identity():
    for ncols in (0, 1, 4):
        ident = [[CRational(1 if i == j else 0) for j in range(ncols)] for i in range(ncols)]
        assert sparse_nullspace([], ncols) == ident
        assert sparse_nullspace([{}, {}], ncols) == ident


def test_sparse_nullspace_wide_kernels_match_dense():
    # at most ncols // 2 independent rows, plus combinations that cancel in elimination
    rng = random.Random(5)
    for _ in range(40):
        ncols = rng.randint(2, 16)
        rows = _random_sparse(rng, rng.randint(1, ncols // 2), ncols, rng.choice([0.2, 0.5, 0.9]))
        for _ in range(rng.randint(0, 3)):
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = _entry(rng, 0.3), _entry(rng, 0.3)
            combo = {c: s * a.get(c, CRational(0)) + t * b.get(c, CRational(0))
                     for c in set(a) | set(b)}
            rows.insert(rng.randint(0, len(rows)), combo)
        got = sparse_nullspace(rows, ncols)
        assert 2 * len(got) >= ncols
        assert got == nullspace(_dense(rows, ncols))


def test_sparse_nullspace_zero_operator_canonical_step_stays_sparse(monkeypatch):
    # every column is free: the rows, empty once their stored zeros are gone,
    # never reach the elimination, and the canonical step eliminates ncols unit
    # vectors, one nonzero each, instead of a dense ncols x ncols RREF
    calls = []
    eliminate = exactla._eliminate_top_down

    def recorded(rows):
        calls.append(sorted(len(r) for r in rows))
        return eliminate(rows)

    monkeypatch.setattr(exactla, "_eliminate_top_down", recorded)
    ncols = 400
    rows = [{c: CRational(0) for c in range(0, ncols, 7)}, {}, {3: CRational(0)}]
    got = sparse_nullspace(rows, ncols)
    assert len(got) == ncols
    assert all(v[i] == CRational(1) and sum(not x.is_zero() for x in v) == 1
               for i, v in enumerate(got))
    assert calls == [[], [1] * ncols]


def test_sparse_nullspace_ignores_stored_zeros_and_keeps_input():
    rows = [{0: CRational(1), 1: CRational(0), 2: CRational(2)}, {1: CRational(0)}]
    before = [dict(r) for r in rows]
    got = sparse_nullspace(rows, 3)
    assert got == nullspace(_dense(rows, 3))
    assert rows == before


def test_sparse_nullspace_matches_dense_on_operator_matrices():
    for sysm, kind, lo, hi in [(systems.two_body(), "weak", -1, 2),
                               (systems.cyclic_exchange(), "weak", 1, 3),
                               (systems.harmonic_oscillator(), "strong_drift", 1, 6)]:
        mat = operator_matrix(sysm, monomial_basis(sysm.dim, lo, hi), kind)
        ncols = mat.shape[1]
        rows = mat.sparse_rows()
        assert sparse_nullspace(rows, ncols) == nullspace(_dense(rows, ncols))


def test_char_poly_makes_one_product_per_degree(monkeypatch):
    calls = []
    mat_mul = exactla.mat_mul

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(exactla, "mat_mul", counted)
    a = as_matrix([[Fraction(1, 2), CRational(2, -1), 0],
                   [3, Fraction(-5, 3), CRational(0, 1)],
                   [Fraction(7, 4), 1, -2]])
    p = char_poly(a)
    assert len(calls) == 3
    for x in (CRational(0), CRational(Fraction(3, 2)), CRational(-2, Fraction(1, 3)), CRational(7)):
        xi = [[x if i == j else CRational(0) for j in range(3)] for i in range(3)]
        assert poly_eval(p, x) == det(mat_sub(xi, a))
    assert char_poly(identity(2)) == [CRational(1), CRational(-2), CRational(1)]
