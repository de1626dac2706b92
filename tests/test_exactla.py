"""Sparse kernel: equal to the dense Gauss-Jordan kernel of the oracle, vector
for vector, and shaped as the search reads it; rank, nullspace, det and inverse
against the oracle; the characteristic polynomial's product count."""

import random
from fractions import Fraction
from math import lcm

import pytest

import oracles
from sdefi import algebra, exactla, systems
from sdefi.algebra import CRational
from sdefi.exactla import as_matrix, char_poly, identity, mat_sub, poly_eval, sparse_nullspace
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


def _gaussian(rows):
    """Each CRational row times the lcm of its denominators: {col: (re, im)} integers,
    stored zeros kept as (0, 0).  Scaling a row keeps the kernel."""
    out = []
    for row in rows:
        m = lcm(*[v._den for v in row.values()])
        out.append({c: (v._re * (m // v._den), v._im * (m // v._den)) for c, v in row.items()})
    return out


def _is_kernel(rows, v):
    return all(sum((x * v[c] for c, x in row.items()), CRational(0)).is_zero() for row in rows)


def test_sparse_nullspace_matches_dense_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(60):
        ncols = rng.randint(1, 14)
        rows = _random_sparse(rng, rng.randint(1, 16), ncols, rng.choice([0.1, 0.25, 0.5]))
        got = sparse_nullspace(_gaussian(rows), ncols)
        assert got == oracles.nullspace(_dense(rows, ncols))
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
        got = sparse_nullspace(_gaussian(rows), ncols)
        assert got == oracles.nullspace(_dense(rows, ncols))
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
        got = sparse_nullspace(_gaussian(rows), ncols)
        assert got == oracles.nullspace(_dense(rows, ncols))
        for v in got:
            support = {c for c, x in enumerate(v) if not x.is_zero()}
            assert sum(1 for cols in blocks if support & set(cols)) == 1


def test_sparse_nullspace_no_rows_is_identity():
    for ncols in (0, 1, 4):
        ident = [[CRational(1 if i == j else 0) for j in range(ncols)] for i in range(ncols)]
        assert sparse_nullspace([], ncols) == ident
        assert sparse_nullspace([{}, {}], ncols) == ident
        assert sparse_nullspace([{c: (0, 0) for c in range(ncols)}], ncols) == ident


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
        got = sparse_nullspace(_gaussian(rows), ncols)
        assert 2 * len(got) >= ncols
        assert got == oracles.nullspace(_dense(rows, ncols))


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
    got = sparse_nullspace(_gaussian(rows), ncols)
    assert len(got) == ncols
    assert all(v[i] == CRational(1) and sum(not x.is_zero() for x in v) == 1
               for i, v in enumerate(got))
    assert calls == [[], [1] * ncols]


def test_sparse_nullspace_ignores_stored_zeros_and_keeps_input():
    rows = [{0: (1, 0), 1: (0, 0), 2: (2, 0)}, {1: (0, 0)}]
    before = [dict(r) for r in rows]
    got = sparse_nullspace(rows, 3)
    assert got == oracles.nullspace(as_matrix([[1, 0, 2], [0, 0, 0]]))
    assert rows == before


def test_sparse_nullspace_matches_dense_on_operator_matrices():
    for sysm, kind, lo, hi in [(systems.two_body(), "weak", -1, 2),
                               (systems.cyclic_exchange(), "weak", 1, 3),
                               (systems.harmonic_oscillator(), "strong_drift", 1, 6)]:
        mat = operator_matrix(sysm, monomial_basis(sysm.dim, lo, hi), kind)
        nrows, ncols = mat.shape
        dense = [[CRational(0)] * ncols for _ in range(nrows)]
        for (r, c), v in mat.entries.items():
            dense[r][c] = v
        assert sparse_nullspace(mat.rows, ncols) == oracles.nullspace(dense)


def _gauss_entry(rng):
    """A nonzero Gaussian integer: purely imaginary, negative real part, both, or
    positive; small, or up to about 2^60."""
    top = rng.choice([3, 3, 2 ** 60])
    re, im = rng.choice([(0, 1), (-1, 0), (-1, 1), (1, 1), (1, 0)])
    re *= rng.randint(1, top)
    im *= rng.choice([-1, 1]) * rng.randint(1, top)
    return re, im


def _gauss_matrix(rng, nrows, ncols, density):
    """Random Gaussian-integer rows, plus a proportional row, a duplicate, an empty
    row and a row of stored zeros."""
    rows = [{c: _gauss_entry(rng) for c in range(ncols) if rng.random() < density}
            for _ in range(nrows)]
    if rows:
        (a, b), src = _gauss_entry(rng), rng.choice(rows)
        rows.append({c: (a * x - b * y, a * y + b * x) for c, (x, y) in src.items()})
        rows.append(dict(rng.choice(rows)))
    rows.insert(rng.randint(0, len(rows)), {})
    rows.insert(rng.randint(0, len(rows)), {c: (0, 0) for c in range(0, ncols, 2)})
    return rows


def _as_crational_rows(rows):
    return [{c: CRational(a, b) for c, (a, b) in row.items()} for row in rows]


def test_sparse_nullspace_matches_dense_on_gaussian_integer_matrices():
    # first single rows whose last entry pivots: purely imaginary, negative real,
    # negative real with an imaginary part, and one with a common factor
    cases = [([{0: (2, -1), 1: (-3, 0), 2: pivot}], 3)
             for pivot in [(0, 3), (0, -2 ** 60), (-5, 0), (-4, 7), (6, -6)]]
    rng = random.Random(29)
    for _ in range(80):
        ncols = rng.randint(1, 12)
        cases.append((_gauss_matrix(rng, rng.randint(0, 12), ncols,
                                    rng.choice([0.15, 0.3, 0.6])), ncols))
    for rows, ncols in cases:
        before = [dict(r) for r in rows]
        got = sparse_nullspace(rows, ncols)
        assert got == oracles.nullspace(_dense(_as_crational_rows(rows), ncols))
        assert rows == before
        assert all(_is_kernel(_as_crational_rows(rows), v) for v in got)


def test_sparse_nullspace_builds_one_crational_per_output_coefficient(monkeypatch):
    # the kernel runs on integer pairs: no CRational arithmetic, and a CRational
    # is made only for each nonzero coefficient of the basis
    made = []

    def counted(ints):
        def make(re, im, den):
            made.append(1)
            return ints(re, im, den)
        return make

    rng = random.Random(3)
    cases = [(_gauss_matrix(rng, rng.randint(1, 10), n, 0.4), n) for n in (1, 5, 9, 12)]
    mat = operator_matrix(systems.cyclic_exchange(), monomial_basis(3, 1, 3), "weak")
    cases.append((mat.rows, mat.shape[1]))
    cases.append(([{}], 6))
    for rows, ncols in cases:
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_ints", counted(algebra._ints))
            patch.setattr(exactla, "_ints", counted(exactla._ints))
            got = sparse_nullspace(rows, ncols)
        assert len(made) == sum(not x.is_zero() for v in got for x in v)


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
        assert poly_eval(p, x) == oracles.det(mat_sub(xi, a))
    assert char_poly(identity(2)) == [CRational(1), CRational(-2), CRational(1)]


# -- rank, nullspace, det and inverse against the dense Gauss-Jordan oracle ----------


def _dependent_matrix(rng, nrows, ncols):
    """Gaussian-rational rows, then some rows replaced by a zero row or by a scaled
    copy of another row."""
    m = [[_entry(rng, 0.3) if rng.random() < 0.7 else CRational(0) for _ in range(ncols)]
         for _ in range(nrows)]
    for i in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            m[i] = [CRational(0)] * ncols
        elif kind < 0.3 and nrows > 1:
            s, src = _entry(rng, 0.3), m[rng.randrange(nrows)]
            m[i] = [s * x for x in src]
    return m


def test_dense_operations_match_gauss_jordan_oracle():
    rng = random.Random(34)
    cases = [as_matrix([[0] * c for _ in range(r)]) for r in (1, 3) for c in (1, 4)]
    for _ in range(400):
        cases.append(_dependent_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
    singular = 0
    for m in cases:
        assert exactla.rank(m) == oracles.rank(m)
        assert exactla.nullspace(m) == oracles.nullspace(m)
        if len(m) != len(m[0]):
            continue
        d = oracles.det(m)
        assert exactla.det(m) == d
        if d.is_zero():
            singular += 1
            with pytest.raises(ZeroDivisionError, match="singular"):
                exactla.inverse(m)
        else:
            assert exactla.inverse(m) == oracles.inverse(m)
    assert singular >= 20
    assert exactla.det([]) == oracles.det([]) == CRational(1)
    assert exactla.inverse([]) == oracles.inverse([]) == []
    assert exactla.rank([]) == 0 and exactla.nullspace([]) == []


def test_rank_and_nullspace_run_the_one_elimination(monkeypatch):
    calls = []
    eliminate = exactla._eliminate_top_down

    def counted(rows):
        calls.append(1)
        return eliminate(rows)

    monkeypatch.setattr(exactla, "_eliminate_top_down", counted)
    a = as_matrix([[1, 2, 3], [2, 4, 6], [0, CRational(1, 1), Fraction(1, 2)]])
    assert exactla.rank(a) == 2 and calls
    calls.clear()
    assert len(exactla.nullspace(a)) == 1 and calls
    calls.clear()
    sq = as_matrix([[2, 1], [Fraction(1, 3), CRational(0, 1)]])
    exactla.det(sq)
    exactla.inverse(sq)
    exactla.char_poly(sq)
    assert not calls
    assert not hasattr(exactla, "rref") and not hasattr(exactla, "_gauss_jordan")


@pytest.mark.parametrize("name", ["det", "inverse", "char_poly"])
def test_square_only_operations_refuse_other_shapes(name):
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1], [2]], [[1, 2]]):
        a = as_matrix(rows)
        with pytest.raises(ValueError, match=f"{len(a)} x {len(a[0])} matrix is not square"):
            getattr(exactla, name)(a)


def test_mat_sub_refuses_different_shapes():
    with pytest.raises(ValueError, match="1 x 1 matrix from a 2 x 2"):
        mat_sub(as_matrix([[1, 2], [3, 4]]), as_matrix([[1]]))
    with pytest.raises(ValueError, match="2 x 1 matrix from a 1 x 2"):
        mat_sub(as_matrix([[1, 2]]), as_matrix([[1], [2]]))
    assert mat_sub(as_matrix([[1, 2]]), as_matrix([[3, 5]])) == as_matrix([[-2, -3]])
