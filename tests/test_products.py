"""Sums of products: each is one exact sum over one denominator, equal to the
term-by-term accumulation in `oracles`."""

import operator
import random
from fractions import Fraction

import pytest

import oracles
from sdefi import algebra, exactla, systems
from sdefi.algebra import CRational, DimensionMismatch, LaurentPoly, VField, _sum_of_products, \
    dot, mat_vec_apply
from sdefi.ito import SdeSystem, stratonovich_drift, weak_generator_apply


def _coeff(rng):
    # Gaussian rationals with mixed denominators, some real, some imaginary
    den = rng.choice([1, 1, 2, 3, 4, 6, 9, 35])
    re = Fraction(rng.randint(-9, 9), den)
    im = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5, 7])) if rng.random() < 0.4 else 0
    return CRational(re, im)


def _poly(rng, dim, max_terms=4):
    if rng.random() < 0.15:
        return LaurentPoly.zero(dim)
    terms = {tuple(rng.randint(-2, 2) for _ in range(dim)): _coeff(rng)
             for _ in range(rng.randint(1, max_terms))}
    return LaurentPoly(dim, terms)


def _field(rng, dim):
    return VField(tuple(_poly(rng, dim) for _ in range(dim)))


def _cancelling(rng, dim):
    # u . v == 0 exactly: v pairs each u_i with -u_j and each u_j with u_i, times a common c
    u = _field(rng, dim)
    c = _poly(rng, dim)
    perm = list(range(dim))
    rng.shuffle(perm)
    v = [LaurentPoly.zero(dim)] * dim
    for i, j in zip(perm[::2], perm[1::2]):
        v[i], v[j] = -u[j] * c, u[i] * c
    return u, VField(tuple(v))


def test_dot_and_mat_vec_apply_match_accumulation():
    rng = random.Random(4021)
    for case in range(120):
        dim = 1 + case % 4
        u, v = _cancelling(rng, dim) if case % 5 == 0 else (_field(rng, dim), _field(rng, dim))
        got = dot(u, v)
        assert got == oracles.dot(u, v)
        if case % 5 == 0:
            assert got.is_zero
        mat = [[_poly(rng, dim) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        assert mat_vec_apply(mat, v) == oracles.mat_vec_apply(mat, v)


def test_ito_operators_match_accumulation():
    rng = random.Random(77)
    for case in range(60):
        dim = 1 + case % 4
        f = _field(rng, dim)
        gs = tuple(_field(rng, dim) for _ in range(rng.randint(0, 2)))
        sys = SdeSystem(f, gs, tuple(f"x{i + 1}" for i in range(dim)))
        assert stratonovich_drift(sys) == oracles.stratonovich_drift(sys)
        phi = _poly(rng, dim)
        assert weak_generator_apply(sys, phi) == oracles.weak_generator_apply(sys, phi)
    for sys in (systems.gbm(), systems.two_body(), systems.cyclic_exchange()):
        assert stratonovich_drift(sys) == oracles.stratonovich_drift(sys)
        phi = systems.two_body_energy() if sys.dim == 4 else LaurentPoly.variable(sys.dim, 0)
        assert weak_generator_apply(sys, phi) == oracles.weak_generator_apply(sys, phi)


def test_sum_of_products_of_no_pairs_is_zero():
    for dim in (1, 4):
        assert _sum_of_products(dim, []) == LaurentPoly.zero(dim)
    # a weak operator symbol with no noise: a_jl is that empty sum
    f = VField((LaurentPoly.variable(2, 1), -LaurentPoly.variable(2, 0)))
    sys = SdeSystem(f, (), ("x1", "x2"))
    phi = LaurentPoly(2, {(2, 0): 1, (0, 2): 1})
    assert weak_generator_apply(sys, phi).is_zero
    assert stratonovich_drift(sys) == f


def test_mixed_dims_still_raise():
    x2, x3 = LaurentPoly.variable(2, 0), LaurentPoly.variable(3, 0)
    with pytest.raises(DimensionMismatch):
        x2 * x3
    with pytest.raises(DimensionMismatch):
        dot(VField((x2, x2)), VField((x3, x3)))
    with pytest.raises(DimensionMismatch):
        mat_vec_apply([[x3, x3]], VField((x2, x2)))
    with pytest.raises(DimensionMismatch):
        _sum_of_products(2, [(x3, x3)])


def test_mat_vec_apply_refuses_ragged_rows():
    x, y = LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)
    v = VField((x, y))
    for mat in ([[x, y, x]], [[x]], [[x, y], [y]]):
        with pytest.raises(DimensionMismatch):
            mat_vec_apply(mat, v)
    assert mat_vec_apply([[x, y]], v) == VField((x * x + y * y,))


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_reduction_per_sum(monkeypatch):
    rng = random.Random(5)
    u, v = _field(rng, 4), _field(rng, 4)
    mat = [[_poly(rng, 4) for _ in range(4)] for _ in range(3)]
    reduced = _counting(monkeypatch, algebra, "_reduced")
    dot(u, v)
    assert len(reduced) == 1
    reduced.clear()
    mat_vec_apply(mat, v)
    assert len(reduced) == len(mat)


def test_mat_mul_matches_accumulation():
    rng = random.Random(808)
    for case in range(80):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        a = [[_coeff(rng) for _ in range(k)] for _ in range(n)]
        b = [[_coeff(rng) for _ in range(m)] for _ in range(k)]
        cancel = case % 4 == 0 and k >= 2
        if cancel:  # b's first column is z (-a01, a00, 0, ...): (A B)[0][0] cancels to 0
            z = _coeff(rng)
            for t, x in enumerate((-a[0][1] * z, a[0][0] * z)):
                b[t][0] = x
            for row in b[2:]:
                row[0] = CRational(0)
        got = exactla.mat_mul(a, b)
        assert got == oracles.mat_mul(a, b)
        if cancel:
            assert got[0][0] == 0
        if n == k:
            assert exactla.trace(a) == sum((a[i][i] for i in range(n)), CRational(0))
    with pytest.raises(ValueError):
        exactla.mat_mul([[_coeff(rng)] * 2], [[_coeff(rng)]])


def test_mat_mul_makes_one_crational_per_entry(monkeypatch):
    rng = random.Random(9)
    a = [[_coeff(rng) for _ in range(3)] for _ in range(4)]
    b = [[_coeff(rng) for _ in range(2)] for _ in range(3)]
    made = _counting(monkeypatch, exactla, "_ints")
    exactla.mat_mul(a, b)
    assert len(made) == 4 * 2



def test_exponent_adder_sums_like_map_add():
    rng = random.Random(35)
    for dim in range(1, 7):
        add = algebra._exponent_adder(dim)
        assert algebra._exponent_adder(dim) is add  # built once per dimension
        for _ in range(200):
            a, b = (tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(2))
            got = add(a, b)
            assert type(got) is tuple and got == tuple(map(operator.add, a, b))


@pytest.mark.parametrize("dim", [5, 6])
def test_products_in_high_dimensions_match_accumulation(dim):
    rng = random.Random(dim)
    for _ in range(40):
        p, q = _poly(rng, dim, max_terms=6), _poly(rng, dim, max_terms=6)
        assert p * q == oracles.poly_mul(p, q)
        u, v = _field(rng, dim), _field(rng, dim)
        assert dot(u, v) == oracles.dot(u, v)
