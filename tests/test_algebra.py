"""Exact polynomial substrate: ring laws, calculus, evaluation, text format, lattices."""

import itertools
import random
from fractions import Fraction

import pytest

from sdefi.algebra import (
    CRational,
    DimensionMismatch,
    LaurentPoly,
    PoleError,
    VField,
    dot,
    gradient,
    hessian,
    jacobian,
    lattice_points,
    parse_poly_text,
    to_text,
)


def rand_coeff(rng):
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < 0.3 else 0
    return CRational(re, im)


def rand_poly(rng, dim, dmin=-2, dmax=4, max_terms=8):
    n_terms = rng.randint(0, max_terms)
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(dmin, dmax) for _ in range(dim))
        terms[e] = rand_coeff(rng)
    return LaurentPoly(dim, terms)


# -- CRational ---------------------------------------------------------------


def test_crational_rejects_floats():
    with pytest.raises(TypeError):
        CRational(0.5)
    with pytest.raises(TypeError):
        CRational(1, 0.25)


def test_crational_arithmetic():
    a = CRational(Fraction(1, 2), Fraction(3, 4))
    b = CRational(2, -1)
    assert a + b == CRational(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == CRational(Fraction(1, 2) * 2 + Fraction(3, 4), Fraction(3, 2) - Fraction(1, 2))
    assert (a / b) * b == a
    assert -a + a == CRational(0)
    assert a.conjugate().im == -a.im


def test_crational_pow_negative():
    z = CRational(1, 1)
    assert z ** 2 == CRational(0, 2)
    assert z ** -1 == CRational(Fraction(1, 2), Fraction(-1, 2))
    assert z ** 0 == CRational(1)
    with pytest.raises(ZeroDivisionError):
        CRational(0) ** -1


def test_crational_str_forms():
    assert str(CRational(Fraction(3, 2))) == "3/2"
    assert str(CRational(0, Fraction(3, 2))) == "3/2i"
    s = str(CRational(Fraction(1, 2), Fraction(-3, 4)))
    assert "1/2" in s and "3/4" in s and "i" in s


def test_crational_hash_eq():
    assert CRational(Fraction(2, 4)) == CRational(Fraction(1, 2))
    assert hash(CRational(1, 2)) == hash(CRational(1, 2))
    assert CRational(1) == 1 and CRational(Fraction(1, 3)) == Fraction(1, 3)


# -- ring laws (seeded property loops) ----------------------------------------


def test_ring_axioms():
    rng = random.Random(20240817)
    for _ in range(120):
        dim = rng.randint(1, 3)
        a, b, c = (rand_poly(rng, dim) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == LaurentPoly.zero(dim)
        assert a * LaurentPoly.const(dim, 1) == a
        assert (a - b) + b == a


def test_pow_matches_repeated_mul():
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly(rng, 2, -1, 2, 4)
        assert p ** 3 == p * p * p
        assert p ** 0 == LaurentPoly.const(2, 1)


def test_scale_and_neg():
    p = parse_poly_text("2 x1 - 3 * x2^2", ["x1", "x2"])
    assert p.scale(Fraction(1, 2)) == parse_poly_text("x1 - 3/2 * x2^2", ["x1", "x2"])
    assert p.scale(0).is_zero


# -- calculus ------------------------------------------------------------------


def test_differentiate_monomials():
    # d/dx of x^-2 is -2 x^-3; exponent 0 kills the term
    p = LaurentPoly(1, {(-2,): 1, (0,): 5})
    assert p.differentiate(0) == LaurentPoly(1, {(-3,): -2})


def test_product_rule():
    rng = random.Random(99)
    for _ in range(60):
        dim = rng.randint(1, 3)
        a, b = rand_poly(rng, dim), rand_poly(rng, dim)
        for axis in range(dim):
            lhs = (a * b).differentiate(axis)
            rhs = a.differentiate(axis) * b + a * b.differentiate(axis)
            assert lhs == rhs


def test_gradient_of_angular_momentum_shape():
    # phi = r^2 w over (r, phi, v, w): grad = (2 r w, 0, 0, r^2)
    names = ("r", "phi", "v", "w")
    p = parse_poly_text("r^2 w", names)
    g = gradient(p)
    assert to_text(g[0], names) == "2 * r w"
    assert g[1].is_zero and g[2].is_zero
    assert to_text(g[3], names) == "r^2"


def test_hessian_symmetry():
    rng = random.Random(4242)
    for _ in range(40):
        dim = rng.randint(2, 4)
        p = rand_poly(rng, dim, -2, 3, 6)
        h = hessian(p)
        for i in range(dim):
            for j in range(dim):
                assert h[i][j] == h[j][i]


def test_jacobian_entries():
    names = ("x1", "x2", "x3")
    g = VField((
        parse_poly_text("x1 - 2 x2 + x1 x2 - x1 x3", names),
        parse_poly_text("2 x2 - x3 + x2 x3 - x1 x2", names),
        parse_poly_text("x3 - x1 + x1 x3 - x2 x3", names),
    ))
    jac = jacobian(g)
    # constant parts reproduce the linearization matrix [[1,-2,0],[0,2,-1],[-1,0,1]]
    expected = [[1, -2, 0], [0, 2, -1], [-1, 0, 1]]
    for i in range(3):
        for j in range(3):
            assert jac[i][j].constant_term() == CRational(expected[i][j])


def test_dot_requires_matching_dims():
    u = VField((LaurentPoly.variable(2, 0), LaurentPoly.variable(2, 1)))
    v = VField((LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 0)))
    assert dot(u, v) == parse_poly_text("2 x1 x2", ["x1", "x2"])
    w = VField((LaurentPoly.variable(3, 0),) * 3)
    with pytest.raises(DimensionMismatch):
        dot(u, w)


# -- evaluation ------------------------------------------------------------------


def test_evaluate_against_direct_computation():
    rng = random.Random(31337)
    for _ in range(40):
        dim = rng.randint(1, 3)
        p = rand_poly(rng, dim, -2, 3, 6)
        point = [complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)) for _ in range(dim)]
        direct = 0j
        for e, c in p.terms():
            t = complex(c)
            for z, k in zip(point, e):
                t *= z ** k
            direct += t
        assert abs(p.evaluate(point) - direct) <= 1e-9 * (1 + abs(direct))


def test_evaluate_exact_matches_float():
    p = parse_poly_text("3/2 * x1^2 - x1^-1 + 2", ["x1"])
    exact = p.evaluate_exact([Fraction(2, 3)])
    assert exact == CRational(Fraction(3, 2) * Fraction(4, 9) - Fraction(3, 2) + 2)
    assert abs(p.evaluate([2 / 3]) - complex(exact)) < 1e-12


def test_evaluate_exact_shares_powers_at_one_point():
    names = ["x1", "x2"]
    polys = [parse_poly_text(t, names) for t in
             ("x1^2 x2^-1 - 3 x1", "x1^2 + x2^-1 + 1/2", "x2^3 x1^-2", "7")]
    point = [Fraction(-2, 3), CRational(Fraction(1, 5), Fraction(2))]
    powers = {}
    assert [p.evaluate_exact(point, powers) for p in polys] == \
        [p.evaluate_exact(point) for p in polys]
    assert set(powers) == {(0, 1), (0, 2), (0, -2), (1, -1), (1, 3)}
    assert powers[0, -2] == CRational(Fraction(9, 4))


def test_pole_raises():
    p = parse_poly_text("x1^-1", ["x1"])
    with pytest.raises(PoleError):
        p.evaluate([0.0])
    with pytest.raises(PoleError):
        p.evaluate_exact([0])


# -- canonical text ---------------------------------------------------------------


def test_text_round_trip_random():
    rng = random.Random(555)
    for _ in range(100):
        dim = rng.randint(1, 4)
        p = rand_poly(rng, dim)
        names = tuple(f"x{i+1}" for i in range(dim))
        assert parse_poly_text(to_text(p, names), names) == p


def test_text_round_trip_named_vars():
    names = ("r", "phi", "v", "w")
    p = parse_poly_text("1/2 * v^2 + 1/2 * r^2 w^2 - r^-1", names)
    assert parse_poly_text(to_text(p, names), names) == p


def test_text_formatting():
    p = LaurentPoly(2, {(2, 0): Fraction(3, 2), (0, 0): CRational(0, 1), (-1, 0): -1})
    assert to_text(p) == "3/2 * x1^2 + i - x1^-1"
    assert to_text(LaurentPoly.zero(1)) == "0"


def test_parse_rejects_unknown_and_decimal():
    with pytest.raises(ValueError):
        parse_poly_text("x9", ["x1"])
    with pytest.raises(ValueError):
        parse_poly_text("0.5 * x1", ["x1"])
    with pytest.raises(ValueError):
        parse_poly_text("", ["x1"])


def test_parse_merges_repeated_terms():
    assert parse_poly_text("x1 + x1", ["x1"]) == LaurentPoly(1, {(1,): 2})


def test_negative_exponent_not_split():
    # the '-' inside x1^-1 must not start a new term
    p = parse_poly_text("x1^-1 + x1", ["x1"])
    assert p.coeff([-1]) == CRational(1) and p.coeff([1]) == CRational(1)


# -- lattice enumeration -----------------------------------------------------------


def test_lattice_points_matches_brute_force():
    rng = random.Random(2024)
    for _ in range(80):
        n = rng.randint(0, 4)
        pos, neg, l1 = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 6)
        exact = [rand_coeff(rng) for _ in range(n)]
        floats = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        # product over an ascending range is already in lexicographic order
        want = [k for k in itertools.product(range(-neg, pos + 1), repeat=n)
                if sum(t for t in k if t > 0) <= pos
                and sum(-t for t in k if t < 0) <= neg
                and sum(abs(t) for t in k) <= l1]
        got = list(lattice_points(n, pos, neg, l1, (exact, floats)))
        assert [k for k, _ in got] == want, (n, pos, neg, l1)
        for k, (s_exact, s_float) in got:
            assert s_exact == sum((c * t for c, t in zip(exact, k)), CRational(0))
            assert s_float == sum(v * t for v, t in zip(floats, k))  # same float operations
        assert all(values == () for _, values in lattice_points(n, pos, neg, l1))
