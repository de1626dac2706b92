"""Exact polynomial substrate: ring laws, calculus, evaluation, text format, lattices."""

import copy
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import evaluate_exact
from sdefi import algebra, ito, mc, perturb, resonance, search, spectral, systems
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
    lattice_blocks,
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
    x = LaurentPoly.variable(1, 0)
    for bad in (lambda: LaurentPoly(1, {(1,): 0.5}), lambda: x.scale(0.5), lambda: x + 0.5,
                lambda: x * 0.5):
        with pytest.raises(TypeError):
            bad()


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


def test_scale_equals_product_with_constant():
    # the same terms, in the same order, over the same denominator as the product
    # with a one-term constant
    rng = random.Random(32)
    for _ in range(40):
        dim = rng.randint(1, 3)
        p = rand_poly(rng, dim)
        for c in (rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                  CRational(Fraction(rng.randint(-5, 5), rng.randint(1, 6)),
                            Fraction(rng.choice([-3, -1, 2, 7]), rng.randint(1, 6))), 0):
            want = p * LaurentPoly.const(dim, c)
            got = p.scale(c)
            assert (got.dim, list(got._num.items()), got._den) == \
                (want.dim, list(want._num.items()), want._den)
            assert to_text(got) == to_text(want)


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
    exact = evaluate_exact(p, [Fraction(2, 3)])
    assert exact == CRational(Fraction(3, 2) * Fraction(4, 9) - Fraction(3, 2) + 2)
    assert abs(p.evaluate([2 / 3]) - complex(exact)) < 1e-12


def test_evaluate_exact_shares_powers_at_one_point():
    names = ["x1", "x2"]
    polys = [parse_poly_text(t, names) for t in
             ("x1^2 x2^-1 - 3 x1", "x1^2 + x2^-1 + 1/2", "x2^3 x1^-2", "7")]
    point = [Fraction(-2, 3), CRational(Fraction(1, 5), Fraction(2))]
    powers = {}
    assert [evaluate_exact(p, point, powers) for p in polys] == \
        [evaluate_exact(p, point) for p in polys]
    assert set(powers) == {(0, 1), (0, 2), (0, -2), (1, -1), (1, 3)}
    assert powers[0, -2] == CRational(Fraction(9, 4))


def test_pole_raises():
    p = parse_poly_text("x1^-1", ["x1"])
    with pytest.raises(PoleError):
        p.evaluate([0.0])
    with pytest.raises(PoleError):
        evaluate_exact(p, [0])


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


@pytest.mark.parametrize("text, token", [("1/0 * x1", "1/0"), ("(1/0+1i) x1", "(1/0+1i)"),
                                         ("(1+1/0i) x1", "(1+1/0i)"), ("1/0i * x1", "1/0i"),
                                         ("x1^2 + 1/0", "1/0")])
def test_parse_zero_denominator_names_the_token(text, token):
    with pytest.raises(ValueError, match=re.escape(f"zero denominator in coefficient {token!r}")):
        parse_poly_text(text, ["x1"])


def test_parse_rejects_the_imaginary_unit_as_a_variable():
    # otherwise "i" would read as the constant 1i, not as the variable
    with pytest.raises(ValueError, match="imaginary unit"):
        parse_poly_text("i", ["i"])


def test_to_text_rejects_the_imaginary_unit_as_a_variable():
    with pytest.raises(ValueError, match="imaginary unit"):
        to_text(LaurentPoly(1, {(1,): 1}), ["i"])


@pytest.mark.parametrize("text, token", [("0.5 * x1", "0.5"), ("1e3 x1", "1e3"),
                                         ("x1 - 1.5e-3", "1.5e-3"), (".5i x1", ".5i"),
                                         ("(0.5+1i) x1", "(0.5+1i)")])
def test_parse_names_a_decimal_as_an_inexact_coefficient(text, token):
    with pytest.raises(ValueError, match=re.escape(f"coefficient {token!r} is not an exact "
                                                   f"rational (write 1/2, not 0.5)")):
        parse_poly_text(text, ["x1"])
    # a misplaced exact coefficient and an unclosed complex one are still unknown factors
    for text, token in (("x1 2", "2"), ("x1 i", "i"), ("(1/2 x1", "(1/2")):
        with pytest.raises(ValueError, match=re.escape(f"unknown factor {token!r}")):
            parse_poly_text(text, ["x1"])


@pytest.mark.parametrize("text, want", [
    ("x1+x2", "x1 + x2"), ("x1^-1-x1", "-x1 + x1^-1"), ("(1/2 + 1i) x1", "(1/2+1i) * x1"),
    ("( -1/3-2i )*x2", "(-1/3-2i) * x2"), ("2x1 x2^2", "2 * x1 x2^2"), ("- -i x1", "i * x1"),
    ("0", "0"), ("(1+i) x1", "(1+1i) * x1"), ("(1-i) x1", "(1-1i) * x1"),
    ("( -1/2 + i )x2", "(-1/2+1i) * x2")])
def test_parse_needs_no_spaces_around_signs(text, want):
    assert to_text(parse_poly_text(text, ["x1", "x2"])) == want


def test_respaced_text_round_trip_random():
    # to_text spaces every top-level sign and `*` and no complex coefficient; the
    # reader takes the opposite spacing just as well
    rng = random.Random(2025)
    for _ in range(300):
        dim = rng.randint(1, 4)
        p = rand_poly(rng, dim)
        names = tuple(f"x{i+1}" for i in range(dim))
        text = to_text(p, names).replace(" + ", "+").replace(" - ", "-").replace(" * ", "*")
        text = re.sub(r"\(([^()+-]+|[+-][^()+-]+)([+-])([^()]+)\)", r"( \1 \2 \3 )", text)
        assert parse_poly_text(text, names) == p, text


@pytest.mark.parametrize("text, message", [
    ("٣ x1", "unknown factor '٣'"), ("３ x1", "unknown factor '３'"),
    ("x1^٣", "unknown factor '^٣'"), ("x1 +", "sign with no term after it"),
    ("x1 -", "sign with no term after it"), ("-", "sign with no term after it"),
    ("+", "sign with no term after it")])
def test_parse_rejects_non_ascii_digits_and_dangling_signs(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_poly_text(text, ["x1"])


@pytest.mark.parametrize("text, exponent", [
    ("x1^0.5", "0.5"), ("x1^1/2", "1/2"), ("x1^-0.5", "-0.5"), ("2 x1^.5 + 1", ".5"),
    ("x1^2.", "2.")])
def test_parse_names_a_non_integer_exponent(text, exponent):
    with pytest.raises(ValueError, match=re.escape(f"exponent {exponent!r} in 'x1^{exponent}' "
                                                   f"is not an integer")):
        parse_poly_text(text, ["x1"])


@pytest.mark.parametrize("names, message", [
    (["x1", "x1"], "must be distinct"), (["α"], "'α' is not an ASCII identifier"),
    (["x-1"], "'x-1' is not an ASCII identifier"), ([1], "1 is not an ASCII identifier"),
    (["i"], "imaginary unit")])
def test_one_variable_name_rule_for_parse_and_print(names, message):
    # the names the text form can print are exactly the names it can read back
    p = LaurentPoly.zero(len(names))
    for call in (lambda: parse_poly_text("0", names), lambda: to_text(p, names)):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_parse_merges_repeated_terms():
    assert parse_poly_text("x1 + x1", ["x1"]) == LaurentPoly(1, {(1,): 2})


def test_negative_exponent_not_split():
    # the '-' inside x1^-1 must not start a new term
    p = parse_poly_text("x1^-1 + x1", ["x1"])
    assert p.coeff([-1]) == CRational(1) and p.coeff([1]) == CRational(1)


# -- the integer-numerator core against a Fraction-pair oracle ---------------------
#
# The oracle keeps a polynomial as a dict exponent -> (re, im) of Fractions and
# implements each operation by its definition; zero coefficients are dropped.


def _ref(p):
    return {e: (c.re, c.im) for e, c in p.terms()}


def _ref_prune(d):
    return {e: c for e, c in d.items() if c[0] or c[1]}


def _ref_add(p, q):
    out = dict(p)
    for e, (a, b) in q.items():
        a0, b0 = out.get(e, (0, 0))
        out[e] = (a0 + a, b0 + b)
    return _ref_prune(out)


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            a0, b0 = out.get(e, (0, 0))
            a, b = _cmul(c1, c2)
            out[e] = (a0 + a, b0 + b)
    return _ref_prune(out)


def _ref_diff(p, axis):
    out = {}
    for e, (a, b) in p.items():
        if e[axis]:
            e2 = list(e)
            e2[axis] -= 1
            out[tuple(e2)] = (a * e[axis], b * e[axis])
    return out


def _cinv(x):
    d = x[0] * x[0] + x[1] * x[1]
    return (x[0] / d, -x[1] / d)


def _ref_eval(p, point):
    total = (Fraction(0), Fraction(0))
    for e, c in p.items():
        for x, k in zip(point, e):
            for _ in range(abs(k)):
                c = _cmul(c, x) if k > 0 else _cmul(c, _cinv(x))
        total = (total[0] + c[0], total[1] + c[1])
    return total


def _big_fraction(rng):
    den = rng.choice([1, 2, 3, 6, rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 30)])
    return Fraction(rng.randint(-10 ** rng.randint(0, 30), 10 ** rng.randint(0, 30)), den)


def _rand_ref(rng, dim, max_terms=6):
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(-1, 2) for _ in range(dim))  # small box: products collide
        out[e] = (_big_fraction(rng), _big_fraction(rng) if rng.random() < 0.5 else Fraction(0))
    return _ref_prune(out)


def _poly_of(dim, ref):
    return LaurentPoly(dim, {e: CRational(a, b) for e, (a, b) in ref.items()})


def test_integer_core_matches_fraction_oracle():
    rng = random.Random(1337)
    for _ in range(150):
        dim = rng.randint(1, 3)
        ra, rb = _rand_ref(rng, dim), _rand_ref(rng, dim)
        if rng.random() < 0.5:
            # share terms with the opposite sign, so that sums cancel
            rb.update({e: (-c[0], -c[1]) for e, c in ra.items() if rng.random() < 0.6})
        a, b = _poly_of(dim, ra), _poly_of(dim, rb)
        c = CRational(_big_fraction(rng), _big_fraction(rng))
        neg_rb = {e: (-x, -y) for e, (x, y) in rb.items()}
        assert _ref(a + b) == _ref_add(ra, rb)
        assert _ref(a - b) == _ref_add(ra, neg_rb)
        assert _ref(-b) == neg_rb
        assert _ref(a * b) == _ref_mul(ra, rb)
        assert _ref(a.scale(c)) == _ref_prune({e: _cmul(x, (c.re, c.im)) for e, x in ra.items()})
        assert _ref(a ** 2) == _ref_mul(ra, ra)
        for axis in range(dim):
            assert _ref(a.differentiate(axis)) == _ref_diff(ra, axis)
        point = [(_big_fraction(rng) or Fraction(1), Fraction(rng.randint(-3, 3), 7))
                 for _ in range(dim)]
        value = evaluate_exact(a, [CRational(x, y) for x, y in point])
        assert (value.re, value.im) == _ref_eval(ra, point)


def _crational_pair(z):
    assert z._den > 0 and math.gcd(z._re, z._im, z._den) == 1, (z._re, z._im, z._den)
    return z.re, z.im


def _ref_str(x):
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


def _ref_pow(x, k):
    out, base = (Fraction(1), Fraction(0)), x if k >= 0 else _cinv(x)
    for _ in range(abs(k)):
        out = _cmul(out, base)
    return out


def test_crational_matches_fraction_pair_oracle():
    rng = random.Random(90210)
    for case in range(200):
        x = (_big_fraction(rng), _big_fraction(rng) if rng.random() < 0.6 else Fraction(0))
        mode = case % 5
        if mode == 0:
            y = (_big_fraction(rng), _big_fraction(rng) if rng.random() < 0.6 else Fraction(0))
        elif mode == 1:  # x + y == 0
            y = (-x[0], -x[1])
        elif mode == 2:  # x + y is a Gaussian integer: denominator 1
            y = (rng.randint(-9, 9) - x[0], rng.randint(-9, 9) - x[1])
        elif mode == 3 and (x[0] or x[1]):  # x * y is an integer
            y = tuple(rng.randint(1, 9) * c for c in _cinv(x))
        else:  # x - y == 0 and x / y == 1
            y = x
        a, b = CRational(*x), CRational(*y)
        assert _crational_pair(a) == x and _crational_pair(b) == y
        assert _crational_pair(a + b) == (x[0] + y[0], x[1] + y[1])
        assert _crational_pair(a - b) == (x[0] - y[0], x[1] - y[1])
        assert _crational_pair(a * b) == _cmul(x, y)
        assert _crational_pair(-a) == (-x[0], -x[1])
        assert _crational_pair(a.conjugate()) == (x[0], -x[1])
        if y[0] or y[1]:
            assert _crational_pair(a / b) == _cmul(x, _cinv(y))
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        for k in (0, 1, 2, 3) + ((-1, -2) if x[0] or x[1] else ()):
            assert _crational_pair(a ** k) == _ref_pow(x, k)
        assert (a == b) == (x == y) and (a == x[0]) == (not x[1])
        assert hash(a) == (hash(x[0]) if not x[1] else hash(x))
        got, want = complex(a), complex(float(x[0]), float(x[1]))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
        assert str(a) == _ref_str(x) and repr(a) == f"CRational({str(x[0])!r}, {str(x[1])!r})"


def test_crational_canonical_form():
    z = CRational(Fraction(2, 4), Fraction(1, 2))
    assert (z._re, z._im, z._den) == (1, 1, 2)
    for zero in (CRational(0), CRational(Fraction(0, 7), "0/3"), z - z, z * 0, 0 * z):
        assert (zero._re, zero._im, zero._den) == (0, 0, 1)
    for w in (z * z, z / CRational(0, 2), z ** -3, CRational("-6/4", "10/8"), z + Fraction(1, 6),
              CRational(2, 2) * Fraction(1, 2), CRational(True)):
        assert w._den > 0 and math.gcd(w._re, w._im, w._den) == 1
        assert type(w._re) is int and type(w._im) is int and type(w._den) is int
        assert type(w.re) is Fraction and type(w.im) is Fraction
    assert CRational(2, 2) * Fraction(1, 2) == CRational(1, 1)
    assert (CRational(2, 2) * Fraction(1, 2))._den == 1
    for name in ("re", "im", "_re", "_im", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 3)
    assert (z._re, z._im, z._den) == (1, 1, 2)


def test_canonical_form():
    x = LaurentPoly.variable(1, 0)
    half = x.scale(Fraction(1, 2))
    assert half._den == 2 and half._num == {(1,): (1, 0)}
    twice = half.scale(2)
    assert twice._den == 1 and twice == x and hash(twice) == hash(x)
    assert (half * LaurentPoly.const(1, 2))._den == 1
    assert (half - half)._den == 1 and (half - half).is_zero
    # the same value reached two ways: equal, equal hashes, lowest terms
    p = LaurentPoly(2, {(1, 0): Fraction(2, 6), (0, -1): CRational(Fraction(4, 10), Fraction(6, 4))})
    q = (p.scale(Fraction(10 ** 20, 3)) + p).scale(Fraction(3, 10 ** 20 + 3))
    assert q == p and hash(q) == hash(p)
    assert q._den == 30 and q._num == {(1, 0): (10, 0), (0, -1): (12, 45)}
    for e, c in q.terms():
        assert type(c) is CRational and type(c.re) is Fraction and type(c.im) is Fraction
    assert type(q.coeff((1, 0))) is CRational and q.coeff((5, 5)) == 0
    assert LaurentPoly.zero(3)._den == 1 and LaurentPoly(1, {(2,): 0})._num == {}


def test_evaluate_rounds_each_coefficient_like_complex():
    rng = random.Random(4242)
    for _ in range(200):
        dim = rng.randint(1, 3)
        e = tuple(rng.randint(-2, 3) for _ in range(dim))
        c = CRational(_big_fraction(rng), _big_fraction(rng))
        point = [complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)) for _ in range(dim)]
        want = complex(c)
        for x, k in zip(point, e):
            if k:
                want *= x ** k
        got = LaurentPoly.monomial(dim, e, c).evaluate(point)
        assert (got.real.hex(), got.imag.hex()) == ((0j + want).real.hex(), (0j + want).imag.hex())


def test_equal_values_hash_equal():
    half = Fraction(1, 2)
    values = [3, Fraction(3), CRational(3), LaurentPoly.const(1, 3), LaurentPoly.const(2, 3),
              0, CRational(0), LaurentPoly.zero(2), half, CRational(half), LaurentPoly.const(1, half),
              CRational(1, 2), LaurentPoly.const(1, CRational(1, 2)), LaurentPoly.variable(2, 0)]
    for a, b in itertools.product(values, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)
    assert 3 in {CRational(3)} and CRational(3) in {3}
    assert 3 in {LaurentPoly.const(1, 3)} and half in {LaurentPoly.const(2, half)}


# -- lattice enumeration -----------------------------------------------------------


def test_lattice_blocks_matches_brute_force(monkeypatch):
    rng = random.Random(2024)
    for _ in range(80):
        n = rng.randint(0, 4)
        pos, neg, l1 = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 6)
        # product over an ascending range is already in lexicographic order
        want = [k for k in itertools.product(range(-neg, pos + 1), repeat=n)
                if sum(t for t in k if t > 0) <= pos
                and sum(-t for t in k if t < 0) <= neg
                and sum(abs(t) for t in k) <= l1]
        # small blocks split every level of the expansion; order and content must not change
        for block in (1, 3, 7, 1 << 16):
            monkeypatch.setattr(algebra, "_BLOCK", block)
            blocks = list(lattice_blocks(n, pos, neg, l1))
            assert [tuple(k) for b in blocks for k in b.tolist()] == want, (n, pos, neg, l1, block)
            for b in blocks:
                assert b.dtype == np.int64 and b.shape[1] == n
                assert 0 < len(b) <= max(block, 2 * l1 + 1)  # one prefix's children stay together


# -- records --------------------------------------------------------------------

def _x():
    return LaurentPoly.variable(1, 0)


# every record type, its fields' values where construction validates them (others
# get distinct tuples), and the defaults it must fill in
_RECORDS = [
    (VField, {"components": lambda: (_x(),)}, {}),
    (ito.SdeSystem, {"drift": lambda: VField((_x(),)), "diffusions": tuple,
                     "var_names": lambda: ("x1",)}, {}),
    (ito.IntegralVerdict, {}, {}),
    (mc.SimConfig, {"x0": lambda: (1.0,), "h": lambda: 0.01, "T": lambda: 1.0,
                    "N": lambda: 4, "seed": lambda: 3},
     {"R": 1e6, "center": "origin", "max_workers": 1}),
    (mc.SimEnsemble, {}, {}),
    (mc.ConservationReport, {}, {}),
    (perturb.PerturbationPlan, {}, {}),
    (perturb.PerturbVerdict, {}, {}),
    (resonance.ResonanceScan, {}, {}),
    (resonance.WeakResonanceResult, {}, {}),
    (resonance.EpistemicStatus, {}, {"K": None, "tol": None}),
    (resonance.ScanResult, {}, {}),
    (resonance.Verdict, {}, {"count_bound": None}),
    (resonance.ResonanceReport, {"hypotheses": dict},
     {"scans": [], "s_min": None, "s_min_certified": False, "weak": None, "verdicts": []}),
    (search.MonomialBasis, {}, {}),
    (search.OperatorMatrix, {}, {}),
    (search.IntegralBasis, {}, {}),
    (search.CountBoundVerdict, {}, {}),
    (spectral.Eigenvalues, {}, {}),
    (spectral.H1Status, {}, {"witness": None}),
    (spectral.SpectralData, {}, {}),
]
_MUTABLE = (mc.SimEnsemble, resonance.ResonanceReport)


def _record_args(cls, given):
    """Fresh values for the fields without a default, in field order."""
    return {name: given[name]() if name in given else (name, 1)
            for name in cls.__annotations__ if not hasattr(cls, name)}


@pytest.mark.parametrize("cls, given, defaults", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_record_guarantees(cls, given, defaults):
    args = _record_args(cls, given)
    rec = cls(**args)
    fields = list(cls.__annotations__)
    values = {**args, **defaults}
    # the defaults apply, and the positional form builds the same record
    assert set(fields) - set(args) == set(defaults)
    assert {name: getattr(rec, name) for name in fields} == values
    assert rec == cls(*[values[name] for name in fields])
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{n}={values[n]!r}' for n in fields)})"
    # equal fields, equal records; a record of another type with the same fields is not
    twin = cls(**_record_args(cls, given))
    assert rec == twin and not rec != twin
    other = type(cls.__name__, (algebra.Record,), {"__annotations__": dict(cls.__annotations__),
                                                   **defaults})(**args)
    assert rec != other and other != rec
    assert rec != tuple(values.values())
    name = fields[0]
    if cls in _MUTABLE:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, name, "changed")
        assert getattr(rec, name) == "changed" and rec != twin
    else:
        assert hash(rec) == hash(twin)
        for attempt in (lambda: setattr(rec, name, "changed"), lambda: delattr(rec, name),
                        lambda: setattr(rec, "extra", 1)):
            with pytest.raises(AttributeError):
                attempt()
        assert getattr(rec, name) == values[name]
    # each record gets its own default lists
    for name, value in defaults.items():
        if isinstance(value, list):
            assert getattr(rec, name) is not getattr(twin, name)


# -- pickle and copy --------------------------------------------------------------

def _round_trips(x):
    return [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]


@pytest.mark.parametrize("value", [
    CRational(0), CRational(-7), CRational(Fraction(-3, 4)), CRational(Fraction(5, 6), -2),
    CRational(0, Fraction(-1, 9)), LaurentPoly.zero(2),
    parse_poly_text("(1/2 - 3i) x1^-2 x2 - 5 + x2^3", ("x1", "x2"))], ids=str)
def test_scalars_and_polynomials_survive_pickle_and_copy(value):
    for back in _round_trips(value):
        assert back == value and type(back) is type(value)


@pytest.mark.parametrize("name", sorted(systems.REGISTRY))
def test_builtin_survives_pickle_and_copy(name):
    sysm = systems.REGISTRY[name]()
    for back in _round_trips(sysm):
        assert back == sysm and hash(back) == hash(sysm)


def test_integral_basis_survives_pickle_and_copy():
    found = search.find_first_integrals(systems.cyclic_exchange(), "strong", -1, 3)
    assert len(found) > 0
    for back in _round_trips(found):
        assert back == found and back.basis == found.basis


def test_zero_free_results_skip_the_zero_filter(monkeypatch):
    # -p, p.scale(c != 0) and p.differentiate(axis) cannot hold a zero pair, so none
    # goes through _reduced; each still lands in the canonical form
    rng = random.Random(3831)
    filtered = []
    reduced = algebra._reduced
    monkeypatch.setattr(algebra, "_reduced", lambda *a: filtered.append(1) or reduced(*a))
    for _ in range(60):
        dim = rng.randint(1, 3)
        p = _poly_of(dim, _rand_ref(rng, dim))
        c = CRational(_big_fraction(rng), _big_fraction(rng) if rng.random() < 0.5 else 0)
        results = [-p, p.scale(c), p.scale(0)] + [p.differentiate(i) for i in range(dim)]
        for q in results:
            assert q == LaurentPoly(dim, dict(q.terms()))  # canonical: equality is structural
            assert (q._den == 1) if q.is_zero else math.gcd(q._den, *itertools.chain(
                *q._num.values())) == 1
        assert -(-p) == p and p.scale(0).is_zero
    assert filtered == []


def test_variable_names_are_checked_once_per_tuple(monkeypatch):
    checked = []
    check = algebra.check_var_names
    monkeypatch.setattr(algebra, "check_var_names", lambda names: checked.append(names)
                        or check(names))
    monkeypatch.setattr(algebra, "_VALID_NAMES", set())
    names = ("u", "v")
    p = algebra.parse_poly_text("u^2 - 3/2 * v", list(names))
    assert algebra.to_text(p, names) == "u^2 - 3/2 * v"
    assert algebra.parse_poly_text("v", names) == LaurentPoly.variable(2, 1)
    assert checked == [names]
    for bad, message in ((("u", "i"), "'i' is the imaginary unit"),
                         (("u", "u"), "must be distinct"), (("u", ["v"]), "not an ASCII")):
        for _ in range(2):  # refused each time, with the same message
            with pytest.raises(ValueError, match=re.escape(message)):
                algebra.parse_poly_text("u", bad)
