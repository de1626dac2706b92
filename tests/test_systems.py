"""The builtin builders at non-default parameters, against their docstring equations."""

from fractions import Fraction

from sdefi import systems
from sdefi.algebra import LaurentPoly, VField, parse_poly_text


def _field(names, *texts):
    return VField(tuple(parse_poly_text(t, names) for t in texts))


def test_two_body_at_non_default_parameters():
    sys = systems.two_body(m=2, k=3, sigma_r=5, sigma_phi="-1/7")
    names = ("r", "phi", "v", "w")
    assert sys.var_names == names
    # dv = (r w^2 - k/(m r^2)) dt + sigma_r r dB_r,  dw = -(2 v w / r) dt + (sigma_phi / r) dB_phi
    assert sys.drift == _field(names, "v", "w", "r w^2 - 3/2 r^-2", "-2 v w r^-1")
    assert sys.diffusions == (_field(names, "0", "0", "5 r", "0"),
                              _field(names, "0", "0", "0", "-1/7 r^-1"))
    assert systems.two_body_momentum(m=2) == parse_poly_text("2 r^2 w", names)
    assert systems.two_body_energy(m=2, k=3) == parse_poly_text("v^2 + r^2 w^2 - 3 r^-1", names)


def test_lotka_volterra_three_species():
    b = (1, -2, "1/2")
    a = ((0, 1, -3), ("2/3", -1, 0), (4, 0, Fraction(-5, 2)))
    sigma = ((1, 0, 0), (0, "1/4", -1), (2, 2, 0))
    sys = systems.lotka_volterra(b, a, sigma)
    names = ("x1", "x2", "x3")
    assert sys.var_names == names

    def text(i, const, row):  # x_i (const + sum_j row_j x_j), term by term
        terms = [f"{Fraction(const)} x{i + 1}"] if const is not None else []
        terms += [f"{Fraction(c)} x{i + 1} x{j + 1}" for j, c in enumerate(row)]
        return " + ".join(terms)

    assert sys.drift == _field(names, *(text(i, b[i], a[i]) for i in range(3)))
    assert sys.diffusions == tuple(
        _field(names, *(text(i, None, sigma[i]) if k == i else "0" for k in range(3)))
        for i in range(3))


def test_cyclic_exchange_published_form_at_non_default_rates():
    names = ("x1", "x2", "x3")
    sys = systems.cyclic_exchange(a=5, b="-1/3", conservative=False)
    assert sys.drift == _field(names, "5 x1 + x2 x3", "-1/3 x2 + x1 x2 - x2 x3",
                               "-5 x1 + 1/3 x2 + x2 x3")
    # conservative: the drift and noise components each sum to zero
    cons = systems.cyclic_exchange(a=5, b="-1/3")
    zero = LaurentPoly.zero(3)
    assert sum(cons.drift, zero) == zero
    assert sum(cons.diffusions[0], zero) == zero
    # the two forms differ in the third drift component only: -x1 x2 against +x2 x3
    assert (cons.drift[0], cons.drift[1]) == (sys.drift[0], sys.drift[1])
    assert sys.drift[2] - cons.drift[2] == parse_poly_text("x2 x3 + x1 x2", names)
