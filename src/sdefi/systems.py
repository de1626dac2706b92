"""Ready-made example systems used by the test-suite, docs and CLI demos.

Each field is written as polynomial text (`parse_poly_text`) scaled by its
exact parameters; `lotka_volterra`, whose terms are indexed by a parameter
matrix, is built by `LaurentPoly` arithmetic on the variables instead.
All coefficients are exact rationals.  Builders accept ints, Fractions or
strings like "1/2" for their parameters.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LaurentPoly, VField, parse_poly_text
from .ito import SdeSystem


def _field(names, *texts: str) -> VField:
    """The vector field whose components are the polynomial texts, in order."""
    return VField(tuple(parse_poly_text(t, names) for t in texts))


def gbm(a=1, sigma=1) -> SdeSystem:
    """Geometric Brownian motion dX = a X dt + sigma X dB."""
    names = ("x1",)
    x = _field(names, "x1")
    return SdeSystem(x.scale(Fraction(a)), (x.scale(Fraction(sigma)),), names)


def gbm_twin_noise(a=1) -> SdeSystem:
    """dX = a X dt + X dB^1 + X dB^2: effective squared volatility 2."""
    names = ("x1",)
    x = _field(names, "x1")
    return SdeSystem(x.scale(Fraction(a)), (x, x), names)


def scalar_martingale(sigma=2) -> SdeSystem:
    """Driftless dX = sigma X dB; X itself is conserved in expectation."""
    names = ("x1",)
    return SdeSystem(_field(names, "0"), (_field(names, "x1").scale(Fraction(sigma)),), names)


def harmonic_oscillator() -> SdeSystem:
    """Deterministic rotation (x2, -x1); conserves x1^2 + x2^2."""
    names = ("x1", "x2")
    return SdeSystem(_field(names, "x2", "-x1"), (), names)


_TWO_BODY = ("r", "phi", "v", "w")


def two_body(m=1, k=1, sigma_r=1, sigma_phi=1) -> SdeSystem:
    """Planar two-body motion in polar coordinates with multiplicative noise.

    State (r, phi, v, w) = (radius, angle, radial velocity, angular velocity):

        dr = v dt,   dphi = w dt,
        dv = (r w^2 - k/(m r^2)) dt + sigma_r r dB_r,
        dw = -(2 v w / r) dt + (sigma_phi / r) dB_phi.

    The angular momentum m r^2 w survives in expectation but not pathwise;
    the energy m(v^2 + r^2 w^2)/2 - k/r survives in neither sense.
    """
    names = _TWO_BODY
    drift = (_field(names, "v", "w", "r w^2", "-2 r^-1 v w")
             - _field(names, "0", "0", "r^-2", "0").scale(Fraction(k) / Fraction(m)))
    g_r = _field(names, "0", "0", "r", "0").scale(Fraction(sigma_r))
    g_phi = _field(names, "0", "0", "0", "r^-1").scale(Fraction(sigma_phi))
    return SdeSystem(drift, (g_r, g_phi), names)


def two_body_momentum(m=1) -> LaurentPoly:
    """m r^2 w."""
    return parse_poly_text("r^2 w", _TWO_BODY).scale(Fraction(m))


def two_body_energy(m=1, k=1) -> LaurentPoly:
    """m (v^2 + r^2 w^2)/2 - k/r."""
    kinetic = parse_poly_text("v^2 + r^2 w^2", _TWO_BODY).scale(Fraction(m) / 2)
    return kinetic - parse_poly_text("r^-1", _TWO_BODY).scale(Fraction(k))


def cyclic_exchange(a=2, b=3, conservative: bool = True) -> SdeSystem:
    """Three coupled species with one shared noise channel.

    With conservative=True the drift components sum to zero, so the total
    x1 + x2 + x3 is conserved pathwise (the noise components cancel too).
    With conservative=False the third drift carries +x2 x3 instead of
    -x1 x2, the published form whose component sum x1 x2 + x2 x3 breaks
    the conservation law.
    """
    names = ("x1", "x2", "x3")
    ax1 = parse_poly_text("x1", names).scale(Fraction(a))
    bx2 = parse_poly_text("x2", names).scale(Fraction(b))
    f1, f2, f3 = _field(names, "x2 x3", "x1 x2 - x2 x3",
                        "-x1 x2" if conservative else "x2 x3")
    g = _field(names, "x1 - 2 x2 + x1 x2 - x1 x3",
               "2 x2 - x3 + x2 x3 - x1 x2",
               "x3 - x1 + x1 x3 - x2 x3")
    return SdeSystem(VField((ax1 + f1, bx2 + f2, f3 - ax1 - bx2)), (g,), names)


def lotka_volterra(b=(1, 2), a=((-2, 1), (3, -5)),
                   sigma=((Fraction(1, 2), Fraction(-1, 3)),
                          (Fraction(1, 4), 1))) -> SdeSystem:
    """dx_i = x_i (b_i + sum_j a_ij x_j) dt + x_i (sum_j sigma_ij x_j) dB_i.

    The noise is quadratic near the origin, so the drift spectrum b alone
    decides analytic weak integrability.
    """
    n = len(b)
    names = tuple(f"x{i + 1}" for i in range(n))
    x = [LaurentPoly.variable(n, i) for i in range(n)]
    zero = LaurentPoly.zero(n)

    def linear(row) -> LaurentPoly:  # sum_j row_j x_j
        return sum((xj.scale(Fraction(c)) for c, xj in zip(row, x)), zero)

    drift = VField(tuple(xi * (linear(ai) + Fraction(bi)) for xi, ai, bi in zip(x, a, b)))
    noises = tuple(VField(tuple(x[i] * linear(sigma[i]) if k == i else zero for k in range(n)))
                   for i in range(n))
    return SdeSystem(drift, noises, names)


REGISTRY = {
    "gbm": gbm,
    "gbm_twin_noise": gbm_twin_noise,
    "scalar_martingale": scalar_martingale,
    "harmonic_oscillator": harmonic_oscillator,
    "two_body": two_body,
    "cyclic_exchange": cyclic_exchange,
    "cyclic_exchange_published": lambda: cyclic_exchange(conservative=False),
    "lotka_volterra": lotka_volterra,
}
