"""Integrability-destroying scalar noise a X dW: the certified rung, the refusals,
verification, and the paper's linear noise as a reference."""

import itertools
import random
from fractions import Fraction

import numpy as np
import oracles
import pytest

from sdefi import systems
from sdefi.algebra import CRational, LaurentPoly, VField, parse_poly_text
from sdefi.ito import SdeSystem
from sdefi.perturb import PerturbationPlan, build_perturbation, verify_perturbation
from sdefi.resonance import resonance_values
from sdefi.search import find_first_integrals
from sdefi.spectral import NotApplicableError

ACCEPTED = ("gbm", "gbm_twin_noise", "harmonic_oscillator", "lotka_volterra")


def _drift(*texts, names=None):
    names = names or tuple(f"x{i+1}" for i in range(len(texts)))
    return VField(tuple(parse_poly_text(t, names) for t in texts))


def _at(plan, a):
    """The same plan with another a, certified or not."""
    return PerturbationPlan(Fraction(a), plan.dim, plan.det_Df, plan.certificate)


def test_recurrence_exponents():
    # the reference plan's exponents
    assert oracles.paper_exponents(1) == (1,)
    assert oracles.paper_exponents(2) == (1, 2)
    assert oracles.paper_exponents(3) == (1, 2, 6)
    assert oracles.paper_exponents(4) == (1, 2, 6, 18)
    exps = oracles.paper_exponents(8)
    assert exps[0] == 1 and exps[1] == 2
    for k in range(2, len(exps)):
        assert exps[k] == 3 * exps[k - 1]
    # pairwise sums a_i + a_j are all distinct (the point of the recurrence)
    sums = [exps[i] + exps[j] for i in range(8) for j in range(i, 8)]
    assert len(sums) == len(set(sums))


def test_rejects_singular_jacobian():
    with pytest.raises(NotApplicableError, match="singular"):
        build_perturbation(_drift("x2", "0"))


def test_rejects_nonvanishing_drift():
    with pytest.raises(NotApplicableError, match="vanish"):
        build_perturbation(_drift("1 + x1"))


def test_harmonic_end_to_end():
    drift = systems.harmonic_oscillator().drift
    plan = build_perturbation(drift)
    # eigenvalues +-i: sigma = 0, so the first rung is certified, and P = I is real
    assert (plan.a, plan.dim, plan.certificate) == (1, 2, "Routh-Hurwitz")
    assert plan.det_Df == CRational(1)
    verdict = verify_perturbation(drift, plan, D=4)
    assert verdict.passed
    assert verdict.found == ()
    assert (verdict.dmin, verdict.dmax) == (1, 4)


@pytest.mark.parametrize("name", ACCEPTED)
def test_both_plans_leave_no_weak_integral(name):
    drift = systems.REGISTRY[name]().drift
    plan = build_perturbation(drift)
    assert plan.a == 1 and plan.certificate == "Routh-Hurwitz"
    _, p = oracles.paper_perturbation(drift)
    names = systems.REGISTRY[name]().var_names
    for noise in (plan.noise_field(), oracles.linear_field(p)):
        sys = SdeSystem(drift, (noise,), names)
        assert len(find_first_integrals(sys, "weak", 1, 4)) == 0, (name, noise)


def test_perturbation_spectrum_matches_powers_of_u():
    # the reference plan on harmonic_oscillator: P has the spectrum u, u^2, and it
    # is complex (Hermitian), since the eigenvectors of Df(0) are
    exps, p = oracles.paper_perturbation(systems.harmonic_oscillator().drift)
    u = Fraction(37, 100)
    half_sum = CRational((u + u * u) / 2)
    half_diff = CRational(0, (u - u * u) / 2)
    assert exps == (1, 2)
    assert p == [[half_sum, half_diff], [-half_diff, half_sum]]
    got = sorted(np.linalg.eigvals([[complex(x) for x in row] for row in p]), key=lambda z: z.real)
    assert np.allclose(got, [float(u) ** 2, float(u)], atol=1e-9)


def test_saddle_needs_the_second_rung():
    # x1 + x1^2 x2, -x2: eigenvalues 1, -1, so sigma = 1 and a = 1 is refused
    # (a^2 = 2 sigma is not enough); x2^3 is then a weak integral, and a = 3/2 kills it
    drift = _drift("x1 + x1^2 x2", "-1 * x2")
    plan = build_perturbation(drift)
    assert (plan.a, plan.certificate, plan.det_Df) == (Fraction(3, 2), "Routh-Hurwitz",
                                                      CRational(-1))
    x2_cubed = parse_poly_text("x2^3", ("x1", "x2"))
    assert verify_perturbation(drift, _at(plan, 1), D=10).found == (x2_cubed,)
    assert verify_perturbation(drift, plan, D=10).passed


def test_jordan_block_is_accepted():
    # Df(0) = [[1, 1], [0, 1]] is not diagonalizable; the certificate needs no eigenbasis
    drift = _drift("x1 + x2", "x2")
    plan = build_perturbation(drift)
    assert (plan.a, plan.certificate) == (1, "Routh-Hurwitz")
    assert verify_perturbation(drift, plan).passed


def test_near_repeated_eigenvalues_are_distinct():
    # Jacobian [[1, 1], [0, 1 + 10^-13]]: no float tolerance decides anything
    d = _drift("x1 + x2", "10000000000001/10000000000000 * x2")
    plan = build_perturbation(d)
    assert plan.a == 1
    assert verify_perturbation(d, plan).passed


@pytest.mark.parametrize("texts, a", [
    (("x2", "-1 * x1 - x2"), Fraction(3, 2)),  # Re lam = -1/2: a = 1 sits on the boundary
    (("x2", "2 * x1"), 2),                     # lam = +-sqrt(2): a^2 > 2 sqrt(2) at a = 2
    (("-1 * x1 + x2 + x2 x3", "-1 * x1 - x2", "-2 * x3 + x1^2"), Fraction(5, 2)),  # sigma = 2
])
def test_strict_test_takes_the_first_rung_above_two_sigma(texts, a):
    drift = _drift(*texts)
    plan = build_perturbation(drift)
    assert (plan.a, plan.certificate) == (a, "Routh-Hurwitz")
    assert verify_perturbation(drift, plan, D=3).passed


def test_complex_coefficient_uses_the_norm_test():
    # Df(0) = diag(i, -2i): sigma = 0, but Routh-Hurwitz needs a real chi; the
    # row-sum norm is 2, so a^2 > 4 first holds at a = 5/2
    drift = _drift("1i * x1 + x2^2", "-2i * x2")
    plan = build_perturbation(drift)
    assert (plan.a, plan.certificate, plan.det_Df) == (Fraction(5, 2), "row-sum norm",
                                                      CRational(2))
    assert verify_perturbation(drift, plan, D=3).passed


def test_rung_matches_the_float_spectrum():
    # on random real integer Jacobians, a is the first rung with a^2 > 2 sigma, sigma
    # from numpy's eigenvalues; draws within 1e-6 of a rung boundary are skipped
    rng = random.Random(37)
    rungs = [Fraction(k, 2) for k in range(2, 40)]
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        eig = np.linalg.eigvals(np.array(m, dtype=float))
        if abs(np.prod(eig)) < 1e-6:
            continue
        sigma = max(0.0, *(-eig.real))
        if any(abs(float(a * a) / 2 - sigma) < 1e-6 for a in rungs):
            continue
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        drift = VField(tuple(LaurentPoly(n, zip(units, row)) for row in m))
        plan = build_perturbation(drift)
        assert plan.a == next(a for a in rungs if float(a * a) > 2 * sigma), m
        checked += 1
    assert checked > 100


def test_obstruction_values_match_double_sum():
    # the paper's obstruction E(l) = 2 <lam, l> + sum_i l_i (l_i - 1) mu_i^2
    # + sum_{i != j} l_i l_j mu_i mu_j is 2 q(l) for the corrected spectrum
    # lam_j - mu_j^2 / 2 and the noise spectrum mu
    rng = random.Random(17)
    cases = [([CRational(-1)], [Fraction(1, 2)], 9)]  # E((9,)) = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        lam = [CRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                         Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(n)]
        u = Fraction(rng.randint(1, 9), 10)
        cases.append((lam, [u ** a for a in oracles.paper_exponents(n)], rng.randint(1, 5)))
    zeros = 0
    for lam, mu, L in cases:
        n = len(lam)
        scan = resonance_values([e - m * m / 2 for e, m in zip(lam, mu)], [mu], L)
        assert scan.exact
        got = list(scan.points())
        assert [l for l, _ in got] == [l for l in itertools.product(range(L + 1), repeat=n)
                                       if 0 < sum(l) <= L]
        for l, q in got:
            e = sum((lam[i] * (2 * l[i]) for i in range(n)), CRational(0))
            e += sum(l[i] * (l[i] - 1) * mu[i] ** 2 for i in range(n))
            e += sum(l[i] * l[j] * mu[i] * mu[j] for i in range(n) for j in range(n) if i != j)
            assert isinstance(q, CRational)
            assert 2 * q == e
            zeros += e.is_zero()
    assert zeros >= 1


def test_noise_field_matches_exact_matrix():
    plan = build_perturbation(_drift("x2", "-1 * x1 - x2"))
    field = plan.noise_field()
    for i in range(2):
        for j in range(2):
            e = tuple(1 if k == j else 0 for k in range(2))
            assert field[i].coeff(e) == (Fraction(3, 2) if i == j else 0)
        assert len(field[i].terms()) == 1


def test_plan_dict_shape():
    d = build_perturbation(_drift("x1", "-2 * x2")).to_dict()
    assert d == {
        "a": "5/2", "det_Df": "-2", "theorem": "lowest-form injectivity",
        "hypotheses": ["f(0) = 0", "det Df(0) != 0",
                       "a^2 > 2 sigma, sigma = max_j (-Re lam_j)^+"],
        "certificate": "Routh-Hurwitz",
        "claim": "no formal weak integral, hence no analytic weak or strong integral, "
                 "at every degree"}
