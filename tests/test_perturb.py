"""Integrability-destroying linear noise: exponents, obstruction scan, verification."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from sdefi import exactla, systems
from sdefi.algebra import CRational, VField, parse_poly_text
from sdefi.perturb import (
    PerturbationError,
    build_perturbation,
    recurrence_exponents,
    verify_perturbation,
)
from sdefi.resonance import resonance_values


def _drift(*texts, names=None):
    names = names or tuple(f"x{i+1}" for i in range(len(texts)))
    return VField(tuple(parse_poly_text(t, names) for t in texts))


def test_recurrence_exponents():
    assert recurrence_exponents(1) == (1,)
    assert recurrence_exponents(2) == (1, 2)
    assert recurrence_exponents(3) == (1, 2, 6)
    assert recurrence_exponents(4) == (1, 2, 6, 18)
    exps = recurrence_exponents(8)
    assert exps[0] == 1 and exps[1] == 2
    for k in range(2, len(exps)):
        assert exps[k] == 3 * exps[k - 1]
    # pairwise sums a_i + a_j are all distinct (the point of the recurrence)
    sums = [exps[i] + exps[j] for i in range(8) for j in range(i, 8)]
    assert len(sums) == len(set(sums))


def test_diagonal_drift_exact_route():
    plan = build_perturbation(_drift("x1", "-2 * x2"), u=Fraction(1, 3), L=6)
    assert plan.exact_route
    assert plan.u == Fraction(1, 3)
    assert plan.mu == (Fraction(1, 3), Fraction(1, 9))
    diag = {str(plan.P_exact[0][0]), str(plan.P_exact[1][1])}
    assert diag == {"1/3", "1/9"}
    assert plan.P_exact[0][1].is_zero() and plan.P_exact[1][0].is_zero()


def test_rejects_singular_jacobian():
    with pytest.raises(PerturbationError, match="singular"):
        build_perturbation(_drift("x2", "0"))


def test_rejects_repeated_eigenvalues():
    with pytest.raises(PerturbationError, match="repeated"):
        build_perturbation(_drift("x1", "x2"))


def test_rejects_nonvanishing_drift():
    with pytest.raises(PerturbationError, match="vanish"):
        build_perturbation(_drift("1 + x1"))


def test_rejects_u_outside_unit_interval():
    d = _drift("x1")
    with pytest.raises(PerturbationError):
        build_perturbation(d, u=Fraction(3, 2))
    with pytest.raises(PerturbationError):
        build_perturbation(d, u=Fraction(0))


def test_harmonic_end_to_end():
    drift = systems.harmonic_oscillator().drift
    plan = build_perturbation(drift, u=0.37, L=8)
    assert plan.u == Fraction(37, 100)  # float read through its decimal literal
    assert plan.exponents == (1, 2)
    assert plan.exact_route
    # P is Hermitian with an exact closed form: diag (u+u^2)/2, off-diag +-i (u-u^2)/2
    half_sum = CRational(Fraction(5069, 20000))
    half_diff = CRational(Fraction(0), Fraction(2331, 20000))
    assert plan.P_exact[0][0] == half_sum and plan.P_exact[1][1] == half_sum
    assert plan.P_exact[0][1] == half_diff
    assert plan.P_exact[1][0] == -half_diff
    assert plan.P_exact[0][0] + plan.P_exact[1][1] == CRational(Fraction(5069, 10000))
    assert exactla.det(plan.P_exact) == CRational(Fraction(37, 100) ** 3)
    assert plan.residual_min > 0

    verdict = verify_perturbation(drift, plan, D=4)
    assert verdict.passed
    assert verdict.found == ()
    assert (verdict.dmin, verdict.dmax) == (1, 4)


def test_perturbation_spectrum_matches_powers_of_u():
    drift = systems.harmonic_oscillator().drift
    plan = build_perturbation(drift, u=Fraction(37, 100), L=8)
    got = sorted(np.linalg.eigvals(plan.P), key=lambda z: z.real)
    want = sorted(float(plan.u) ** a for a in plan.exponents)
    assert np.allclose(got, want, atol=1e-9)
    assert np.allclose([z.imag for z in got], 0.0, atol=1e-9)


def test_numeric_route_for_irrational_spectrum():
    # Jacobian [[0,1],[2,0]] has eigenvalues +-sqrt(2): no exact certification,
    # so the plan is built from the numeric eigenbasis and lifted for verification.
    d = _drift("x2", "2 * x1")
    plan = build_perturbation(d, u=Fraction(37, 100), L=6)
    assert not plan.exact_route
    got = sorted(np.linalg.eigvals(plan.P), key=lambda z: z.real)
    assert np.allclose(got, [0.37 ** 2, 0.37], atol=1e-8)
    assert verify_perturbation(d, plan, D=3).passed


def test_near_repeated_eigenvalues_are_distinct():
    # Jacobian [[1, 1], [0, 1 + 10^-13]]: distinct eigenvalues, so the plan builds
    # (numeric route: 1 + 10^-13 has no exact witness) and verifies
    d = _drift("x1 + x2", "10000000000001/10000000000000 * x2")
    plan = build_perturbation(d)
    assert plan.u == Fraction(37, 100) and not plan.exact_route
    assert verify_perturbation(d, plan).passed
    with pytest.raises(PerturbationError, match="repeated eigenvalue near 1"):
        build_perturbation(_drift("x1 + x2", "x2"))  # Jordan block: truly repeated


def test_obstruction_values_match_double_sum():
    # E(l) = 2 <lam, l> + sum_i l_i (l_i - 1) mu_i^2 + sum_{i != j} l_i l_j mu_i mu_j
    # is 2 q(l) for the corrected spectrum lam_j - mu_j^2 / 2 and the noise spectrum mu
    rng = random.Random(17)
    cases = [([CRational(-1)], [Fraction(1, 2)], 9)]  # E((9,)) = 0
    for _ in range(30):
        n = rng.randint(1, 3)
        lam = [CRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                         Fraction(rng.randint(-3, 3), rng.randint(1, 4))) for _ in range(n)]
        u = Fraction(rng.randint(1, 9), 10)
        cases.append((lam, [u ** a for a in recurrence_exponents(n)], rng.randint(1, 5)))
    zeros = 0
    for lam, mu, L in cases:
        n = len(lam)
        exact, points = resonance_values([e - m * m / 2 for e, m in zip(lam, mu)], [mu], L)
        assert exact
        got = list(points)
        assert [l for l, *_ in got] == [l for l in itertools.product(range(L + 1), repeat=n)
                                        if 0 < sum(l) <= L]
        for l, q, scale in got:
            e = sum((lam[i] * (2 * l[i]) for i in range(n)), CRational(0))
            e += sum(l[i] * (l[i] - 1) * mu[i] ** 2 for i in range(n))
            e += sum(l[i] * l[j] * mu[i] * mu[j] for i in range(n) for j in range(n) if i != j)
            assert scale is None
            assert 2 * q == e
            zeros += e.is_zero()
    assert zeros >= 1


def test_obstruction_retry_replaces_bad_u():
    # lambda = -1, u = 1/2: E((9,)) = -18 + (1/4) * 72 = 0, so L = 9 forces a retry.
    d = _drift("-1 * x1")
    plan = build_perturbation(d, u=Fraction(1, 2), L=9)
    assert plan.u != Fraction(1, 2)
    assert plan.u == Fraction(7, 8)  # first admissible candidate from the seeded sequence
    assert plan.residual_min > 0
    # the same u is fine when the scan stops at L = 8
    assert build_perturbation(d, u=Fraction(1, 2), L=8).u == Fraction(1, 2)


def test_noise_field_matches_exact_matrix():
    drift = systems.harmonic_oscillator().drift
    plan = build_perturbation(drift, u=Fraction(37, 100), L=8)
    field = plan.noise_field()
    n = len(plan.P_exact)
    for i in range(n):
        for j in range(n):
            e = tuple(1 if k == j else 0 for k in range(n))
            assert field[i].coeff(e) == plan.P_exact[i][j]


def test_plan_dict_shape():
    plan = build_perturbation(_drift("x1", "-2 * x2"), u=Fraction(1, 3), L=4)
    d = plan.to_dict()
    assert set(d) == {"u", "exponents", "mu", "eigenvalues", "eigenvalues_exact",
                      "Q", "P", "P_exact", "exact_route", "residual_min", "L", "det_Df"}
    assert d["u"] == "1/3"
    assert d["exponents"] == [1, 2]
    assert d["L"] == 4
