"""Resonance lattices, half-plane certificates, the weak-resonance function, verdicts."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from sdefi import systems
from sdefi.algebra import CRational, LaurentPoly, VField
from sdefi.ito import SdeSystem, check_weak, weak_generator_apply
from sdefi.resonance import (
    enumerate_resonances,
    halfplane_certificate,
    lattice_rank,
    nonintegrability_report,
    resonance_values,
    weak_resonance_test,
)
from sdefi.spectral import Eigenvalues


def _eig(values, exact=None):
    vals = tuple(complex(v) for v in values)
    if exact is None:
        exact = tuple(None for _ in vals)
    return Eigenvalues(values=vals, exact=tuple(exact))


def _exact_eig(rationals):
    vals = tuple(complex(Fraction(r)) for r in rationals)
    return Eigenvalues(values=vals, exact=tuple(CRational(Fraction(r)) for r in rationals))


# -- enumeration against a brute-force oracle ------------------------------------------


def brute_force(values, K, tol, lattice):
    n = len(values)
    rng = range(0, K + 1) if lattice == "zplus" else range(-K, K + 1)
    out = []
    for k in itertools.product(rng, repeat=n):
        if not any(k) or sum(abs(x) for x in k) > K:
            continue
        s = sum(v * ki for v, ki in zip(values, k))
        if abs(s) <= tol:
            out.append(k)
    return sorted(out)


def test_enumeration_matches_brute_force():
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randint(1, 3)
        vals = [complex(rng.randint(-3, 3), rng.choice([0, 0, 1, -1])) for _ in range(n)]
        eig = _eig(vals)
        K = rng.randint(1, 5)
        for lattice in ("zplus", "z"):
            got = sorted(enumerate_resonances(eig, K=K, tol=1e-9, lattice=lattice))
            assert got == brute_force(vals, K, 1e-9, lattice), (vals, K, lattice)


def test_exact_membership_with_exact_eigenvalues():
    # 1/3 + 1/3 - 2/3 = 0 exactly; floats would need a tolerance call
    eig = _exact_eig([Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3)])
    vecs = enumerate_resonances(eig, K=3, tol=0.0, lattice="zplus")
    assert (1, 1, 1) in vecs
    assert (2, 2, 2) not in vecs  # |k|_1 = 6 > 3


def test_near_miss_respects_tolerance():
    eig = _eig([1.0, -1.0 + 5e-10])
    assert (1, 1) in enumerate_resonances(eig, K=2, tol=1e-9)
    eig2 = _eig([1.0, -1.0 + 5e-6])
    assert (1, 1) not in enumerate_resonances(eig2, K=2, tol=1e-9)


def test_lattice_rank_against_numpy():
    rng = random.Random(777)
    for _ in range(20):
        n = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        expect = np.linalg.matrix_rank(np.array(vecs)) if vecs else 0
        assert lattice_rank(vecs) == int(expect)


# -- half-plane certificate --------------------------------------------------------------


def test_halfplane_positive_reals():
    assert halfplane_certificate(_eig([1, 2, 3])) is not None


def test_halfplane_mixed_signs_fails():
    assert halfplane_certificate(_eig([1, -1])) is None
    assert halfplane_certificate(_eig([1, 1j, -1, -1j])) is None


def test_halfplane_complex_cluster():
    # angles 45 and 90 degrees leave a 315-degree gap: certificate fires
    assert halfplane_certificate(_eig([1 + 1j, 1j])) is not None


def test_halfplane_rejects_zero_eigenvalue():
    assert halfplane_certificate(_eig([0, 1, 2])) is None


def test_halfplane_certificate_means_no_resonances():
    rng = random.Random(31415)
    for _ in range(30):
        n = rng.randint(1, 3)
        vals = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        eig = _eig(vals)
        if halfplane_certificate(eig) is not None:
            assert enumerate_resonances(eig, K=8, tol=1e-9) == []


# -- weak resonance function ----------------------------------------------------------------


def test_weak_resonance_violation_on_scalar_counterexample():
    # lam = -2, mu = 2 gives q(1) = -2 + (1/2)*4 = 0
    lam = _exact_eig([-2])
    mu = _exact_eig([2])
    res = weak_resonance_test(lam, [mu], K=5)
    assert (1,) in res.violations


def test_weak_resonance_positive_definite_certificate():
    lam = _exact_eig([1, 2])
    mu = _exact_eig([0, 0])
    res = weak_resonance_test(lam, [mu], K=5)
    assert not res.violations
    assert res.certificate == "positive-definite"


def test_weak_resonance_float_spectra_never_skip_the_scan():
    # q(k) = k1 + k2 - (1/2) 10^-20 (k1 - k2)^2 vanishes at k = (2 10^20, 0): a
    # float mu within tolerance of the real axis proves nothing
    res = weak_resonance_test([1.0, 1.0], [[1e-10j, -1e-10j]], K=6)
    assert res.certificate == "bounded" and not res.exact
    assert res.violations == ()
    exact = weak_resonance_test(_exact_eig([1, 1]), [_exact_eig([1, -1])], K=6)
    assert exact.certificate == "positive-definite" and exact.exact


def test_weak_resonance_bounded_scan_without_certificate():
    lam = _exact_eig([1, -3])
    mu = _exact_eig([1, 2])
    res = weak_resonance_test(lam, [mu], K=6)
    # q(k) = k1 - 3 k2 + (1/2)(k1 + 2 k2)^2: brute-force the same window
    expect = []
    for k in itertools.product(range(7), repeat=2):
        if not any(k) or sum(k) > 6:
            continue
        q = k[0] - 3 * k[1] + 0.5 * (k[0] + 2 * k[1]) ** 2
        if abs(q) <= 1e-9:
            expect.append(k)
    assert sorted(res.violations) == sorted(expect)
    assert res.certificate == "bounded"  # window scan only, no global proof


def test_weak_resonance_function_is_the_generator_eigenvalue():
    # dX_j = a_j X_j dt + sum_i b_ij X_j dB^i maps x^k to q(k) x^k under the
    # generator, with lam = a - (1/2) sum_i b_i^2 and mu^i = b_i
    rng = random.Random(29)

    def z():
        return CRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                         Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    def diagonal(n, c):
        return VField(tuple(LaurentPoly(n, {tuple(int(i == j) for i in range(n)): c[j]})
                            for j in range(n)))

    checked = 0
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        a = [z() for _ in range(n)]
        b = [[z() for _ in range(n)] for _ in range(m)]
        sys = SdeSystem(diagonal(n, a), tuple(diagonal(n, bi) for bi in b),
                        tuple(f"x{j + 1}" for j in range(n)))
        lam = [a[j] - sum((bi[j] * bi[j] for bi in b), CRational(0)) / 2 for j in range(n)]
        exact, points = resonance_values(lam, b, K=4)
        assert exact
        zeros = set()
        for k, q, scale in points:
            xk = LaurentPoly.monomial(n, k)
            assert weak_generator_apply(sys, xk) == xk.scale(q)
            if q.is_zero():
                zeros.add(k)
            checked += 1
        assert set(weak_resonance_test(lam, b, K=4).violations) == zeros
    assert checked >= 500


def _rotation_noise_system():
    # dX = (1/2) X dt + J X dB with J the rotation [[0, -1], [1, 0]]
    half = Fraction(1, 2)
    f = VField((LaurentPoly(2, {(1, 0): half}), LaurentPoly(2, {(0, 1): half})))
    g = VField((LaurentPoly(2, {(0, 1): -1}), LaurentPoly(2, {(1, 0): 1})))
    return SdeSystem(f, (g,), ("x1", "x2"))


def test_rotation_noise_weak_integrals_are_not_excluded():
    # lam = (1, 1) is real and positive but mu = (i, -i) is not real:
    # q(k) = k1 + k2 - (k1 - k2)^2 / 2 vanishes at (2, 0) and (0, 2),
    # the monomials (x1 +- i x2)^2, whose real and imaginary parts are weak integrals
    sys = _rotation_noise_system()
    for phi in ({(2, 0): 1, (0, 2): -1}, {(1, 1): 1}):
        assert check_weak(sys, LaurentPoly(2, phi)).holds
    rep = nonintegrability_report(sys)
    assert rep.hypotheses["simultaneously_diagonalizable"] == "holds"
    assert "NO_WEAK_ANALYTIC" not in rep.verdict_codes()
    assert rep.weak.certificate == "bounded" and rep.weak.exact  # mu = (-i, i) exactly
    assert {(2, 0), (0, 2)} <= set(rep.weak.violations)
    mu = Eigenvalues((1j, -1j), (CRational(0, 1), CRational(0, -1)))
    res = weak_resonance_test(_exact_eig([1, 1]), [mu], K=4)
    assert res.certificate == "bounded" and res.exact
    assert res.violations == ((0, 2), (2, 0))


# -- orchestrated reports ---------------------------------------------------------------------


def test_report_lotka_volterra_certified():
    rep = nonintegrability_report(systems.lotka_volterra())
    codes = rep.verdict_codes()
    assert "NO_WEAK_ANALYTIC" in codes
    assert "NO_STRONG_ANALYTIC" in codes
    v = rep.find("NO_WEAK_ANALYTIC")
    assert v.status.certified
    assert v.theorem
    assert rep.hypotheses["noise_quadratic_order"] is True
    assert rep.s_min == 0 and rep.s_min_certified


def test_report_scalar_martingale():
    rep = nonintegrability_report(systems.scalar_martingale())
    assert rep.find("NO_STRONG_ANALYTIC") is not None
    bound = rep.find("STRONG_COUNT_AT_MOST")
    assert bound is not None and bound.count_bound == 0
    # the weak resonance function has the root k=1: no weak-exclusion verdict
    assert rep.find("NO_WEAK_ANALYTIC") is None
    assert rep.weak is not None and (1,) in rep.weak.violations


def test_report_harmonic_oscillator_count_bound():
    rep = nonintegrability_report(systems.harmonic_oscillator())
    # spectrum {i, -i}: k = (1,1) resonates at every even order
    assert rep.find("NO_STRONG_ANALYTIC") is None
    bound = rep.find("STRONG_COUNT_AT_MOST")
    assert bound is not None and bound.count_bound == 1
    assert not bound.status.certified  # K-window scan, lattice not exhausted


def test_report_inconclusive_for_additive_noise():
    # constant noise: no route applies (g(0) != 0 and g not O(|x|^2))
    names = ("x1",)
    sys = SdeSystem(
        VField((LaurentPoly(1, {(1,): 1}),)),
        (VField((LaurentPoly.const(1, 1),)),),
        names)
    rep = nonintegrability_report(sys)
    assert rep.verdict_codes() == ["INCONCLUSIVE"]
    assert not rep.verdicts[0].status.certified


def test_report_bounded_vs_certified_statuses():
    # diag(1, -2) drift with identity-Jacobian linear noise: the corrected
    # spectrum picks up resonances inside the window, so s_min is only a bound
    names = ("x1", "x2")
    f = VField((LaurentPoly(2, {(1, 0): 1}), LaurentPoly(2, {(0, 1): -2})))
    g = VField((LaurentPoly(2, {(1, 0): 1}), LaurentPoly(2, {(0, 1): 1})))
    rep = nonintegrability_report(SdeSystem(f, (g,), names))
    bound = rep.find("STRONG_COUNT_AT_MOST")
    assert bound is not None
    assert not bound.status.certified
    d = bound.status.to_dict()
    assert d["kind"] == "bounded" and d["K"] == rep.K and d["tol"] == rep.tol


def test_report_verdict_schema():
    for sys in (systems.lotka_volterra(), systems.scalar_martingale(),
                systems.harmonic_oscillator()):
        rep = nonintegrability_report(sys)
        for v in rep.to_dict()["verdicts"]:
            assert set(v) >= {"code", "theorem", "hypotheses_checked", "epistemic_status"}
            assert v["epistemic_status"]["kind"] in ("certified", "bounded")


def test_degenerate_zero_spectrum_scan():
    # pure quadratic drift: Df(0) = 0, everything resonates, rank is full
    names = ("x1", "x2")
    f = VField((LaurentPoly(2, {(2, 0): 1}), LaurentPoly(2, {(0, 2): 1})))
    rep = nonintegrability_report(SdeSystem(f, (), names))
    scan = next(s for s in rep.scans if s.label == "A0" and s.lattice == "zplus")
    assert scan.degenerate and scan.complete and scan.rank == 2
    bound = rep.find("STRONG_COUNT_AT_MOST")
    assert bound.count_bound == 2


def test_k_zero_edge():
    eig = _eig([1.0, -1.0])
    assert enumerate_resonances(eig, K=0) == []
    with pytest.raises(ValueError):
        enumerate_resonances(eig, K=-1)
    with pytest.raises(ValueError):
        enumerate_resonances([], lattice="bogus")
