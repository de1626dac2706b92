"""Resonance lattices, half-plane certificates, the weak-resonance function, verdicts."""

import itertools
import random
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sdefi import algebra, resonance, systems
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
        scan = resonance_values(lam, b, K=4)
        assert scan.exact
        zeros = set()
        for k, q in scan.points():
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


# -- the vectorized scan against a scalar reference -------------------------------------


def _reference_scan(lam, mus, K, lattice):
    """(k, q(k)) for every 0 < |k|_1 <= K in lexicographic order, by scalar
    arithmetic: CRational when every value is exact, otherwise complex floats
    summed from 0 in coordinate order."""
    exact = all(isinstance(v, CRational) for v in (*lam, *(v for mu in mus for v in mu)))
    if not exact:
        lam, mus = [complex(v) for v in lam], [[complex(v) for v in mu] for mu in mus]
    zero, half = (CRational(0), CRational(Fraction(1, 2))) if exact else (0, 0.5)
    out = []
    for k in itertools.product(range(0 if lattice == "zplus" else -K, K + 1), repeat=len(lam)):
        if not 0 < sum(map(abs, k)) <= K:
            continue
        q = zero
        for v, t in zip(lam, k):
            q = q + v * t
        for mu in mus:
            s = zero
            for v, t in zip(mu, k):
                s = s + v * t
            q = q + half * (s * s)
        out.append((k, q))
    return exact, out


def _reference_zeros(lam, mus, ref, exact, tol):
    if exact:
        return [k for k, q in ref if q == 0]
    max_lam = max((abs(complex(v)) for v in lam), default=0.0)
    max_mu = max((abs(complex(v)) for mu in mus for v in mu), default=0.0)
    out = []
    for k, q in ref:
        l1 = sum(map(abs, k))
        if abs(q) <= tol * (1.0 + l1 * max_lam + 0.5 * len(mus) * (l1 * max_mu) ** 2):
            out.append(k)
    return out


def _bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


def _random_spectrum(rng, n, exact):
    """Small rationals, so that resonances occur; float spectra round them,
    sometimes with a near-miss shift."""
    out = []
    for _ in range(n):
        v = CRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                      Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.4 else 0)
        out.append(v if exact else complex(v) + rng.choice([0, 0, 0, 1e-13, 3e-10, 1e-6]))
    return out


def _check_scan(lam, mus, K, lattice, tols=(1e-9,)):
    exact, ref = _reference_scan(lam, mus, K, lattice)
    scan = resonance_values(lam, mus, K, lattice)
    assert scan.exact == exact
    got = list(scan.points())
    assert [k for k, _ in got] == [k for k, _ in ref]
    if exact:
        assert all(isinstance(q, CRational) and q == r for (_, q), (_, r) in zip(got, ref))
    else:
        assert [_bits(q) for _, q in got] == [_bits(r) for _, r in ref]
        # a tolerance exactly at some |q(k)| / scale puts that k on the boundary
        nonzero = [k for k, q in ref if q != 0]
        if nonzero:
            k0 = nonzero[len(nonzero) // 2]
            l1 = sum(map(abs, k0))
            max_lam = max(abs(complex(v)) for v in lam)
            max_mu = max((abs(complex(v)) for mu in mus for v in mu), default=0.0)
            scale = 1.0 + l1 * max_lam + 0.5 * len(mus) * (l1 * max_mu) ** 2
            tols = (*tols, abs(dict(ref)[k0]) / scale)
    for tol in tols:
        want = _reference_zeros(lam, mus, ref, exact, tol)
        assert scan.zeros(tol) == want, (lam, mus, K, lattice, tol)
        by_order = sorted(want, key=lambda k: (sum(map(abs, k)), k))
        if not mus:
            assert enumerate_resonances(lam, K, tol, lattice) == by_order
        elif lattice == "zplus":
            wr = weak_resonance_test(lam, mus, K, tol)
            assert wr.violations == (() if wr.certificate == "positive-definite" else tuple(by_order))
    return scan


@pytest.mark.parametrize("block", [5, 1 << 13])
def test_scan_matches_scalar_reference(block, monkeypatch):
    # blocks of 5 points split every window, the default block holds most whole
    monkeypatch.setattr(algebra, "_BLOCK", block)
    rng = random.Random(16)
    for n in range(5):
        for K in sorted({0, 8, rng.randint(1, 7), rng.randint(1, 7)}):
            if n == 4 and K > 5 and block == 5:
                continue  # the largest windows once, with the default block
            for exact in (True, False):
                lam = _random_spectrum(rng, n, exact)
                mus = [_random_spectrum(rng, n, exact) for _ in range(rng.randint(0, 2))]
                for lattice in ("zplus", "z"):
                    _check_scan(lam, [], K, lattice)
                    _check_scan(lam, mus, K, lattice)


def test_exact_scan_beyond_int64_stays_exact():
    # u^18 on n = 4 and denominators near 10^30 cannot be scaled into int64
    u = Fraction(37, 100)
    mu = [CRational(u ** a) for a in (1, 2, 6, 18)]
    rng = random.Random(4)
    for _ in range(3):
        lam = [CRational(Fraction(rng.randint(-9, 9), 10 ** 30 + rng.randint(1, 99)),
                         Fraction(rng.randint(-2, 2))) for _ in range(4)]
        # plant a zero of q at k = (1, 1, 0, 0) by solving for lam_2
        s = mu[0] + mu[1]
        lam[1] = -lam[0] - CRational(Fraction(1, 2)) * (s * s)
        for lattice in ("zplus", "z"):
            scan = _check_scan(lam, [mu], 4, lattice)
            assert scan.dtype is object
            assert (1, 1, 0, 0) in scan.zeros(0.0)


def test_scan_memory_is_bounded_by_its_blocks():
    # n = 6, K = 14 on the signed lattice holds 880 685 points: materialized as
    # int64 vectors alone they take 42 MB; the block scan stays a few MB
    lam = [complex(1, 0.3), -1.1, 2.0, -0.7, 0.5j, 3.0]
    tracemalloc.start()
    try:
        zeros = resonance_values(lam, (), 14, "z").zeros(1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    # 3 * 2 - 2 * 3 = 0, and every k found passes the scalar test
    assert (0, 0, 3, 0, 0, -2) in zeros and zeros == sorted(zeros)
    ref = [(k, sum((v * t for v, t in zip(lam, k)), 0)) for k in zeros]
    assert _reference_zeros(lam, (), ref, False, 1e-9) == zeros


# -- one-dimensional exact scans answer without enumerating ---------------------------


def test_scalar_exact_scan_equals_the_enumerated_scan():
    rng = random.Random(3821)
    for _ in range(12):
        re = Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, 3000001))
        im = Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.5 else 0
        eig = Eigenvalues((complex(CRational(re, im)),), (CRational(re, im),))
        for lattice in ("zplus", "z"):
            for K in (0, 1, 10, 24):
                vectors = tuple(enumerate_resonances(eig, K, 1e-9, lattice))
                assert vectors == ()
                want = resonance.ScanResult("A0", lattice, eig, vectors, lattice_rank(vectors),
                                            True, False, K, 1e-9)
                assert resonance._scan("A0", eig, lattice, K, 1e-9) == want


def test_scalar_report_builds_without_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_resonances called on a scalar exact spectrum")

    monkeypatch.setattr(resonance, "enumerate_resonances", refuse)
    rep = nonintegrability_report(systems.gbm())
    assert [s.complete for s in rep.scans] == [True, True]
    assert rep.s_min == 0 and rep.s_min_certified


def test_scalar_float_scan_still_enumerates(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_resonances(*args)

    monkeypatch.setattr(resonance, "enumerate_resonances", counted)
    tiny = _eig([1e-12])  # a float within tolerance of 0: every k resonates
    scan = resonance._scan("A0", tiny, "zplus", 3, 1e-9)
    assert len(calls) == 1 and scan.vectors == ((1,), (2,), (3,))
    assert resonance._scan("A0", _eig([0.5]), "z", 3, 1e-9).vectors == ()
    assert len(calls) == 2
