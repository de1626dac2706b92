"""End-to-end acceptance: ten fixed criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

import random
import time
from fractions import Fraction

import oracles
from sdefi import exactla, systems
from sdefi.algebra import CRational, LaurentPoly, VField, parse_poly_text
from sdefi.ito import SdeSystem, check_strong, check_weak, lemma_identity_residual
from sdefi.mc import SimConfig, conservation_test, simulate_paths
from sdefi.perturb import build_perturbation, verify_perturbation
from sdefi.resonance import nonintegrability_report, weak_resonance_test
from sdefi.search import find_first_integrals, monomial_basis, operator_matrix
from sdefi.spectral import (
    NotApplicableError,
    jacobian_at_origin,
    linearization,
    roots,
)


def _report(n: int, detail: str):
    print(f"ACCEPTANCE {n}: PASS — {detail}")


def test_acceptance_01_noise_jacobian_spectrum():
    t0 = time.monotonic()
    a = jacobian_at_origin(systems.cyclic_exchange().diffusions[0])
    want = [[1, -2, 0], [0, 2, -1], [-1, 0, 1]]
    assert a == [[CRational(v) for v in row] for row in want]

    monic = exactla.char_poly(a)                      # det(xI - A), ascending
    assert monic == [CRational(c) for c in (0, 5, -4, 1)]
    flipped = [-c for c in monic]                     # det(A - xI) = -x (x^2 - 4x + 5)
    assert flipped == [CRational(c) for c in (0, -5, 4, -1)]

    eig = roots(monic)
    zeros = [e for e in eig.exact if e is not None and e.is_zero()]
    assert len(zeros) == 1, "eigenvalue 0 must be certified exactly"
    assert min(abs(v - (2 + 1j)) for v in eig.values) <= 1e-10
    assert min(abs(v - (2 - 1j)) for v in eig.values) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"char poly -x(x^2-4x+5), eigenvalues {{0 exact, 2+-i}} in {elapsed:.3f}s")


def test_acceptance_02_corrected_linearization_spectrum():
    data = linearization(systems.cyclic_exchange(a=2, b=3))
    a0 = data.A0
    n = len(a0)
    for j in range(n):
        col = sum((a0[i][j] for i in range(n)), CRational(0))
        assert col.is_zero(), f"column {j} sum must vanish exactly"
    zeros = [e for e in data.lam.exact if e is not None and e.is_zero()]
    assert len(zeros) == 1, "A0 must have a certified exact eigenvalue 0"
    pair_sum = sum(data.lam.values)  # 0 + (remaining pair)
    assert abs(pair_sum - 2.0) <= 1e-9  # alpha = a + b - 3 = 2
    _report(2, "A0 column sums vanish, eigenvalue 0 exact, pair sums to 2")


def test_acceptance_03_two_body_checks():
    t0 = time.monotonic()
    sys = systems.two_body()
    names = sys.var_names
    momentum = systems.two_body_momentum()
    energy = systems.two_body_energy()

    vw = check_weak(sys, momentum)
    assert vw.holds

    vs = check_strong(sys, momentum)
    assert not vs.holds
    assert vs.residual("corrected_drift").is_zero
    assert vs.residual("diffusion_1").is_zero
    assert vs.residual("diffusion_2") == parse_poly_text("r", names)  # sigma_phi * r

    ve = check_weak(sys, energy)
    assert not ve.holds
    assert ve.residual("generator") == parse_poly_text("1/2 * r^2 + 1/2", names)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(3, f"momentum weak-only (residual r), energy residual (r^2+1)/2 in {elapsed:.3f}s")


def _random_poly(rng, dim, n_terms):
    terms = {}
    for _ in range(n_terms):
        e = tuple(rng.randint(-2, 4) for _ in range(dim))
        c = CRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        terms[e] = terms.get(e, CRational(0)) + c
    return LaurentPoly(dim, {e: c for e, c in terms.items() if not c.is_zero()})


def test_acceptance_04_chain_rule_identity():
    rng = random.Random(2026)
    checked = 0
    for _ in range(200):
        dim = rng.randint(1, 4)
        phi = _random_poly(rng, dim, rng.randint(1, 8))
        g = VField(tuple(_random_poly(rng, dim, rng.randint(1, 8)) for _ in range(dim)))
        res = lemma_identity_residual(phi, g)
        assert res.is_zero, "identity must vanish exactly, zero tolerance"
        checked += 1
    assert checked == 200
    _report(4, "chain-rule identity exactly zero on 200 random (phi, g) pairs")


def test_acceptance_05_diagonal_transport_operator():
    names = ("x1", "x2")
    drift = VField((parse_poly_text("x1", names), parse_poly_text("-2 * x2", names)))
    sys = SdeSystem(drift, (), names)
    for r in range(1, 6):
        basis = monomial_basis(2, r, r)
        mat = operator_matrix(sys, basis, "strong_drift")
        assert mat.output_monomials == basis.monomials
        for (row, col) in mat.entries:
            assert row == col, "operator must be diagonal on homogeneous bases"
        for i, (l1, l2) in enumerate(basis.monomials):  # row i and column i are both x^(l1, l2)
            assert mat.entries.get((i, i), CRational(0)) == CRational(l1 - 2 * l2)
    _report(5, "transport operator diagonal with entries l1 - 2*l2 through degree 5")


def test_acceptance_06_gbm_search_and_monte_carlo():
    t0 = time.monotonic()
    sys = systems.gbm()
    basis = find_first_integrals(sys, "weak", -1, 1)
    assert len(basis) == 1
    assert basis.basis[0] == LaurentPoly.monomial(1, (-1,))

    cfg = SimConfig(x0=(1.0,), h=1e-3, T=1.0, N=10_000, seed=2026)
    ens = simulate_paths(sys, cfg)
    rep = conservation_test(ens, basis.basis[0], "weak")
    assert rep.threshold == 3.0 * rep.stderr + 0.01  # default bias constant, h = 1e-3
    assert rep.delta <= rep.threshold
    assert rep.passed
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, f"weak basis {{x1^-1}}, |mean - 1| = {rep.delta:.4f} <= "
               f"{rep.threshold:.4f} in {elapsed:.1f}s")


def test_acceptance_07_competitive_system_certified():
    sys = systems.lotka_volterra()
    rep = nonintegrability_report(sys)
    assert rep.hypotheses["drift_vanishes_at_origin"] is True
    assert rep.hypotheses["noise_vanishes_at_origin"] is True
    assert rep.hypotheses["noise_quadratic_order"] is True
    assert rep.hypotheses["simultaneously_diagonalizable"] == "holds"
    assert rep.s_min == 0 and rep.s_min_certified  # half-plane closes the scan
    assert all(s.complete for s in rep.scans if s.lattice == "zplus")
    weak_certified = [v for v in rep.verdicts
                      if v.code == "NO_WEAK_ANALYTIC" and v.status.certified]
    assert weak_certified, "NO_WEAK_ANALYTIC must be certified"
    empties = find_first_integrals(sys, "weak", 1, 4)
    assert len(empties) == 0
    _report(7, "hypotheses verified, NO_WEAK_ANALYTIC certified, weak window [1,4] empty")


def test_acceptance_08_weak_resonance_counterexample():
    res = weak_resonance_test((-2,), [(2,)])
    assert (1,) in res.violations  # q(1) = -2 + (1/2)*4 = 0

    sys = systems.scalar_martingale()  # dX = 2 X dB realizes exactly that pair
    x = LaurentPoly.monomial(1, (1,))
    assert check_weak(sys, x).holds

    ens = simulate_paths(sys, SimConfig(x0=(1.0,), h=1e-2, T=1.0, N=4000, seed=11))
    rep = conservation_test(ens, x, "weak", c_bias=0.0)
    assert rep.delta <= 3.0 * rep.stderr
    _report(8, f"violation k=1 found; martingale mean within 3 stderr "
               f"(delta {rep.delta:.4f} vs {3 * rep.stderr:.4f})")


def test_acceptance_09_perturbation_end_to_end():
    t0 = time.monotonic()
    sys = systems.harmonic_oscillator()
    strong = find_first_integrals(sys, "strong", 1, 2)
    assert len(strong) == 1
    assert strong.basis[0] == parse_poly_text("x1^2 + x2^2", sys.var_names)

    # the paper's noise P = Q diag(u, u^2) Q^-1, and the certified scalar noise a X dW
    exponents, p = oracles.paper_perturbation(sys.drift, u=Fraction(37, 100))
    assert exponents == (1, 2)
    assert len(find_first_integrals(SdeSystem(sys.drift, (oracles.linear_field(p),),
                                              sys.var_names), "weak", 1, 4)) == 0
    plan = build_perturbation(sys.drift)
    assert plan.a == 1
    verdict = verify_perturbation(sys.drift, plan, D=4)
    assert verdict.passed
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(9, f"x1^2 + x2^2 found; the paper's noise u=37/100 exponents (1, 2) and "
               f"the scalar noise a=1 each pass D=4 verification in {elapsed:.2f}s")


def test_acceptance_10_cross_fixture_consistency():
    weak_checked = []
    for name, builder in systems.REGISTRY.items():
        sys = builder()
        try:
            rep = nonintegrability_report(sys)
        except NotApplicableError:
            continue
        if any(v.code == "NO_WEAK_ANALYTIC" and v.status.certified for v in rep.verdicts):
            assert len(find_first_integrals(sys, "weak", 1, 4)) == 0, name
            weak_checked.append(name)
    assert weak_checked, "at least one fixture must carry a certified weak verdict"

    strong_weak_pairs = 0
    for name, builder in systems.REGISTRY.items():
        sys = builder()
        strong = find_first_integrals(sys, "strong", 1, 2)
        for p in strong.basis:
            assert check_weak(sys, p).holds, f"{name}: strong integral must also be weak"
            strong_weak_pairs += 1
    assert strong_weak_pairs > 0
    _report(10, f"certified weak emptiness on {weak_checked}; "
                f"{strong_weak_pairs} strong integrals all weak; zero violations")
