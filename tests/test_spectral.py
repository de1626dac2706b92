"""Linearization, characteristic polynomials, eigenvalue certification, H1."""

import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from sdefi import resonance, spectral, systems
from sdefi.algebra import CRational, LaurentPoly, VField, parse_poly_text
from sdefi import exactla
from sdefi.exactla import as_matrix, char_poly, det, nullspace, poly_eval, rank
from sdefi.ito import SdeSystem, stratonovich_drift
from sdefi.spectral import (
    Eigenvalues,
    H1Status,
    NotApplicableError,
    aligned_spectra,
    eigenbasis,
    eigenvalues,
    h1_check,
    jacobian_at_origin,
    linearization,
    roots,
)


# -- oracle: det(xI - A) via cofactor expansion over the polynomial ring -------------


def charpoly_oracle(m):
    """Characteristic polynomial computed symbolically, no Faddeev-LeVerrier."""
    n = len(m)
    x = LaurentPoly.variable(1, 0)
    entries = [[x - LaurentPoly.const(1, m[i][j]) if i == j
                else -LaurentPoly.const(1, m[i][j]) for j in range(n)] for i in range(n)]

    def poly_det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = LaurentPoly.zero(1)
        r0 = rows[0]
        for k, c in enumerate(cols):
            minor = poly_det(rows[1:], cols[:k] + cols[k + 1:])
            term = entries[r0][c] * minor
            acc = acc + (term if k % 2 == 0 else -term)
        return acc

    p = poly_det(list(range(n)), list(range(n)))
    return [p.coeff([k]) for k in range(n + 1)]


def rand_matrix(rng, n):
    return as_matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(n)] for _ in range(n)])


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(1729)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        assert char_poly(m) == charpoly_oracle(m)


def test_char_poly_constant_term_is_signed_det():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        p = char_poly(m)
        sign = CRational(1 if n % 2 == 0 else -1)
        assert p[0] == sign * oracles.det(m)
        assert p[n] == CRational(1)  # monic


# -- exact linear algebra invariants -------------------------------------------------


def test_rref_nullspace_rank():
    rng = random.Random(87)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[CRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
              for _ in range(cols)] for _ in range(rows)]
        r = rank(m)
        ns = nullspace(m)
        assert len(ns) == cols - r
        for v in ns:
            image = [sum((m[i][j] * v[j] for j in range(cols)), CRational(0))
                     for i in range(rows)]
            assert all(x.is_zero() for x in image)
        _, pivots = oracles.rref(m)
        assert len(pivots) == r


def test_inverse_round_trip():
    rng = random.Random(5150)
    hits = 0
    while hits < 10:
        m = rand_matrix(rng, rng.randint(1, 4))
        if det(m).is_zero():
            continue
        inv = exactla.inverse(m)
        assert exactla.mat_mul(m, inv) == exactla.identity(len(m))
        hits += 1


# -- the worked three-species linearization -------------------------------------------


EX2_NOISE_JAC = [[1, -2, 0], [0, 2, -1], [-1, 0, 1]]


def test_noise_jacobian_char_poly_frozen():
    m = as_matrix(EX2_NOISE_JAC)
    # det(xI - A) = x^3 - 4x^2 + 5x = x (x^2 - 4x + 5), ascending coefficients
    assert char_poly(m) == [CRational(0), CRational(5), CRational(-4), CRational(1)]


def test_noise_jacobian_eigenvalues_with_exact_zero():
    eig = eigenvalues(as_matrix(EX2_NOISE_JAC))
    vals = sorted(eig.values, key=lambda z: (z.real, z.imag))
    assert abs(vals[0]) < 1e-12
    assert abs(vals[1] - (2 - 1j)) < 1e-10
    assert abs(vals[2] - (2 + 1j)) < 1e-10
    # zero root comes from exact stripping, complex pair from rationalization
    assert eig.all_exact()
    zero_witness = eig.exact[[abs(v) < 1e-12 for v in eig.values].index(True)]
    assert zero_witness is not None and zero_witness.is_zero()


def test_corrected_linearization_matrix():
    sys = systems.cyclic_exchange(a=2, b=3)
    data = linearization(sys)
    # A0 = Df(0) - (1/2) Dg(0)^2, entry by entry for a=2, b=3
    expect = [
        [Fraction(3, 2), Fraction(3), Fraction(-1)],
        [Fraction(-1, 2), Fraction(1), Fraction(3, 2)],
        [Fraction(-1), Fraction(-4), Fraction(-1, 2)],
    ]
    for i in range(3):
        for j in range(3):
            assert data.A0[i][j] == CRational(expect[i][j])
    # columns sum to zero: the conserved total forces a zero eigenvalue
    for j in range(3):
        col = sum((data.A0[i][j] for i in range(3)), CRational(0))
        assert col.is_zero()


def test_corrected_matrix_matches_drift_correction_jacobian():
    # A0 must equal the Jacobian at 0 of the Stratonovich-corrected drift
    for sys in (systems.cyclic_exchange(), systems.gbm(), systems.lotka_volterra()):
        data = linearization(sys)
        jac = jacobian_at_origin(stratonovich_drift(sys))
        assert data.A0 == jac


def test_eigenvalue_sum_and_product_invariants():
    rng = random.Random(404)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n)
        eig = eigenvalues(m)
        tr = complex(exactla.trace(m))
        assert abs(sum(eig.values) - tr) < 1e-8 * (1 + abs(tr))
        d = complex(det(m))
        prod = 1 + 0j
        for v in eig.values:
            prod *= v
        assert abs(prod - d) < 1e-8 * (1 + abs(d))


def test_repeated_roots_multiset():
    # (x - 1)^2 (x + 2), ascending: -2 ... expand: (x^2-2x+1)(x+2) = x^3 - 3x + 2
    p = [CRational(2), CRational(-3), CRational(0), CRational(1)]
    eig = roots(p)
    vals = sorted(v.real for v in eig.values)
    assert abs(vals[0] + 2) < 1e-10
    assert abs(vals[1] - 1) < 1e-10 and abs(vals[2] - 1) < 1e-10
    assert eig.all_exact()


def test_near_repeated_roots_certify_an_exact_root_once():
    # eigenvalues 1 and 1 + 10^-13 are distinct: both float roots round to 1,
    # but only one of them may carry the exact witness
    eig = eigenvalues(as_matrix([[1, 1], [0, 1 + Fraction(1, 10 ** 13)]]))
    assert [str(e) if e is not None else None for e in eig.exact] == ["1", None]
    assert not eig.all_exact()
    # the uncertified root is a real float next to 1 + 10^-13, not a complex smear
    assert eig.values[1].imag == 0.0
    assert abs(eig.values[1] - (1 + 1e-13)) < 1e-12


def test_root_finder_failure_is_root_finding_error(monkeypatch):
    from sdefi.cli import main

    def no_convergence(_coeffs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np, "roots", no_convergence)
    with pytest.raises(spectral.RootFindingError, match="did not converge"):
        eigenvalues(as_matrix([[0, 1], [2, 0]]))  # x^2 - 2: no rational root to strip
    assert main(["resonance", "harmonic_oscillator"]) == 3  # exit code of a numeric failure


def test_linearization_requires_vanishing_analytic_drift():
    with pytest.raises(NotApplicableError):
        linearization(systems.two_body())  # Laurent drift: pole at the origin
    names = ("x1",)
    affine = SdeSystem(VField((LaurentPoly(1, {(0,): 1, (1,): 1}),)), (), names)
    with pytest.raises(NotApplicableError):
        linearization(affine)  # f(0) != 0


@pytest.mark.parametrize("g, has_dg, g_zero, g_h2, h1", [
    (("x1^-1 x2", "0"), False, False, False, "unknown"),  # Laurent: a pole at the origin
    (("1", "0"), True, False, False, "holds"),           # constant
    (("x2", "0"), True, True, False, "fails"),           # linear, not commuting with Df
    (("x1 x2", "x2^2"), True, True, True, "holds"),      # quadratic
    (("0", "0"), True, True, True, "holds"),             # zero
])
def test_linearization_flags_each_diffusion_shape(g, has_dg, g_zero, g_h2, h1):
    names = ("x1", "x2")
    drift = VField(tuple(parse_poly_text(t, names) for t in ("x1 + x1 x2", "2 x2 - x1^2")))
    noise = VField(tuple(parse_poly_text(t, names) for t in g))
    data = linearization(SdeSystem(drift, (noise,), names))
    assert data.A_f == as_matrix([[1, 0], [0, 2]])
    # Dg, its spectrum, A0 and lam exist exactly when g is analytic at 0
    assert [x is not None for x in (data.A_g[0], data.mu[0], data.A0, data.lam)] == [has_dg] * 4
    assert data.g_zero_at_origin == (g_zero,) and data.g_higher_order == (g_h2,)
    assert h1_check(data).verdict == h1


def test_linearization_error_names_the_first_drift_pole():
    with pytest.raises(NotApplicableError, match="^component 3 has a pole at the origin$"):
        linearization(systems.two_body())


# -- simultaneous diagonalizability ----------------------------------------------------


def _linear_system(a_rows, g_rows_list):
    n = len(a_rows)
    names = tuple(f"x{i+1}" for i in range(n))

    def field(rows):
        comps = []
        for i in range(n):
            terms = {}
            for j in range(n):
                if rows[i][j]:
                    e = [0] * n
                    e[j] = 1
                    terms[tuple(e)] = Fraction(rows[i][j])
            comps.append(LaurentPoly(n, terms))
        return VField(tuple(comps))

    return SdeSystem(field(a_rows), tuple(field(g) for g in g_rows_list), names)


def coupled_exchange_linear() -> SdeSystem:
    """dX = A x dt + A x dB with A = [[0,1],[1,0]]: commuting, non-diagonal pair."""
    return _linear_system([[0, 1], [1, 0]], [[[0, 1], [1, 0]]])


def test_h1_holds_for_commuting_diagonalizable_pair():
    sys = _linear_system([[1, 0], [0, -2]], [[[3, 0], [0, 5]]])
    assert h1_check(linearization(sys)).verdict == "holds"
    # same non-diagonal matrix twice commutes with itself
    sys2 = coupled_exchange_linear()
    assert h1_check(linearization(sys2)).verdict == "holds"


def test_h1_fails_on_noncommuting_or_nilpotent():
    noncomm = _linear_system([[0, 1], [0, 0]], [])  # nilpotent drift Jacobian
    st = h1_check(linearization(noncomm))
    assert st.verdict == "fails"
    sysc = systems.cyclic_exchange()
    st2 = h1_check(linearization(sysc))
    assert st2.verdict == "fails"
    assert st2.witness  # names the failing commutator or matrix


def test_h1_is_exact_for_near_repeated_and_defective_matrices():
    # distinct eigenvalues 1 and 1 + eps: diagonalizable however small eps is
    for eps in (Fraction(1, 10 ** 9), Fraction(1, 10 ** 13)):
        near = _linear_system([[1, 1], [0, 1 + eps]], [])
        assert h1_check(linearization(near)) == H1Status("holds", None)
    jordan = h1_check(linearization(_linear_system([[1, 1], [0, 1]], [])))
    assert jordan == H1Status("fails", "Df is not diagonalizable")
    assert h1_check(linearization(_linear_system([[2, 0], [0, 2]], []))).verdict == "holds"


def test_commutator_oracle():
    # brute-force [A, B] for the fixture h1 accepts
    a = as_matrix([[1, 0], [0, -2]])
    b = as_matrix([[3, 0], [0, 5]])
    comm = exactla.mat_sub(exactla.mat_mul(a, b), exactla.mat_mul(b, a))
    assert exactla.is_zero_matrix(comm)


# -- aligned spectra for the weak resonance function -----------------------------------


def test_aligned_spectra_diagonal_exact():
    sys = systems.lotka_volterra()  # Df(0) = diag(1, 2), quadratic noise
    data = linearization(sys)
    out = aligned_spectra(data)
    assert out is not None
    lam, mus, exact = out
    assert exact
    got = sorted((complex(e) for e in lam.exact if e is not None),
                 key=lambda z: (z.real, z.imag))
    assert got == [1 + 0j, 2 + 0j]
    for mu in mus:
        assert all(e is not None and e.is_zero() for e in mu.exact)


def test_aligned_spectra_numeric_pairing():
    # A = [[0,1],[1,0]] drives both drift and noise; on a shared eigenvector,
    # corrected eigenvalue lam = mu0 - mu^2/2 must hold pairwise.
    sys = coupled_exchange_linear()
    data = linearization(sys)
    out = aligned_spectra(data)
    assert out is not None
    lam, mus, exact = out
    mu = mus[0]
    for lam_j, mu_j in zip(lam.values, mu.values):
        assert abs(lam_j - (mu_j - 0.5 * mu_j ** 2)) < 1e-8


def test_aligned_spectra_exact_for_commuting_non_diagonal_family():
    # Df = Dg = [[0, 1], [1, 0]]: eigenvalues exactly -1 and 1, eigenvectors (1, -1), (1, 1)
    lam, mus, exact = aligned_spectra(linearization(coupled_exchange_linear()))
    assert exact
    assert lam.exact == (CRational(Fraction(-3, 2)), CRational(Fraction(1, 2)))
    assert mus[0].exact == (CRational(-1), CRational(1))
    assert lam.values == (-1.5 + 0j, 0.5 + 0j)


def test_aligned_spectra_numeric_route_for_irrational_spectra():
    # Df = Dg = [[0, 1], [2, 0]]: eigenvalues +-sqrt(2) carry no exact witness
    data = linearization(_linear_system([[0, 1], [2, 0]], [[[0, 1], [2, 0]]]))
    lam, mus, exact = aligned_spectra(data)
    assert not exact
    r2 = 2 ** 0.5
    assert [round(v.real, 12) for v in mus[0].values] == [round(-r2, 12), round(r2, 12)]
    for lam_j, mu_j in zip(lam.values, mus[0].values):
        assert abs(lam_j - (mu_j - 0.5 * mu_j ** 2)) < 1e-12


def _commuting_family():
    # A = S diag(1, 1, 2) S^-1 repeats 1; B = S diag(3, 5, 5) S^-1 splits it, and A splits B's 5
    s = as_matrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    s_inv = exactla.inverse(s)

    def conj(d):
        diag = as_matrix([[d[i] if i == j else 0 for j in range(3)] for i in range(3)])
        return exactla.mat_mul(exactla.mat_mul(s, diag), s_inv)

    return conj([1, 1, 2]), conj([3, 5, 5])


def test_eigenbasis_exact_oracle_on_commuting_family():
    a, b = _commuting_family()
    assert exactla.mat_mul(a, b) == exactla.mat_mul(b, a)
    assert all(any(not m[i][j].is_zero() for i in range(3) for j in range(3) if i != j)
               for m in (a, b))  # neither is diagonal
    for mats in ([a, b], [b, a]):
        spectra = [eigenvalues(m) for m in mats]
        q, values, exact = eigenbasis(mats, spectra)
        assert exact and rank(q) == 3
        assert values[0] == spectra[0]  # columns follow the first spectrum's order
        for m, vals in zip(mats, values):
            assert vals.all_exact()
            diag = [[vals.exact[i] if i == j else CRational(0) for j in range(3)]
                    for i in range(3)]
            assert exactla.mat_mul(m, q) == exactla.mat_mul(q, diag)
        pairs = {(str(x), str(y)) for x, y in zip(values[0].exact, values[1].exact)}
        want = {("1", "3"), ("1", "5"), ("2", "5")}  # (eigenvalue of A, eigenvalue of B)
        assert pairs == (want if mats[0] is a else {(y, x) for x, y in want})


def test_eigenbasis_single_matrix_columns_are_nullspace_vectors():
    a, _ = _commuting_family()
    eig = eigenvalues(a)
    q, _, exact = eigenbasis([a], [eig])
    assert exact
    want = []
    for lam in dict.fromkeys(eig.exact):
        want += nullspace(exactla.mat_sub(a, exactla.mat_scale(exactla.identity(3), lam)))
    assert q == [[col[i] for col in want] for i in range(3)]


def test_eigenbasis_numeric_route_pairs_the_family():
    a, b = _commuting_family()
    spectra = [eigenvalues(m) for m in (a, b)]
    floats = [Eigenvalues(s.values, (None,) * 3) for s in spectra]
    q, values, exact = eigenbasis([a, b], floats)
    assert not exact
    for m, vals in zip((a, b), values):
        fm = exactla.mat_to_complex(m)
        assert abs(fm @ q - q * np.array(vals.values)).max() < 1e-9
    assert [round(v.real, 9) for v in values[0].values] == [1, 1, 2]


def test_eigenbasis_none_for_defective_or_noncommuting_family():
    jordan = as_matrix([[1, 1], [0, 1]])
    assert eigenbasis([jordan], [eigenvalues(jordan)]) is None
    a, b = as_matrix([[1, 0], [0, 2]]), as_matrix([[1, 1], [0, 2]])
    assert eigenbasis([a, b], [eigenvalues(a), eigenvalues(b)]) is None


def test_report_does_not_repeat_callers_h1_check(monkeypatch):
    # aligned_spectra relies on the H1 check its caller made
    sys = coupled_exchange_linear()
    data = linearization(sys)
    h1 = h1_check(data)
    calls = []

    def counted(d):
        calls.append(d)
        return h1_check(d)

    monkeypatch.setattr(spectral, "h1_check", counted)
    monkeypatch.setattr(resonance, "h1_check", counted)
    rep = resonance.nonintegrability_report(sys, linearized=(data, h1))
    assert rep.weak is not None
    assert calls == []


def test_each_characteristic_polynomial_is_computed_once(monkeypatch):
    # linearization roots the polynomials it stores, and h1_check reuses them
    calls = []

    def counted(m):
        calls.append(len(m))
        return char_poly(m)

    monkeypatch.setattr(exactla, "char_poly", counted)
    data = linearization(systems.cyclic_exchange())
    assert len(calls) == 3  # Df, Dg_1, A0
    assert list(data.char_polys) == ["Df", "Dg_1", "A0"]
    calls.clear()
    h1_check(data)
    assert calls == []
    # without linear noise A0 is Df(0): its polynomial and spectrum are reused
    data = linearization(systems.harmonic_oscillator())
    assert len(calls) == 1 and data.lam is data.mu0
    assert list(data.char_polys) == ["Df", "A0"]
