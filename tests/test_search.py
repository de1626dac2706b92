"""Monomial windows, exact operator matrices, kernel search, count cross-checks."""

import itertools
import random
from fractions import Fraction

import pytest

from oracles import evaluate_exact
from sdefi import exactla, systems
from sdefi.algebra import (
    CRational, DimensionMismatch, LaurentPoly, VField, dot, gradient, grlex_key, parse_poly_text,
    to_text,
)
from sdefi.ito import SdeSystem, check_strong, check_weak, stratonovich_drift, weak_generator_apply
from sdefi.resonance import nonintegrability_report
from sdefi.search import (
    _RANK_SEED,
    _RANK_TRIALS,
    count_bound_check,
    find_first_integrals,
    independence_rank,
    monomial_basis,
    operator_matrix,
)


def _poly(text, names):
    return parse_poly_text(text, names)


def _to_dense(mat):
    rows, cols = mat.shape
    m = exactla.zeros(rows, cols)
    for (r, c), v in mat.entries.items():
        m[r][c] = v
    return m


# -- monomial windows ------------------------------------------------------------------


def window_oracle(dim, dmin, dmax):
    """Brute-force enumeration of the same window, via itertools.product."""
    pos = max(dmax, 0)
    neg = -min(dmin, 0)
    out = set()
    for e in itertools.product(range(-neg, pos + 1), repeat=dim):
        p = sum(t for t in e if t > 0)
        q = -sum(t for t in e if t < 0)
        if p <= pos and q <= neg and dmin <= sum(e) <= dmax:
            out.add(e)
    return out


def test_monomial_basis_counts():
    b = monomial_basis(2, 0, 2)
    assert len(b) == 6  # 1, x1, x2, x1^2, x1 x2, x2^2
    assert (0, 0) in b.monomials
    assert len(monomial_basis(1, -1, 1)) == 3
    assert monomial_basis(1, -1, 1).monomials == ((-1,), (0,), (1,))
    assert len(monomial_basis(2, 2, 2)) == 3
    assert all(sum(e) == 2 for e in monomial_basis(2, 2, 2).monomials)


def test_monomial_basis_vs_oracle():
    rng = random.Random(7)
    for _ in range(30):
        dim = rng.randint(1, 3)
        dmin = rng.randint(-3, 2)
        dmax = rng.randint(dmin, 4)
        b = monomial_basis(dim, dmin, dmax)
        assert set(b.monomials) == window_oracle(dim, dmin, dmax)
        assert len(set(b.monomials)) == len(b.monomials)
        degs = [sum(e) for e in b.monomials]
        assert degs == sorted(degs)  # graded-lex ascending implies degree-sorted


def test_monomial_basis_excludes_constant_when_window_misses_zero():
    assert (0, 0) not in monomial_basis(2, 1, 3).monomials
    assert (0,) not in monomial_basis(1, -2, -1).monomials


def test_monomial_basis_empty_window_raises():
    with pytest.raises(ValueError):
        monomial_basis(2, 3, 1)


def test_monomial_basis_index():
    b = monomial_basis(2, 0, 2)
    assert b.monomials[b.index((1, 1))] == (1, 1)


# -- operator matrices -----------------------------------------------------------------


def test_gbm_weak_operator_is_diagonal():
    # L x^k = (k + k(k-1)/2) x^k for unit drift and noise rates.
    sys = systems.gbm()
    b = monomial_basis(1, -1, 1)
    mat = operator_matrix(sys, b, "weak")
    assert mat.output_monomials == b.monomials
    expected = {(-1,): 0, (0,): 0, (1,): 1}
    for i, e in enumerate(b.monomials):  # row i and column i are both monomial e
        assert mat.entries.get((i, i), CRational(0)) == CRational(expected[e])
    for (r, c) in mat.entries:
        assert r == c


def test_diagonal_drift_operator_entries():
    # Pure drift diag(1, -2): the monomial x1^l1 x2^l2 is an eigenvector of the
    # transport operator with eigenvalue l1 - 2*l2, for every homogeneous degree.
    names = ("x1", "x2")
    drift = VField((_poly("x1", names), _poly("-2 * x2", names)))
    sys = SdeSystem(drift, (), names)
    for r in range(1, 6):
        b = monomial_basis(2, r, r)
        mat = operator_matrix(sys, b, "strong_drift")
        assert mat.output_monomials == b.monomials
        for (row, col) in mat.entries:
            assert row == col
        for i, (l1, l2) in enumerate(b.monomials):
            assert mat.entries.get((i, i), CRational(0)) == CRational(l1 - 2 * l2)


def test_operator_matrix_dense_roundtrip():
    sys = systems.gbm()
    b = monomial_basis(1, -1, 1)
    mat = operator_matrix(sys, b, "weak")
    dense = _to_dense(mat)
    assert (len(dense), len(dense[0])) == mat.shape
    for (r, c), v in mat.entries.items():
        assert dense[r][c] == v
    assert len(mat.rows) == mat.shape[0]
    assert {(r, c): CRational(a, b) / mat.den
            for r, row in enumerate(mat.rows) for c, (a, b) in row.items()} == mat.entries


def test_operator_matrix_strong_diff_labels_channel():
    sys = systems.gbm_twin_noise()
    b = monomial_basis(1, 1, 1)
    mat = operator_matrix(sys, b, "strong_diff", noise_index=1)
    assert mat.kind == "strong_diff_2"
    with pytest.raises(ValueError):
        operator_matrix(sys, b, "strong_diff", noise_index=5)


def operator_matrix_oracle(sys, basis, kind, noise_index=None):
    """(output_monomials, entries as a list) with the operator applied to each
    basis monomial as a polynomial: one generic image per column."""
    if kind == "weak":
        def op(p):
            return weak_generator_apply(sys, p)
    else:
        field = stratonovich_drift(sys) if kind == "strong_drift" else sys.diffusions[noise_index]

        def op(p):
            return dot(gradient(p), field)
    images = [op(LaurentPoly.monomial(sys.dim, e)) for e in basis.monomials]
    output = tuple(sorted(set(basis.monomials).union(*(dict(img.terms()) for img in images)),
                          key=grlex_key))
    row_of = {e: i for i, e in enumerate(output)}
    return output, [((row_of[e], c), v) for c, img in enumerate(images) for e, v in img.terms()]


def _assert_matches_oracle(sys, basis, label):
    kinds = [("weak", None), ("strong_drift", None)]
    kinds += [("strong_diff", i) for i in range(sys.noise_dim)]
    for kind, i in kinds:
        output, entries = operator_matrix_oracle(sys, basis, kind, i)
        mat = operator_matrix(sys, basis, kind, noise_index=i)
        assert mat.output_monomials == output, (label, kind, i)
        assert list(mat.entries.items()) == entries, (label, kind, i)
        # the rows the kernel reads: nonzero Gaussian-integer numerators over den
        assert type(mat.den) is int and mat.den > 0, (label, kind, i)
        assert len(mat.rows) == len(output), (label, kind, i)
        pairs = [(r, c, a, b) for r, row in enumerate(mat.rows) for c, (a, b) in row.items()]
        assert all(type(a) is int and type(b) is int and (a, b) != (0, 0)
                   for _, _, a, b in pairs), (label, kind, i)
        assert {(r, c): CRational(a, b) / mat.den for r, c, a, b in pairs} == dict(entries), \
            (label, kind, i)


@pytest.mark.parametrize("name", sorted(systems.REGISTRY))
def test_operator_matrix_matches_generic_images_on_builtins(name):
    sys = systems.REGISTRY[name]()
    for dmin, dmax in ((-2, 2), (0, 3), (1, 3)):
        _assert_matches_oracle(sys, monomial_basis(sys.dim, dmin, dmax), (name, dmin, dmax))


def _random_poly(rng, dim):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = tuple(rng.randint(-2, 2) for _ in range(dim))
        terms[e] = CRational(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    return LaurentPoly(dim, terms)


def test_operator_matrix_matches_generic_images_on_random_systems():
    rng = random.Random(2024)
    for case in range(30):
        dim = rng.randint(1, 3)
        names = tuple(f"x{i + 1}" for i in range(dim))
        drift = VField(tuple(_random_poly(rng, dim) for _ in range(dim)))
        noises = tuple(VField(tuple(_random_poly(rng, dim) for _ in range(dim)))
                       for _ in range(rng.randint(0, 2)))
        sys = SdeSystem(drift, noises, names)
        dmin = rng.randint(-2, 1)
        dmax = rng.randint(max(dmin, 0), 2)
        _assert_matches_oracle(sys, monomial_basis(dim, dmin, dmax), case)


def test_operator_matrix_cancelled_column_and_constant_monomial():
    # L x^-1 = -x^-1 + x^-1 = 0 for gbm, and every operator sends 1 to 0
    sys = systems.gbm()
    b = monomial_basis(1, -1, 1)
    mat = operator_matrix(sys, b, "weak")
    assert not any(c in (b.index((-1,)), b.index((0,))) for _, c in mat.entries)
    assert list(mat.entries.items()) == operator_matrix_oracle(sys, b, "weak")[1]


def test_window_far_below_the_image_is_answered():
    # rotation at speed r^6, r = x1^2 + x2^2: the images reach degree 14 from the
    # window [1, 2], and the window still holds the integral r
    names = ("x1", "x2")
    speed = _poly("x1^2 + x2^2", names) ** 6
    sys = SdeSystem(VField((_poly("x2", names) * speed, _poly("-x1", names) * speed)), (), names)
    mat = operator_matrix(sys, monomial_basis(2, 1, 2), "weak")
    assert max(sum(e) for e in mat.output_monomials) == 14
    for mode in ("strong", "weak"):
        res = find_first_integrals(sys, mode, 1, 2)
        assert [to_text(p, names) for p in res.basis] == ["x1^2 + x2^2"]
        assert res.independence_rank == 1


# -- kernel searches on the fixtures ---------------------------------------------------


def test_gbm_weak_search_finds_reciprocal():
    res = find_first_integrals(systems.gbm(), "weak", -1, 1)
    assert len(res) == 1
    assert res.basis[0] == LaurentPoly.monomial(1, (-1,))
    assert res.independence_rank == 1
    assert res.verdicts[0].holds


def test_harmonic_strong_search_finds_radius():
    res = find_first_integrals(systems.harmonic_oscillator(), "strong", 1, 2)
    assert len(res) == 1
    names = ("x1", "x2")
    assert res.basis[0] == _poly("x1^2 + x2^2", names)


def test_cyclic_conservative_strong_search():
    res = find_first_integrals(systems.cyclic_exchange(), "strong", 1, 1)
    assert len(res) == 1
    names = ("x1", "x2", "x3")
    assert res.basis[0] == _poly("x1 + x2 + x3", names)


def test_cyclic_published_strong_search_empty():
    res = find_first_integrals(systems.cyclic_exchange(conservative=False), "strong", 1, 1)
    assert len(res) == 0
    assert res.independence_rank == 0


def test_search_reverifies_and_normalizes():
    for sys, mode, lo, hi in [
        (systems.gbm(), "weak", -1, 1),
        (systems.harmonic_oscillator(), "strong", 1, 2),
        (systems.cyclic_exchange(), "strong", 1, 1),
    ]:
        res = find_first_integrals(sys, mode, lo, hi)
        assert len(res.verdicts) == len(res.basis)
        for p, v in zip(res.basis, res.verdicts):
            assert v.holds and v.mode == mode
            _, lead = p.terms()[-1]  # terms ascend in graded-lex order
            assert lead == CRational(1)


def test_two_body_weak_large_window():
    sys = systems.two_body()
    res = find_first_integrals(sys, "weak", -3, 3)
    assert len(res) == 1 and res.independence_rank == 1
    assert res.basis[0] == _poly("r^2 w", sys.var_names)
    assert all(check_weak(sys, p).holds for p in res.basis)


def test_cyclic_weak_wide_window():
    # 12 kernel vectors over 454 columns
    sys = systems.cyclic_exchange()
    res = find_first_integrals(sys, "weak", 1, 12)
    s = _poly("x1 + x2 + x3", sys.var_names)
    assert list(res.basis) == [s ** d for d in range(1, 13)]
    assert res.independence_rank == 1


def test_strong_search_computes_the_stratonovich_drift_once_per_call(monkeypatch):
    from sdefi import ito, search

    calls = []
    drift = ito.stratonovich_drift

    def counted(sys):
        calls.append(sys)
        return drift(sys)

    monkeypatch.setattr(ito, "stratonovich_drift", counted)
    monkeypatch.setattr(search, "stratonovich_drift", counted)
    sys = systems.cyclic_exchange()
    for n in (1, 2):
        res = find_first_integrals(sys, "strong", 1, 3)
        assert len(res) == 3 and len(calls) == n


def test_cyclic_strong_large_window():
    sys = systems.cyclic_exchange()
    res = find_first_integrals(sys, "strong", 1, 6)
    assert len(res) == 6 and res.independence_rank == 1
    assert all(check_strong(sys, p).holds for p in res.basis)


def test_constants_are_quotiented_out():
    # the window includes the constant monomial, but no basis element is constant
    res = find_first_integrals(systems.harmonic_oscillator(), "strong", 0, 2)
    assert len(res) == 1
    assert not res.basis[0].is_constant


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        find_first_integrals(systems.gbm(), "both", 1, 2)


# -- functional independence -----------------------------------------------------------


def test_independence_rank():
    names = ("x1", "x2")
    s = _poly("x1 + x2", names)
    assert independence_rank([s, s * s]) == 1
    assert independence_rank([_poly("x1", names), _poly("x2", names)]) == 2
    assert independence_rank([]) == 0


def test_independence_rank_is_exact():
    # Gradients (1, 0) and (1, 1e-12): independent, though an SVD cutoff
    # of 1e-8 relative to the largest singular value calls them rank 1.
    names = ("x1", "x2")
    tiny = LaurentPoly(2, {(0, 1): CRational(Fraction(1, 10 ** 12))})
    x1 = _poly("x1", names)
    assert independence_rank([x1, x1 + tiny]) == 2


def test_independence_rank_handles_laurent():
    names = ("x1", "x2")
    assert independence_rank([_poly("x1^-1", names), _poly("x2", names)]) == 2
    with pytest.raises(DimensionMismatch):
        independence_rank([_poly("x1", names), LaurentPoly.variable(3, 2)])


def _rank_oracle(polys):
    """independence_rank by evaluating the k * n gradient polynomials at the same points."""
    polys = list(polys)
    if not polys:
        return 0
    dim = polys[0].dim
    grads = [[p.differentiate(j) for j in range(dim)] for p in polys]
    rng = random.Random(_RANK_SEED)
    best = 0
    for _ in range(_RANK_TRIALS):
        point = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(dim)]
        powers: dict = {}
        jac = [[evaluate_exact(g, point, powers) for g in row] for row in grads]
        best = max(best, exactla.rank(jac))
        if best == min(len(polys), dim):
            break
    return best


def test_independence_rank_matches_gradient_evaluation():
    rng = random.Random(31)
    ranks = set()
    for _ in range(60):
        dim = rng.randint(1, 4)
        polys = [_random_poly(rng, dim) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:  # rank-deficient: powers and multiples of one integral
            base = polys[0]
            polys += [base ** rng.randint(2, 3), base.scale(CRational(Fraction(2, 3), 1))]
            rng.shuffle(polys)
        want = _rank_oracle(polys)
        assert independence_rank(polys) == want
        ranks.add(want)
    assert ranks == {0, 1, 2, 3, 4}


# -- count bound cross-check -----------------------------------------------------------


def test_count_bound_lotka_volterra_certified():
    sys = systems.lotka_volterra()
    rep = nonintegrability_report(sys)
    basis = find_first_integrals(sys, "strong", 1, 4)
    cb = count_bound_check(basis, rep)
    assert cb.rank == 0
    assert cb.s_min == 0
    assert cb.consistent and cb.certified
    assert cb.note == "consistent"


def test_count_bound_cyclic_bounded():
    sys = systems.cyclic_exchange()
    rep = nonintegrability_report(sys)
    basis = find_first_integrals(sys, "strong", 1, 1)
    cb = count_bound_check(basis, rep)
    assert cb.rank == 1
    assert cb.s_min == 1
    assert cb.consistent
    assert not cb.certified  # zero eigenvalue blocks the half-plane argument
    assert "K-bounded" in cb.note


def test_count_bound_requires_strong_side_report():
    names = ("x1",)
    sys = SdeSystem(VField((_poly("x1", names),)),
                    (VField((LaurentPoly.monomial(1, (0,)),)),), names)
    rep = nonintegrability_report(sys)
    assert rep.s_min is None
    basis = find_first_integrals(systems.gbm(), "weak", -1, 1)
    with pytest.raises(ValueError):
        count_bound_check(basis, rep)


def test_count_bound_dict_shape():
    sys = systems.lotka_volterra()
    rep = nonintegrability_report(sys)
    cb = count_bound_check(find_first_integrals(sys, "strong", 1, 2), rep)
    d = cb.to_dict()
    assert set(d) == {"rank", "s_min", "consistent", "certified", "note"}


def test_count_bound_compares_only_polynomial_elements():
    # s_min bounds analytic integrals; Laurent elements of a basis are rational ones
    names = ("x1", "x2")

    def ode(*texts):
        return SdeSystem(VField(tuple(_poly(t, names) for t in texts)), (), names)

    node = ode("x1", "x2")  # spectrum {1, 1}: no nonnegative resonance, s_min = 0 certified
    basis = find_first_integrals(node, "strong", -1, 1)
    assert [to_text(p, names) for p in basis.basis] == ["x1^-1 x2", "x1 x2^-1"]
    assert basis.independence_rank == 1
    cb = count_bound_check(basis, nonintegrability_report(node))
    assert (cb.rank, cb.s_min, cb.consistent, cb.certified) == (0, 0, True, True)
    assert cb.note.startswith("consistent; rank counts only the 0 polynomial of the 2 elements")
    saddle = ode("x1", "-1 * x2")  # spectrum {1, -1}: x1 x2 and x1^-1 x2^-1
    basis = find_first_integrals(saddle, "strong", -2, 2)
    assert len(basis) == 2
    cb = count_bound_check(basis, nonintegrability_report(saddle))
    assert (cb.rank, cb.s_min, cb.consistent) == (1, 1, True)
    assert "only the 1 polynomial of the 2 elements" in cb.note
