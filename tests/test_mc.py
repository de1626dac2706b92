"""Euler-Maruyama ensembles: reproducibility, exits, exclusions, conservation tests."""

import ast
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sdefi import mc, systems
from sdefi.algebra import DimensionMismatch, LaurentPoly, PoleError, VField, parse_poly_text
from sdefi.ito import ConstantCandidateError, SdeSystem
from sdefi.mc import SimConfig, conservation_test, simulate_paths


def _scalar(drift_text, diff_texts=()):
    names = ("x1",)
    drift = VField((parse_poly_text(drift_text, names),))
    diffs = tuple(VField((parse_poly_text(t, names),)) for t in diff_texts)
    return SdeSystem(drift, diffs, names)


X = LaurentPoly.monomial(1, (1,))
X_INV = LaurentPoly.monomial(1, (-1,))


# -- config validation -----------------------------------------------------------------


def test_config_validation():
    good = dict(x0=(1.0,), h=0.1, T=1.0, N=4, seed=0)
    SimConfig(**good)
    SimConfig(**good, R=math.inf)  # no exit
    nan, inf = math.nan, math.inf
    for bad in (dict(h=0.0), dict(T=-1.0), dict(N=0), dict(seed=-1), dict(seed=2 ** 64),
                dict(center="there"), dict(h=inf), dict(h=nan), dict(T=inf), dict(T=nan),
                dict(h=1e-320), dict(x0=(nan,)), dict(x0=(-inf,)), dict(R=0.0), dict(R=-1.0),
                dict(R=nan), dict(max_workers=0), dict(max_workers=3)):
        with pytest.raises(ValueError):
            SimConfig(**{**good, **bad})


def test_config_step_rounding():
    cfg = SimConfig(x0=(1.0,), h=0.3, T=1.0, N=1, seed=0)
    assert cfg.n_steps == 3
    assert cfg.t_end == pytest.approx(0.9)


def test_x0_dimension_checked():
    with pytest.raises(ValueError):
        simulate_paths(systems.gbm(), SimConfig(x0=(1.0, 2.0), h=0.1, T=1.0, N=1, seed=0))


def test_complex_coefficients_are_rejected():
    names = ("x1",)
    sys = SdeSystem(VField((parse_poly_text("x1", names),)),
                    (VField((parse_poly_text("2i x1", names),)),), names)
    with pytest.raises(ValueError, match="real coefficients"):
        simulate_paths(sys, SimConfig(x0=(1.0,), h=0.1, T=1.0, N=1, seed=0))
    ens = simulate_paths(systems.gbm(), SimConfig(x0=(1.0,), h=0.1, T=1.0, N=4, seed=0))
    with pytest.raises(ValueError, match="real coefficients"):
        conservation_test(ens, parse_poly_text("2i x1", names), "weak")


# -- determinism -----------------------------------------------------------------------


def test_frozen_system_conserves_exactly():
    sys = _scalar("0")
    ens = simulate_paths(sys, SimConfig(x0=(2.0,), h=0.1, T=1.0, N=16, seed=1))
    rep = conservation_test(ens, X, "weak")
    assert rep.passed and rep.delta == 0.0
    rep = conservation_test(ens, X, "strong")
    assert rep.passed and rep.max_dev == 0.0


def test_bit_reproducibility_and_seed_sensitivity():
    sys = systems.scalar_martingale()
    cfg = lambda seed: SimConfig(x0=(1.0,), h=1e-2, T=0.2, N=9000, seed=seed)
    a = simulate_paths(sys, cfg(7))
    b = simulate_paths(sys, cfg(7))
    assert np.array_equal(a.final, b.final)
    c = simulate_paths(sys, cfg(8))
    assert not np.array_equal(a.final, c.final)


# -- statistical conservation checks ---------------------------------------------------


def test_martingale_weak_pass():
    ens = simulate_paths(systems.scalar_martingale(),
                         SimConfig(x0=(1.0,), h=1e-2, T=1.0, N=4000, seed=11))
    rep = conservation_test(ens, X, "weak")
    assert rep.passed
    assert rep.delta < rep.threshold
    assert rep.n_used == 4000


def test_gbm_mean_growth_fails_weak():
    # E[X_T] = e^T != X_0, and 3 stderr + bias cannot absorb e - 1
    ens = simulate_paths(systems.gbm(),
                         SimConfig(x0=(1.0,), h=1e-3, T=1.0, N=2000, seed=5))
    rep = conservation_test(ens, X, "weak")
    assert not rep.passed
    assert rep.delta > 1.0


def test_gbm_reciprocal_weak_pass():
    ens = simulate_paths(systems.gbm(),
                         SimConfig(x0=(1.0,), h=1e-3, T=1.0, N=2000, seed=5))
    rep = conservation_test(ens, X_INV, "weak")
    assert rep.passed


def test_euler_bias_halves_with_h():
    # no noise: the radius error of the explicit scheme is O(h), so halving h
    # should halve the deviation (ratio ~ 2)
    sys = systems.harmonic_oscillator()
    phi = parse_poly_text("x1^2 + x2^2", ("x1", "x2"))
    devs = []
    for h in (1e-2, 5e-3):
        ens = simulate_paths(sys, SimConfig(x0=(1.0, 0.0), h=h, T=0.5, N=1, seed=0))
        devs.append(conservation_test(ens, phi, "weak").delta)
    assert 1.8 < devs[0] / devs[1] < 2.2


def test_two_body_momentum_passes_energy_drifts():
    sys = systems.two_body()
    cfg = SimConfig(x0=(1.0, 0.0, 0.0, 1.0), h=1e-3, T=0.5, N=2000, seed=3)
    ens = simulate_paths(sys, cfg)
    assert ens.n_pole == 0 and ens.n_overflow == 0

    rep_m = conservation_test(ens, systems.two_body_momentum(), "weak")
    assert rep_m.passed

    rep_e = conservation_test(ens, systems.two_body_energy(), "weak")
    assert not rep_e.passed
    # the generator adds (sigma_r^2 r^2 + sigma_phi^2)/2 > 0: the drift is upward
    assert rep_e.mean - rep_e.phi0 > 3.0 * rep_e.stderr


def test_strong_mode_uses_pathwise_deviation():
    ens = simulate_paths(systems.scalar_martingale(),
                         SimConfig(x0=(1.0,), h=1e-2, T=1.0, N=500, seed=11))
    rep = conservation_test(ens, X, "strong")
    assert not rep.passed  # individual paths wander even though the mean holds
    assert rep.max_dev > rep.threshold
    with pytest.raises(ValueError):
        conservation_test(ens, X, "sideways")


# -- exits and exclusions --------------------------------------------------------------


def test_exit_radius_freezes_path():
    sys = _scalar("x1")  # X_t = 2 e^t, crosses R = 3 at t = ln 1.5 ~ 0.405
    ens = simulate_paths(sys, SimConfig(x0=(2.0,), h=1e-3, T=1.0, N=1, seed=0, R=3.0))
    assert bool(ens.exited[0])
    assert 0.40 < float(ens.exit_time[0]) < 0.42
    assert 3.0 <= float(ens.final[0, 0]) < 3.1  # frozen at exit, not advanced to e^1


def test_overflow_paths_are_excluded():
    sys = _scalar("x1^3")
    ens = simulate_paths(sys, SimConfig(x0=(10.0,), h=0.1, T=1.0, N=8, seed=0,
                                        R=math.inf))
    assert ens.n_overflow == 8
    assert ens.excluded.all()
    with pytest.raises(PoleError):
        conservation_test(ens, X, "weak")


def test_pole_start_is_excluded():
    sys = _scalar("x1^-1")
    ens = simulate_paths(sys, SimConfig(x0=(0.0,), h=0.1, T=0.5, N=4, seed=0))
    assert ens.n_pole == 4
    assert ens.excluded.all()


def test_candidate_pole_at_x0_is_an_input_error():
    ens = simulate_paths(systems.gbm(), SimConfig(x0=(0.0,), h=0.1, T=0.5, N=4, seed=0))
    with pytest.raises(ValueError, match=r"candidate x1\^-1 has a pole at x0=\(0\.0,\)"):
        conservation_test(ens, X_INV, "weak")


def test_constant_or_misdimensioned_candidate_is_an_input_error():
    ens = simulate_paths(systems.gbm(), SimConfig(x0=(1.0,), h=0.1, T=0.5, N=4, seed=0))
    with pytest.raises(ConstantCandidateError):
        conservation_test(ens, parse_poly_text("3", ("x1",)), "strong")
    with pytest.raises(DimensionMismatch):
        conservation_test(ens, parse_poly_text("x2", ("x1", "x2")), "weak")


def test_final_states_on_a_candidate_pole_are_dropped():
    # phi = x1 + x1^-1 x2^2 + 3 x2^-1 is +-inf or NaN on every row with a zero coordinate
    # (of either sign); only the finite rows enter the statistics
    names = ("x1", "x2")
    phi = parse_poly_text("x1 + x1^-1 x2^2 + 3 x2^-1", names)
    final = np.array([[1.0, 2.0], [0.0, 1.0], [-0.0, 2.0], [0.5, -1.0],
                      [2.0, 0.0], [0.0, 0.0], [np.nan, 1.0], [2.0, 4.0]])
    excluded = np.isnan(final).any(axis=1)
    cfg = SimConfig(x0=(1.0, 1.0), h=0.01, T=1.0, N=len(final), seed=0)
    ens = mc.SimEnsemble(config=cfg, final=final, exit_time=np.ones(len(final)),
                         exited=np.zeros(len(final), dtype=bool), excluded=excluded,
                         n_pole=0, n_overflow=1)
    rep = conservation_test(ens, phi, "weak")
    kept = final[[0, 3, 7]]
    want = kept[:, 0] + kept[:, 1] ** 2 / kept[:, 0] + 3 / kept[:, 1]
    assert (rep.n_used, rep.n_excluded) == (3, 5)
    assert rep.mean == np.mean(want) == (6.5 - 0.5 + 10.75) / 3


def test_excluded_paths_leave_statistics():
    # mix one overflowing path family with a tame one via radius: kept paths only
    sys = systems.scalar_martingale()
    ens = simulate_paths(sys, SimConfig(x0=(1.0,), h=1e-2, T=1.0, N=64, seed=2))
    rep = conservation_test(ens, X, "weak")
    assert rep.n_used + rep.n_excluded == 64


def test_report_dict_shape():
    ens = simulate_paths(systems.gbm(), SimConfig(x0=(1.0,), h=0.1, T=0.5, N=8, seed=0))
    d = conservation_test(ens, X_INV, "weak").to_dict()
    assert {"mode", "passed", "phi0", "mean", "stderr", "delta", "max_dev",
            "threshold", "c_bias", "c_path", "h", "seed"} <= set(d)


# -- the monomial evaluator --------------------------------------------------------------


def _interpreted_fields(fields):
    """The oracle for `mc._compile`: the same arithmetic, interpreted term by term.

    `evaluate(x)` takes x of shape (n, k), one row per coordinate, and returns
    for each field a dict {component: new (k,) row} of the components that
    have terms.  Each call forms each distinct nonconstant monomial once, as
    a left-to-right product of coordinate powers, and each component as a
    fixed-order sum of coefficient x monomial row, the constant term last.
    """
    monomials: dict[tuple, int] = {}  # exponent vector -> index in the monomial table

    def term(e, c):  # (coefficient, monomial index, or None for the constant term)
        return float(c.re), monomials.setdefault(e, len(monomials)) if any(e) else None

    # per field, {component: (first term, later terms)}, the constant term last
    plan = []
    for v in fields:
        comps = {}
        for i, p in enumerate(v):
            terms = [term(e, c) for e, c in sorted(p.terms(), key=lambda t: not any(t[0]))]
            if terms:
                comps[i] = terms[0], terms[1:]
        plan.append(comps)
    factors = [[(j, ej) for j, ej in enumerate(e) if ej] for e in monomials]

    def evaluate(x):
        powers: dict = {}
        table = []
        for fs in factors:
            mon = None
            for j, ej in fs:
                pw = powers.get((j, ej))
                if pw is None:
                    pw = powers[j, ej] = x[j] if ej == 1 else x[j] ** ej
                mon = pw if mon is None else mon * pw
            table.append(mon)
        outs = []
        for comps in plan:
            rows = {}
            for i, ((c0, t0), rest) in comps.items():
                acc = np.full(x.shape[1], c0) if t0 is None else c0 * table[t0]
                for c, t in rest:
                    if t is None:
                        acc += c
                    elif c == 1.0:
                        acc += table[t]
                    elif c == -1.0:
                        acc -= table[t]
                    else:
                        acc += c * table[t]
                rows[i] = acc
            outs.append(rows)
        return outs

    return evaluate


def _random_fields(rng, dim=3, n_fields=3):
    """Real Laurent fields drawn from a small exponent pool, so fields share monomials."""
    pool = [tuple(int(e) for e in rng.integers(-2, 4, dim)) for _ in range(6)]
    pool.append((0,) * dim)  # the constant monomial
    coeffs = [Fraction(1), Fraction(-1), Fraction(-2, 3), Fraction(5, 7), Fraction(3)]
    fields = []
    for f in range(n_fields):
        comps = []
        for i in range(dim):
            if (f + i) % 3 == 2:
                comps.append(LaurentPoly.zero(dim))  # an empty component
                continue
            picks = rng.choice(len(pool), size=int(rng.integers(1, 5)), replace=False)
            comps.append(LaurentPoly(dim, {pool[t]: coeffs[int(rng.integers(len(coeffs)))]
                                           for t in picks}))
        fields.append(VField(tuple(comps)))
    fields.append(VField((LaurentPoly.const(dim, Fraction(7, 3)),) * dim))  # constants only
    return fields


@pytest.mark.parametrize("seed", range(6))
def test_compiled_fields_match_laurent_evaluate(seed):
    # Each component equals LaurentPoly.evaluate to 1e-12 of the sum of its terms'
    # magnitudes (the relative error of a sum without cancellation) and the interpreted
    # oracle byte for byte; an empty component is absent, and every row is a new array.
    rng = np.random.default_rng(seed)
    fields = _random_fields(rng)
    x = rng.uniform(0.3, 3.0, (3, 50)) * rng.choice((-1.0, 1.0), (3, 50))
    outs = mc._compile(fields)(x)
    oracle = _interpreted_fields(fields)(x)
    assert len(outs) == len(fields)
    seen = []
    for v, rows, ref in zip(fields, outs, oracle):
        assert set(rows) == {i for i, p in enumerate(v) if p.terms()} == set(ref)
        for i, row in rows.items():
            assert row.shape == (50,) and row.dtype == np.float64
            assert row.tobytes() == ref[i].tobytes()
            assert not np.shares_memory(row, x) and not any(np.shares_memory(row, r)
                                                            for r in seen)
            seen.append(row)
            for col in range(50):
                point = [complex(c) for c in x[:, col]]
                want = v[i].evaluate(point).real
                scale = sum(abs(LaurentPoly(3, {e: c}).evaluate(point)) for e, c in v[i].terms())
                assert abs(row[col] - want) <= 1e-12 * scale


def test_overflowing_monomial_leaves_other_components_finite():
    names = ("x1", "x2")
    drift = VField((parse_poly_text("x1^400 + x2", names), parse_poly_text("x2 + 1", names)))
    g = VField((LaurentPoly.zero(2), parse_poly_text("x2", names)))
    sys = SdeSystem(drift, (g,), names)
    with np.errstate(over="ignore"):
        drift_rows, g_rows = mc._compile((drift, g))(np.array([[10.0, 0.5],
                                                               [1.0, 2.0]]))
    assert drift_rows[0][0] == math.inf and drift_rows[0][1] == 0.5 ** 400 + 2.0
    assert drift_rows[1].tolist() == [2.0, 3.0] and g_rows[1].tolist() == [1.0, 2.0]
    assert set(g_rows) == {1}
    cfg = SimConfig(x0=(10.0, 1.0), h=0.1, T=0.3, N=5, seed=3, R=math.inf)
    ens = simulate_paths(sys, cfg)
    assert ens.n_overflow == 5 and ens.n_pole == 0 and ens.excluded.all()
    assert (ens.final[:, 0] == math.inf).all() and np.isfinite(ens.final[:, 1]).all()
    _assert_bits_equal(_fields(ens), _reference_paths(sys, cfg))


def test_generated_step_binds_coefficients_not_source_text():
    # Coefficients, h and the center reach the generated step as bound floats equal to
    # float(c.re); the source holds only the emitter's names and int exponents.
    third, tiny, huge = Fraction(1, 3), Fraction(1, 10 ** 300), Fraction(2 ** 1000, 3)
    drift = VField((LaurentPoly(2, {(1, 0): third, (0, 2): tiny}),
                    LaurentPoly(2, {(0, 0): huge, (-1, 1): -third})))
    g = VField((LaurentPoly(2, {(2, -3): huge}), LaurentPoly.zero(2)))
    h, center = 1e-3 / 3, np.array([1 / 3, 0.0])
    src, consts = mc._source((drift, g), h, center)
    coeffs = [float(c.re) for v in (drift, g) for p in v for _, c in p.terms()]
    assert sorted(consts.values()) == sorted(coeffs + [h, center[0]])
    assert all(type(v) is float for v in consts.values())
    for text in ("3333", "e-300", "e+300", "1/3", "/"):
        assert text not in src
    tree = ast.parse(src)
    literals = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert all(type(v) is int for v in literals)
    exponents = [ast.literal_eval(node.right) for node in ast.walk(tree)
                 if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)]
    assert sorted(exponents) == [-3, -1, 2, 2] and all(type(e) is int for e in exponents)
    (func,) = tree.body
    made = {a.arg for a in func.args.args} | {node.id for node in ast.walk(tree)
                                              if isinstance(node, ast.Name)
                                              and isinstance(node.ctx, ast.Store)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert used <= made | set(consts) | {"np"}
    step = mc._compile((drift, g), h, center)
    assert all(step.__globals__[name] == value for name, value in consts.items())


# -- one path at a time: the reference the vectorised step loop must equal bit for bit --


def _reference_paths(sys, cfg):
    """Euler-Maruyama one path at a time, drawing each step's noise from the path's stream.

    Same Philox key (seed, path), same field arithmetic (the interpreted oracle)
    and in-place row adds, same pole, overflow and exit rules as `simulate_paths`,
    but no generated code, chunks, blocks or compaction.
    """
    n, m = sys.dim, sys.noise_dim
    fields = (sys.drift, *sys.diffusions)
    evaluate = _interpreted_fields(fields)
    neg_axes = mc._negative_axes(fields)
    x0 = np.asarray(cfg.x0, dtype=float)[:, None]
    center = np.zeros(n) if cfg.center == "origin" else x0[:, 0].copy()
    sqh = math.sqrt(cfg.h)
    final = np.empty((cfg.N, n))
    exit_time = np.full(cfg.N, cfg.t_end)
    exited = np.zeros(cfg.N, dtype=bool)
    excluded = np.zeros(cfg.N, dtype=bool)
    pole = np.zeros(cfg.N, dtype=bool)
    for p in range(cfg.N):
        gen = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, p], dtype=np.uint64)))
        x = x0.copy()  # state-major: one row per coordinate, one column
        moving = True
        with np.errstate(all="ignore"):
            for step in range(cfg.n_steps):
                if moving and any(x[j, 0] == 0.0 for j in neg_axes):
                    excluded[p] = pole[p] = True
                    moving = False
                if moving:
                    z = gen.standard_normal(m) * sqh
                    drift, *diffs = evaluate(x)
                    for j, row in drift.items():
                        row *= cfg.h
                        x[j] += row
                    for i, g in enumerate(diffs):
                        for j, row in g.items():
                            row *= z[i]
                            x[j] += row
                    if not np.isfinite(x).all():
                        excluded[p] = True
                        moving = False
                    elif np.linalg.norm(x.T - center, axis=1)[0] >= cfg.R:
                        exited[p] = True
                        exit_time[p] = (step + 1) * cfg.h
                        moving = False
        final[p] = x[:, 0]
    n_pole = int(pole.sum())
    return final, exit_time, exited, excluded, n_pole, int(excluded.sum()) - n_pole


def _fields(ens):
    return ens.final, ens.exit_time, ens.exited, ens.excluded, ens.n_pole, ens.n_overflow


def _assert_bits_equal(got, want):
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b


def _pole_midway():
    # x1 lands on 0.0 exactly after the first step (h = 1/2), a pole of the x2 drift
    names = ("x1", "x2")
    drift = VField((parse_poly_text("-2 x1", names), parse_poly_text("x1^-1", names)))
    g = VField((parse_poly_text("x1 - 1", names), parse_poly_text("x2", names)))
    return SdeSystem(drift, (g,), names)


def _ring8():
    # eight coordinates coupled in a ring, one noise on the odd ones, one on all
    names = tuple(f"x{j}" for j in range(1, 9))
    nxt = [names[j % 8] for j in range(1, 9)]
    drift = VField(tuple(parse_poly_text(f"{nxt[j]} - {x} + 1/4 {x} {nxt[j]}", names)
                         for j, x in enumerate(names)))
    g1 = VField(tuple(parse_poly_text(f"1/2 {x}" if j % 2 == 0 else "0", names)
                      for j, x in enumerate(names)))
    g2 = VField(tuple(parse_poly_text(f"1/3 {x}^2 - 1/5 {nxt[j]}", names)
                      for j, x in enumerate(names)))
    return SdeSystem(drift, (g1, g2), names)


REFERENCE_CASES = {
    # m = 0: Euler spirals outward and leaves a ball slightly wider than the circle
    "m0-exit-origin": (systems.harmonic_oscillator,
                       dict(x0=(1.0, 0.0), h=0.05, T=4, N=3, seed=0, R=1.02)),
    "m1-exit-x0": (systems.gbm, dict(x0=(1.0,), h=0.01, T=1, N=23, seed=3, R=0.3,
                                     center="x0")),
    "m2-exit-origin": (systems.gbm_twin_noise, dict(x0=(1.0,), h=0.02, T=2, N=23, seed=4,
                                                    R=3.0)),
    "m2-dim4-exit": (systems.two_body, dict(x0=(1.0, 0.0, 0.0, 1.0), h=0.01, T=3, N=17,
                                            seed=5, R=2.0, center="x0")),
    "m2-no-exit": (systems.lotka_volterra, dict(x0=(0.3, 0.4), h=0.01, T=1, N=19, seed=6)),
    "pole-at-start": (lambda: _scalar("x1^-1"), dict(x0=(0.0,), h=0.1, T=0.5, N=4, seed=0)),
    "pole-midway": (_pole_midway, dict(x0=(1.0, 1.0), h=0.5, T=3, N=9, seed=2,
                                       R=1.2, center="x0")),
    "overflow": (lambda: _scalar("x1^3", ("x1^2",)),
                 dict(x0=(1.0,), h=0.05, T=3.0, N=40, seed=1, R=math.inf)),
    # n = 8: the step's distance is np.add.reduce over each state, not a row-by-row sum
    "m2-dim8-exit-x0": (_ring8, dict(x0=tuple(0.1 * j for j in range(1, 9)), h=0.01, T=2,
                                     N=21, seed=8, R=1.0, center="x0")),
    # most paths exit, several in one step, at many different steps
    "exit-heavy": (systems.cyclic_exchange, dict(x0=(1.0, 1.0, 1.0), h=0.01, T=0.3, N=60,
                                                 seed=9, R=4.0)),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_simulate_paths_equals_one_path_reference(case):
    make, kw = REFERENCE_CASES[case]
    sys, cfg = make(), SimConfig(**kw)
    ens = simulate_paths(sys, cfg)
    _assert_bits_equal(_fields(ens), _reference_paths(sys, cfg))
    if case == "m0-exit-origin":
        assert ens.exited.all()
    if case.startswith("pole"):
        assert ens.n_pole > 0
    if case == "pole-midway":
        assert 0 < ens.exited.sum() < cfg.N
    if case == "overflow":
        assert 0 < ens.n_overflow < cfg.N and ens.exited.any()
    if case == "m2-dim8-exit-x0":
        assert 0 < ens.exited.sum() < cfg.N
    if case == "exit-heavy":
        times, counts = np.unique(ens.exit_time[ens.exited], return_counts=True)
        assert cfg.N // 2 < ens.exited.sum() < cfg.N and len(times) > 10 and counts.max() > 1


@pytest.mark.parametrize("case", ["m1-exit-x0", "m2-exit-origin", "m2-dim4-exit", "pole-midway",
                                  "overflow", "m2-dim8-exit-x0", "exit-heavy"])
@pytest.mark.parametrize("block_steps, tile_steps",
                         [pytest.param(b, t, id=f"{b}" if t == mc._TILE else f"{b}-tile{t}")
                          for t in (mc._TILE, 1, 2) for b in (1, 3)])
def test_chunk_and_block_sizes_do_not_change_bits(monkeypatch, case, block_steps, tile_steps):
    make, kw = REFERENCE_CASES[case]
    sys, cfg = make(), SimConfig(**kw)
    want = _fields(simulate_paths(sys, cfg))
    monkeypatch.setattr(mc, "_CHUNK", 7)
    monkeypatch.setattr(mc, "_TILE", tile_steps)
    # a 7-path chunk gets `block_steps` steps per block, in tiles of at most `tile_steps`
    # (2 does not divide 3); the last, smaller chunk gets more
    tile = min(tile_steps, block_steps)
    monkeypatch.setattr(mc, "_NOISE_BYTES", (block_steps + tile) * 8 * sys.noise_dim * 7)
    assert mc._noise_blocks(7, sys.noise_dim, cfg.n_steps) == (block_steps, tile)
    _assert_bits_equal(_fields(simulate_paths(sys, cfg)), want)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 16, 64, 128])
def test_noise_buffers_fit_the_budget(m):
    # the draw buffer (k, block, m) plus the tile buffer (tile, m, k) hold at most
    # _NOISE_BYTES, and a block is never shorter than the one two equal halves gave
    for k in (1, 2, 7, 100, 1000, 2000, 4095, mc._CHUNK):
        for n_steps in (1, 2, 3, 15, 16, 17, 100, 10 ** 4, 10 ** 6):
            block, tile = mc._noise_blocks(k, m, n_steps)
            assert 1 <= tile <= block <= n_steps
            assert 8 * k * m * (block + tile) <= mc._NOISE_BYTES
            assert block >= min(n_steps, max(1, (4 << 20) // (8 * m * k)))


def test_rekeyed_generators_equal_new_ones():
    # a later chunk re-keys the pooled generators; each must then give the stream of a
    # newly built Philox, also after an odd uint32 draw left half a word buffered
    seed = 2 ** 64 - 5
    pool = []
    first = mc._path_generators(seed, np.arange(5), pool)
    for g in first:
        g.standard_normal(7)
        g.integers(0, 1000, size=3, dtype=np.uint32)
    assert all(g.bit_generator.state["has_uint32"] == 1 for g in first)
    again = mc._path_generators(seed, np.arange(10, 17), pool)
    assert len(pool) == 7 and all(a is b for a, b in zip(again, first))
    for p, g in zip(range(10, 17), again):
        new = np.random.Generator(np.random.Philox(key=np.array([seed, p], dtype=np.uint64)))
        assert g.bit_generator.state["has_uint32"] == 0
        assert g.integers(0, 1000, size=3, dtype=np.uint32).tobytes() == \
            new.integers(0, 1000, size=3, dtype=np.uint32).tobytes()
        assert g.standard_normal(9).tobytes() == new.standard_normal(9).tobytes()


def test_generator_pool_kept_across_calls_gives_reference_bits():
    # a call re-keys the module pool, which a larger call with another seed grew first
    make, kw = REFERENCE_CASES["m2-exit-origin"]
    sys, cfg = make(), SimConfig(**kw)
    simulate_paths(sys, SimConfig(**{**kw, "N": 3 * kw["N"], "seed": kw["seed"] + 1}))
    pool = list(mc._POOL)
    assert len(pool) >= 3 * kw["N"]
    ens = simulate_paths(sys, cfg)
    assert all(a is b for a, b in zip(mc._POOL, pool))
    _assert_bits_equal(_fields(ens), _reference_paths(sys, cfg))


def test_memory_does_not_grow_with_n_steps():
    # Noise is held in at most mc._NOISE_BYTES per chunk, so going from 1000 to 4000
    # steps, both past one block, leaves the peak where it was; a (N, n_steps, m)
    # noise tensor would make it grow about fourfold.
    sys = systems.gbm()
    peaks = []
    for T in (1.0, 4.0):
        cfg = SimConfig(x0=(1.0,), h=1e-3, T=T, N=2000, seed=1)
        assert mc._noise_blocks(cfg.N, sys.noise_dim, cfg.n_steps)[0] < cfg.n_steps
        tracemalloc.start()
        try:
            simulate_paths(sys, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def _sq_distance(x, center):
    """The squared distances a generated step returns; with no fields it leaves x as it is."""
    return mc._compile((), 1.0, center)(x, None)


@pytest.mark.parametrize("n", range(1, 10))
def test_distance_equals_norm(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-200, 200, (500, n))
    x[:4, 0] = [np.nan, np.inf, -np.inf, 1e300]
    center = rng.standard_normal(n)
    with np.errstate(all="ignore"):
        assert np.sqrt(_sq_distance(x.T, center)).tobytes() == \
            np.linalg.norm(x - center, axis=1).tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_distance_from_origin_equals_norm(n):
    # a zero center coordinate is not subtracted: (x - 0) ** 2 is x ** 2, also for -0.0
    rng = np.random.default_rng(n)
    x = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-200, 200, (500, n))
    x[:5, 0] = [np.nan, np.inf, -np.inf, 1e300, -0.0]
    center = np.zeros(n)
    center[1::2] = -0.0
    with np.errstate(all="ignore"):
        assert np.sqrt(_sq_distance(x.T, center)).tobytes() == \
            np.linalg.norm(x - center, axis=1).tobytes()


@pytest.mark.parametrize("R", [1e-300, 0.3, 1.02, 3.0, 1e6, 1e200, math.inf])
def test_squared_exit_test_equals_the_root_test(R):
    r2 = mc._exit_threshold(R)
    sq = [r2, 0.0, math.inf, math.nan, R * R]
    for direction in (0.0, math.inf):
        x = r2
        for _ in range(40):
            x = math.nextafter(x, direction)
            sq.append(x)
    sq = np.array(sq)
    with np.errstate(all="ignore"):
        assert ((sq >= r2) == (np.sqrt(sq) >= R)).all()
    assert math.sqrt(r2) >= R
    assert r2 == math.inf or math.sqrt(math.nextafter(r2, 0.0)) < R
