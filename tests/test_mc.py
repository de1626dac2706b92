"""Euler-Maruyama ensembles: reproducibility, exits, exclusions, conservation tests."""

import math
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from sdefi import mc, systems
from sdefi.algebra import LaurentPoly, PoleError, VField, parse_poly_text
from sdefi.ito import SdeSystem
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
                dict(R=nan)):
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
    cfg = lambda seed, workers=1: SimConfig(x0=(1.0,), h=1e-2, T=0.2, N=9000,
                                            seed=seed, max_workers=workers)
    a = simulate_paths(sys, cfg(7))
    b = simulate_paths(sys, cfg(7))
    assert np.array_equal(a.final, b.final)
    c = simulate_paths(sys, cfg(8))
    assert not np.array_equal(a.final, c.final)
    # per-path keyed streams: worker count and chunking cannot change the draw
    d = simulate_paths(sys, cfg(7, workers=3))
    assert np.array_equal(a.final, d.final)


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


# -- one path at a time: the reference the vectorised step loop must equal bit for bit --


def _reference_paths(sys, cfg):
    """Euler-Maruyama one path at a time, drawing each step's noise from the path's stream.

    Same Philox key (seed, path), same compiled fields, same pole, overflow
    and exit rules as `simulate_paths`, but no chunks, blocks or compaction.
    """
    n, m = sys.dim, sys.noise_dim
    fields = (sys.drift, *sys.diffusions)
    evaluate = mc._compile_fields(fields)
    neg_axes = mc._negative_axes(fields)
    x0 = np.asarray(cfg.x0, dtype=float)[None, :]
    center = np.zeros(n) if cfg.center == "origin" else x0[0].copy()
    sqh = math.sqrt(cfg.h)
    final = np.empty((cfg.N, n))
    exit_time = np.full(cfg.N, cfg.t_end)
    exited = np.zeros(cfg.N, dtype=bool)
    excluded = np.zeros(cfg.N, dtype=bool)
    pole = np.zeros(cfg.N, dtype=bool)
    for p in range(cfg.N):
        gen = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, p], dtype=np.uint64)))
        x = x0.copy()
        moving = True
        with np.errstate(all="ignore"):
            for step in range(cfg.n_steps):
                if moving and any(x[0, j] == 0.0 for j in neg_axes):
                    excluded[p] = pole[p] = True
                    moving = False
                if moving:
                    z = gen.standard_normal(m)
                    drift, *diffs = evaluate(x)
                    new = x + cfg.h * drift
                    for i, g in enumerate(diffs):
                        new = new + sqh * g * z[i]
                    x = new
                    if not np.isfinite(x).all():
                        excluded[p] = True
                        moving = False
                    elif np.linalg.norm(x - center, axis=1)[0] >= cfg.R:
                        exited[p] = True
                        exit_time[p] = (step + 1) * cfg.h
                        moving = False
        final[p] = x[0]
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


@pytest.mark.parametrize("case", ["m1-exit-x0", "m2-exit-origin", "m2-dim4-exit", "overflow"])
@pytest.mark.parametrize("block_steps", [1, 3])
def test_chunk_and_block_sizes_do_not_change_bits(monkeypatch, case, block_steps):
    make, kw = REFERENCE_CASES[case]
    sys, cfg = make(), SimConfig(**kw)
    want = _fields(simulate_paths(sys, cfg))
    monkeypatch.setattr(mc, "_CHUNK", 7)
    # a 7-path chunk gets `block_steps` steps per block; the last, smaller chunk gets more
    monkeypatch.setattr(mc, "_BLOCK_BYTES", block_steps * 8 * sys.noise_dim * 7)
    _assert_bits_equal(_fields(simulate_paths(sys, cfg)), want)


@pytest.mark.parametrize("case", ["m1-exit-x0", "m2-exit-origin", "m2-dim4-exit", "pole-midway",
                                  "overflow"])
def test_threads_write_the_serial_bits(monkeypatch, case):
    # each worker advances views of its own rows of the shared ensemble arrays; a short
    # switch interval interleaves the three workers (more than the cores) step by step
    make, kw = REFERENCE_CASES[case]
    sys = make()
    want = _fields(simulate_paths(sys, SimConfig(**kw)))
    monkeypatch.setattr(mc, "_CHUNK", 7)
    assert kw["N"] > 7  # more than one chunk, so the thread pool runs
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        got = _fields(simulate_paths(sys, SimConfig(**kw, max_workers=3)))
    finally:
        setswitchinterval(interval)
    _assert_bits_equal(got, want)


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


def test_memory_does_not_grow_with_n_steps():
    # Noise is drawn in step blocks of at most mc._BLOCK_BYTES per chunk, so going
    # from 1000 to 4000 steps, both past one block, leaves the peak where it was; a
    # (N, n_steps, m) noise tensor would make it grow about fourfold.
    sys = systems.gbm()
    peaks = []
    for T in (1.0, 4.0):
        tracemalloc.start()
        try:
            simulate_paths(sys, SimConfig(x0=(1.0,), h=1e-3, T=T, N=1000, seed=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks
    assert mc._BLOCK_BYTES // (8 * sys.noise_dim * 1000) < 1000


@pytest.mark.parametrize("n", range(1, 10))
def test_distance_equals_norm(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-200, 200, (500, n))
    x[:4, 0] = [np.nan, np.inf, -np.inf, 1e300]
    center = rng.standard_normal(n)
    with np.errstate(all="ignore"):
        assert mc._distance(x, center).tobytes() == np.linalg.norm(x - center, axis=1).tobytes()
