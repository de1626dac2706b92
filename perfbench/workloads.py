"""The four workloads' query sets and the checks on every query's output.

A query is one closed-loop request: the runner calls `fn()`, times it, and
after the pass hands the output to `check`, which returns an error message or
None.  Inputs that depend on the seed (random candidates, identity pairs, MC
ensemble seeds) are drawn from `random.Random(seed)`; systems and search
windows are fixed so that the recorded goldens hold for every seed.

`goldens.json`, written by `record_goldens.py`, maps the label of every
seed-independent query to what `Query.golden` extracts from its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import sdefi.cli as cli
import sdefi.ito as ito
import sdefi.mc as mc
import sdefi.search as search
from sdefi import systems
from sdefi.algebra import LaurentPoly, VField, parse_poly_text, to_text

WORKLOADS = ("search_window", "analyze_cli", "mc_wide", "mc_deep")


@dataclass
class Query:
    """One request.

    `check(output, outputs_by_label, golden)` returns an error message or None;
    `golden(output)` extracts what `record_goldens.py` stores under `label`.
    """

    label: str
    fn: Callable[[], Any]
    check: Callable[[Any, dict, Any], str | None]
    golden: Callable[[Any], Any] | None = None


def _equal_golden(got, want) -> str | None:
    return None if got == want else f"got {got}, golden {want}"


# -- search_window ---------------------------------------------------------------

# (system, mode, dmin, dmax).  Dense elimination in exactla.nullspace is ~80%
# of each search.  Windows are sized so that one pass takes about 2 s of
# scaled time on one core: a run then holds 5 to 10 passes for each query's
# median.
SEARCH_CASES = (
    ("two_body", "weak", -1, 3),
    ("two_body", "strong", -1, 2),
    ("cyclic_exchange", "strong", 1, 3),
    ("cyclic_exchange_published", "weak", 1, 3),
    ("lotka_volterra", "weak", 1, 7),
    ("harmonic_oscillator", "strong", 1, 10),
)


def search_queries(root: Path, seed: int) -> list[Query]:
    out = []
    for name, mode, dmin, dmax in SEARCH_CASES:
        sysm = systems.REGISTRY[name]()

        def fn(sysm=sysm, mode=mode, dmin=dmin, dmax=dmax):
            return search.find_first_integrals(sysm, mode, dmin, dmax)

        def golden(basis, names=sysm.var_names):
            return {"kernel_dim": len(basis.basis),
                    "independence_rank": basis.independence_rank,
                    "basis": [to_text(p, names) for p in basis.basis]}

        out.append(Query(f"search:{name}:{mode}:[{dmin},{dmax}]", fn,
                         lambda basis, _all, want, golden=golden: _equal_golden(golden(basis), want),
                         golden))
    return out


# -- analyze_cli -----------------------------------------------------------------

ANALYZE_SYSTEMS = ("cyclic_exchange", "cyclic_exchange_published", "gbm", "gbm_twin_noise",
                   "harmonic_oscillator", "lotka_volterra", "scalar_martingale", "two_body")
RESONANCE_SYSTEMS = ("harmonic_oscillator", "lotka_volterra", "cyclic_exchange",
                     "cyclic_exchange_published")
PERTURB_SYSTEMS = ("harmonic_oscillator", "lotka_volterra")
# Search window [1, 3] instead of the CLI default [1, 4]: at [1, 4] the two
# cyclic_exchange reports take 80% of a pass (their searches are timed by
# search_window already), which left 2-3 passes per run and too few samples
# for the short queries that set query_p50_s and query_p90_s.
ANALYZE_DMAX = 3

# Fixed candidates, integrals and non-integrals: (system, candidate text).
KNOWN_CANDIDATES = (
    ("gbm", "x1^-1"),
    ("gbm_twin_noise", "x1^-1"),
    ("scalar_martingale", "x1"),
    ("harmonic_oscillator", "x1^2 + x2^2"),
    ("two_body", "r^2 w"),
    ("two_body", "1/2 * r^2 w^2 + 1/2 * v^2 - r^-1"),
    ("cyclic_exchange", "x1 + x2 + x3"),
    ("cyclic_exchange_published", "x1 + x2 + x3"),
    ("lotka_volterra", "x1"),
)

# One integral per system that has one, with its strongest mode.  Any
# polynomial in a strong integral is strong; of a weak-only integral, only
# multiples are certain to stay weak.
KNOWN_INTEGRALS = {
    "gbm": ("x1^-1", "weak"),
    "scalar_martingale": ("x1", "weak"),
    "harmonic_oscillator": ("x1^2 + x2^2", "strong"),
    "two_body": ("r^2 w", "weak"),
    "cyclic_exchange": ("x1 + x2 + x3", "strong"),
}

N_IDENTITY_PAIRS = 36


def _rand_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _rand_laurent(rng: random.Random, dim: int, n_terms: int, lo: int, hi: int) -> LaurentPoly:
    n_terms = min(n_terms, (hi - lo + 1) ** dim)
    terms: dict = {}
    while len(terms) < n_terms:
        terms[tuple(rng.randint(lo, hi) for _ in range(dim))] = _rand_coeff(rng)
    return LaurentPoly(dim, terms)


def _random_candidate(rng: random.Random, name: str, slot: int):
    """(candidate text, expected strong, expected weak); None: no verdict known a priori.

    Slot 0 on a system with a known integral is a random function of it, so
    the verdict is known; every other slot is a random Laurent polynomial.
    """
    sysm = systems.REGISTRY[name]()
    names = sysm.var_names
    known = KNOWN_INTEGRALS.get(name)
    if slot == 0 and known is not None:
        text, mode = known
        base = parse_poly_text(text, names)
        if mode == "strong":
            p = base.scale(_rand_coeff(rng)) + (base * base).scale(_rand_coeff(rng))
            return to_text(p, names), True, True
        return to_text(base.scale(_rand_coeff(rng)), names), False, True
    while True:
        p = _rand_laurent(rng, sysm.dim, 3, -2, 3)
        if not p.is_constant:
            return to_text(p, names), None, None


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_json(output) -> tuple[dict | None, str | None]:
    rc, out, err = output
    if rc != 0:
        return None, f"exit code {rc}: {err.strip()[:200]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as e:
        return None, f"output is not JSON: {e}"


def _verdicts(resonance: dict) -> list | None:
    if not resonance.get("verdicts"):
        return None
    return [[v["code"], v["epistemic_status"]["kind"]] for v in resonance["verdicts"]]


def _compare_verdicts(got: list | None, want: list | None) -> str | None:
    """Same codes in the same order; a status may go bounded -> certified, never back."""
    if got is None or want is None:
        return None if got == want else f"verdicts {got}, golden {want}"
    if [c for c, _ in got] != [c for c, _ in want]:
        return f"verdict codes {[c for c, _ in got]}, golden {[c for c, _ in want]}"
    for (code, kind), (_, want_kind) in zip(got, want):
        if want_kind == "certified" and kind != "certified":
            return f"{code} weakened from certified to {kind}"
    return None


def _cli_query(label: str, argv: list[str], check_report, golden=None) -> Query:
    """A query through `cli.main`; `check_report(report, outputs, want)` sees parsed JSON."""

    def check(output, outputs, want):
        rep, err = _cli_json(output)
        return err or check_report(rep, outputs, want)

    def golden_of_output(output):
        rep, err = _cli_json(output)
        if err:
            raise RuntimeError(f"{label}: {err}")
        return golden(rep)

    return Query(label, lambda: _cli(argv), check, golden_of_output if golden else None)


def _analyze_golden(rep: dict) -> dict:
    return {"verdicts": _verdicts(rep["resonance"]), "search": rep["search"]}


def _check_analyze(rep, _all, want):
    got = _analyze_golden(rep)
    return (_equal_golden(got["search"], want["search"])
            or _compare_verdicts(got["verdicts"], want["verdicts"]))


def _check_resonance(rep, _all, want):
    return _compare_verdicts(_verdicts(rep), want)


def _check_perturb(rep, _all, _want):
    ver = rep["verification"]
    return None if ver["passed"] and not ver["found"] else f"verification failed: {ver}"


def _residuals_match(rep: dict) -> str | None:
    zero = all(text == "0" for text in rep["residuals"].values())
    return None if rep["holds"] == zero else f"holds={rep['holds']} with residuals {rep['residuals']}"


def _check_known(rep, _all, want):
    return _equal_golden(rep["holds"], want) or _residuals_match(rep)


def _check_random(expected: bool | None, strong_label: str | None):
    def check(rep, outputs, _want):
        if expected is not None and rep["holds"] != expected:
            return f"holds={rep['holds']}, expected {expected}"
        if strong_label is not None:
            strong, _ = _cli_json(outputs[strong_label])
            if strong is not None and strong["holds"] and not rep["holds"]:
                return "a strong integral that is not weak"
        return _residuals_match(rep)
    return check


def _check_identity(residual, _all, _want):
    return None if residual.is_zero else f"identity residual is not zero: {residual}"


def analyze_queries(root: Path, seed: int) -> list[Query]:
    rng = random.Random(seed)
    sysfile = lambda name: str(root / "systems" / f"{name}.json")
    out: list[Query] = []
    for name in ANALYZE_SYSTEMS:
        out.append(_cli_query(f"analyze:{name}",
                              ["analyze", sysfile(name), "--dmax", str(ANALYZE_DMAX), "--output", "json"],
                              _check_analyze, _analyze_golden))
    for name in RESONANCE_SYSTEMS:
        out.append(_cli_query(f"resonance:{name}",
                              ["resonance", sysfile(name), "--kbound", "24", "--output", "json"],
                              _check_resonance, _verdicts))
    for name in PERTURB_SYSTEMS:
        out.append(_cli_query(f"perturb:{name}",
                              ["perturb", sysfile(name), "--degree", "6", "--output", "json"],
                              _check_perturb))
    for name, text in KNOWN_CANDIDATES:
        for mode in ("strong", "weak"):
            out.append(_cli_query(
                f"check:{name}:{text}:{mode}",
                [f"check-{mode}", sysfile(name), f"--candidate={text}", "--output", "json"],
                _check_known, lambda rep: rep["holds"]))
    for name in ANALYZE_SYSTEMS:
        for slot in range(2):
            text, want_strong, want_weak = _random_candidate(rng, name, slot)
            base = f"random:{name}:{slot}"
            for mode, expected, strong_label in (("strong", want_strong, None),
                                                 ("weak", want_weak, f"{base}:strong")):
                out.append(_cli_query(
                    f"{base}:{mode}",
                    [f"check-{mode}", sysfile(name), f"--candidate={text}", "--output", "json"],
                    _check_random(expected, strong_label)))
    # Chain-rule identity on random (phi, g).  Sizes follow a fixed schedule so
    # that the work per pass varies little between seeds, and stay small
    # enough (< ~20 ms each) that the eleven slowest queries, which set
    # query_p90_s, are fixed ones; exponents and coefficients are random.
    for i in range(N_IDENTITY_PAIRS):
        dim = 1 + i % 4
        phi_terms, g_terms = (1 + (3 * i) % 8, 2) if dim <= 2 else (1 + (3 * i) % 4, 1)
        phi = _rand_laurent(rng, dim, phi_terms, -2, 4)
        g = VField(tuple(_rand_laurent(rng, dim, g_terms, -2, 4) for _ in range(dim)))
        out.append(Query(f"identity:{i}",
                         lambda phi=phi, g=g: ito.lemma_identity_residual(phi, g),
                         _check_identity))
    return out


# -- mc_wide / mc_deep -------------------------------------------------------------

@dataclass(frozen=True)
class Ensemble:
    system: str
    x0: tuple
    h: float
    T: float
    N: int
    candidates: tuple  # (text, mode, expectation); expectation is "band", "pass" or "reject"


MC_ENSEMBLES = {
    "mc_wide": (
        Ensemble("gbm", (1.0,), 1e-3, 1.0, 20000,
                 (("x1^-1", "weak", "band"), ("x1", "weak", "reject"))),
        Ensemble("two_body", (1.0, 0.0, 0.0, 1.0), 1e-3, 0.5, 10000,
                 (("r^2 w", "weak", "band"),
                  ("1/2 * r^2 w^2 + 1/2 * v^2 - r^-1", "weak", "reject"))),
        Ensemble("cyclic_exchange", (1.0, 1.0, 1.0), 1e-3, 1.0, 10000,
                 (("x1 + x2 + x3", "strong", "pass"),)),
    ),
    "mc_deep": (
        Ensemble("lotka_volterra", (0.3, 0.4), 1e-4, 1.0, 2000,
                 (("x1", "weak", "reject"),)),
        Ensemble("cyclic_exchange", (1.0, 1.0, 1.0), 1e-4, 0.5, 1000,
                 (("x1 + x2 + x3", "strong", "pass"),)),
    ),
}

# A known weak integral must satisfy |mean - phi0| <= 5 stderr + C h, wider than
# the program's own 3 stderr so that a correct program passes for every seed.
BAND_STDERRS = 5.0


def _negative_axes(sysm) -> list[int]:
    """Coordinates on which some drift or diffusion term has a negative exponent."""
    return sorted({j for fld in (sysm.drift, *sysm.diffusions) for p in fld
                   for e, _ in p.terms() for j, ej in enumerate(e) if ej < 0})


def _check_accounting(sysm, cfg, ens) -> str | None:
    """Recount exclusions and exits from the final states themselves.

    A path is excluded for a pole (its last finite state has a zero on a
    coordinate with a negative exponent) or for overflow (a non-finite
    state); an exited path left the ball of radius R, every other path is
    finite and inside it at t_end.
    """
    n, dim = cfg.N, sysm.dim
    final = ens.final
    if final.shape != (n, dim) or not all(a.shape == (n,) for a in (ens.exited, ens.excluded,
                                                                   ens.exit_time)):
        return f"array shapes {final.shape}, {ens.exited.shape}, {ens.excluded.shape} for N={n}"
    finite = np.isfinite(final).all(axis=1)
    at_pole = np.zeros(n, dtype=bool)
    for j in _negative_axes(sysm):
        at_pole |= final[:, j] == 0.0
    pole = finite & at_pole
    excluded = ens.excluded
    if not (finite | excluded).all():
        return f"{int((~finite & ~excluded).sum())} non-finite paths are not excluded"
    if (excluded & ~(pole | ~finite)).any():
        return f"{int((excluded & finite & ~pole).sum())} excluded paths are finite and off every pole"
    if ens.n_pole != int((excluded & pole).sum()) or ens.n_overflow != int((~finite).sum()):
        return (f"n_pole={ens.n_pole}, n_overflow={ens.n_overflow}; final states show "
                f"{int((excluded & pole).sum())} poles and {int((~finite).sum())} overflows")
    if (ens.exited & excluded).any():
        return "a path is both exited and excluded"
    center = np.zeros(dim) if cfg.center == "origin" else np.asarray(cfg.x0, dtype=float)
    with np.errstate(all="ignore"):
        outside = np.linalg.norm(final - center, axis=1) >= cfg.R
    inside_ok = ~ens.exited & ~excluded
    if (ens.exited & ~outside).any() or (inside_ok & outside).any():
        return "exit flags disagree with the final states and R"
    t_exit = ens.exit_time[ens.exited]
    if (t_exit <= 0).any() or (t_exit > cfg.t_end).any() or (ens.exit_time[~ens.exited] != cfg.t_end).any():
        return "exit times outside (0, t_end] or set on paths that did not exit"
    return None


def _mc_check(sysm, cfg):
    def check(output, _all, _want) -> str | None:
        _, reports, ens = output
        err = _check_accounting(sysm, cfg, ens)
        if err:
            return err
        n_kept = int((~ens.excluded).sum())
        for (text, mode, expect), rep in reports:
            if not 0 < rep.n_used <= n_kept:
                return f"{text}: report uses {rep.n_used} paths of {n_kept} kept"
            if expect == "band":
                band = BAND_STDERRS * rep.stderr + rep.c_bias * rep.h
                if not abs(rep.mean - rep.phi0) <= band:
                    return f"{text}: |mean - phi0| = {abs(rep.mean - rep.phi0):.4g} > band {band:.4g}"
            elif expect == "pass" and not rep.passed:
                return f"{text}: {mode} test failed, max_dev {rep.max_dev:.4g}"
            elif expect == "reject" and rep.passed:
                return f"{text}: {mode} test passed for a non-integral"
        return None
    return check


def mc_queries(workload: str, seed: int, clock) -> list[Query]:
    """Output: (info, [(candidate, report)], ensemble); run.py keeps only `info` past the pass."""
    rng = random.Random(seed)
    out = []
    for ens in MC_ENSEMBLES[workload]:
        sysm = systems.REGISTRY[ens.system]()
        cfg = mc.SimConfig(x0=ens.x0, h=ens.h, T=ens.T, N=ens.N, seed=rng.getrandbits(32),
                           max_workers=1)
        cands = [(c, parse_poly_text(c[0], sysm.var_names)) for c in ens.candidates]

        def fn(sysm=sysm, cfg=cfg, cands=cands):
            t0 = clock()
            result = mc.simulate_paths(sysm, cfg)
            simulate_s = clock() - t0
            reports = [(c, mc.conservation_test(result, phi, c[1])) for c, phi in cands]
            info = {
                "N": cfg.N, "path_steps": cfg.N * cfg.n_steps, "simulate_s": simulate_s,
                "final_digest": hashlib.sha256(result.final.tobytes()).hexdigest()[:16],
            }
            return info, reports, result

        out.append(Query(f"mc:{ens.system}:N={ens.N}:h={ens.h:g}:seed={cfg.seed}", fn,
                         _mc_check(sysm, cfg)))
    return out


def build_queries(workload: str, root: Path, seed: int, clock=time.perf_counter) -> list[Query]:
    """`clock` times simulate_paths inside the MC queries."""
    if workload == "search_window":
        return search_queries(root, seed)
    if workload == "analyze_cli":
        return analyze_queries(root, seed)
    return mc_queries(workload, seed, clock)
