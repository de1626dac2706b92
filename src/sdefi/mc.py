"""Euler-Maruyama Monte Carlo with conservation tests.

Paths are advanced as X_{k+1} = X_k + f(X_k) h + sum_i g_i(X_k) sqrt(h) xi_k^i
with xi drawn per path from a Philox counter-based stream keyed by
(seed, path_index), so ensembles are bit-reproducible for a fixed config and
independent of chunking or worker count.  Paths stop at the first exit from
a ball of radius R (origin- or x0-centered) and are frozen at the exit state;
nonfinite states (overflow, or a pole hit exactly) drop the path from the
statistics and are counted.

Only real-coefficient systems are simulatable; the symbolic layer is the
authority on exactness — this module exists to cross-check it statistically:

* weak test:   |mean Phi(X_end) - Phi(x0)| <= 3 stderr + C_bias h
* strong test: max |Phi(X_end) - Phi(x0)| <= C_path sqrt(h)
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .algebra import LaurentPoly, PoleError, VField
from .ito import SdeSystem

_CHUNK = 4096


@dataclass(frozen=True)
class SimConfig:
    x0: tuple[float, ...]
    h: float
    T: float
    N: int
    seed: int
    R: float = 1e6
    center: str = "origin"  # or "x0"
    thin: int = 0           # store every `thin`-th state (0: finals only)
    max_workers: int = 1

    def __post_init__(self):
        if self.h <= 0 or self.T <= 0:
            raise ValueError("h and T must be positive")
        if self.N < 1:
            raise ValueError("need at least one path")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative 64-bit integer")
        if self.center not in ("origin", "x0"):
            raise ValueError("center must be 'origin' or 'x0'")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.T / self.h)))

    @property
    def t_end(self) -> float:
        return self.n_steps * self.h


@dataclass
class SimEnsemble:
    config: SimConfig
    final: np.ndarray          # (N, n) state at T or at exit
    exit_time: np.ndarray      # (N,)
    exited: np.ndarray         # (N,) bool
    excluded: np.ndarray       # (N,) bool: overflow/pole, dropped from statistics
    n_pole: int
    n_overflow: int
    trajectories: np.ndarray | None = None   # (N, snapshots, n) when thinning
    snapshot_times: np.ndarray | None = None

    @property
    def n_used(self) -> int:
        return int(np.sum(~self.excluded))


def _compile_vfield(v: VField):
    """Vectorized evaluator (N, n) -> (N, len(v)); real coefficients only."""
    n = v.dim
    comp_terms = []
    for p in v:
        terms = []
        for e, c in p.terms():
            if not c.is_real():
                raise ValueError("simulation requires real coefficients")
            terms.append((float(c.re), e))
        comp_terms.append(terms)

    def evaluate(x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[0], len(comp_terms)))
        for i, terms in enumerate(comp_terms):
            acc = out[:, i]
            for coeff, exps in terms:
                t = np.full(x.shape[0], coeff)
                for j, ej in enumerate(exps):
                    if ej:
                        t = t * x[:, j] ** ej
                acc += t
        return out

    return evaluate


def _negative_axes(sys: SdeSystem) -> list[int]:
    axes: set[int] = set()
    for fld in (sys.drift, *sys.diffusions):
        for p in fld:
            for e, _ in p.terms():
                axes.update(j for j, ej in enumerate(e) if ej < 0)
    return sorted(axes)


def _path_noise(seed: int, path_indices: np.ndarray, n_steps: int, m: int) -> np.ndarray:
    out = np.empty((len(path_indices), n_steps, m))
    for row, pidx in enumerate(path_indices):
        key = np.array([seed, int(pidx)], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        out[row] = gen.standard_normal((n_steps, m))
    return out


def simulate_paths(sys: SdeSystem, cfg: SimConfig) -> SimEnsemble:
    """Run the full ensemble; deterministic for a fixed config."""
    n = sys.dim
    if len(cfg.x0) != n:
        raise ValueError(f"x0 has {len(cfg.x0)} coords for a dim-{n} system")
    drift_fn = _compile_vfield(sys.drift)
    diff_fns = [_compile_vfield(g) for g in sys.diffusions]
    neg_axes = _negative_axes(sys)
    m = sys.noise_dim
    x0 = np.asarray(cfg.x0, dtype=float)
    center = np.zeros(n) if cfg.center == "origin" else x0.copy()
    n_steps = cfg.n_steps
    sqh = math.sqrt(cfg.h)
    n_snaps = n_steps // cfg.thin + 1 if cfg.thin > 0 else 0

    def run_chunk(path_indices: np.ndarray):
        k = len(path_indices)
        x = np.tile(x0, (k, 1))
        alive = np.ones(k, dtype=bool)
        exited = np.zeros(k, dtype=bool)
        excluded = np.zeros(k, dtype=bool)
        pole = np.zeros(k, dtype=bool)
        exit_time = np.full(k, cfg.t_end)
        z = _path_noise(cfg.seed, path_indices, n_steps, m) if m else None
        traj = np.empty((k, n_snaps, n)) if n_snaps else None
        if traj is not None:
            traj[:, 0, :] = x
        done = 0
        for step in range(n_steps):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            xa = x[idx]
            if neg_axes:
                at_pole = np.zeros(idx.size, dtype=bool)
                for j in neg_axes:
                    at_pole |= xa[:, j] == 0.0
                if at_pole.any():
                    rows = idx[at_pole]
                    excluded[rows] = True
                    pole[rows] = True
                    alive[rows] = False
                    idx = idx[~at_pole]
                    if idx.size == 0:
                        break
                    xa = x[idx]
            with np.errstate(all="ignore"):
                new_x = xa + cfg.h * drift_fn(xa)
                for i, gfn in enumerate(diff_fns):
                    new_x = new_x + sqh * gfn(xa) * z[idx, step, i][:, None]
            bad = ~np.isfinite(new_x).all(axis=1)
            x[idx] = new_x
            if bad.any():
                rows = idx[bad]
                excluded[rows] = True
                alive[rows] = False
            good = idx[~bad]
            if good.size:
                with np.errstate(all="ignore"):
                    out = np.linalg.norm(x[good] - center, axis=1) >= cfg.R
                if out.any():
                    rows = good[out]
                    exited[rows] = True
                    exit_time[rows] = (step + 1) * cfg.h
                    alive[rows] = False
            done = step + 1
            if traj is not None and done % cfg.thin == 0:
                traj[:, done // cfg.thin, :] = x
        if traj is not None:
            # if every path stopped before T, the snapshots not reached hold the frozen states
            traj[:, done // cfg.thin + 1:, :] = x[:, None, :]
        n_over = int(excluded.sum() - pole.sum())
        return x, exit_time, exited, excluded, int(pole.sum()), n_over, traj

    chunks = [np.arange(lo, min(lo + _CHUNK, cfg.N)) for lo in range(0, cfg.N, _CHUNK)]
    if cfg.max_workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=cfg.max_workers) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(c) for c in chunks]

    final = np.concatenate([r[0] for r in results])
    exit_time = np.concatenate([r[1] for r in results])
    exited = np.concatenate([r[2] for r in results])
    excluded = np.concatenate([r[3] for r in results])
    n_pole = sum(r[4] for r in results)
    n_overflow = sum(r[5] for r in results)
    traj = np.concatenate([r[6] for r in results]) if n_snaps else None
    times = np.array([j * cfg.thin * cfg.h for j in range(n_snaps)]) if n_snaps else None
    return SimEnsemble(config=cfg, final=final, exit_time=exit_time, exited=exited,
                       excluded=excluded, n_pole=n_pole, n_overflow=n_overflow,
                       trajectories=traj, snapshot_times=times)


@dataclass(frozen=True)
class ConservationReport:
    mode: str
    passed: bool
    phi0: float
    n_paths: int
    n_used: int
    n_excluded: int
    mean: float
    stderr: float
    delta: float
    max_dev: float
    threshold: float
    c_bias: float | None
    c_path: float | None
    h: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "passed": self.passed, "phi0": self.phi0,
            "n_paths": self.n_paths, "n_used": self.n_used, "n_excluded": self.n_excluded,
            "mean": self.mean, "stderr": self.stderr, "delta": self.delta,
            "max_dev": self.max_dev, "threshold": self.threshold,
            "c_bias": self.c_bias, "c_path": self.c_path, "h": self.h, "seed": self.seed,
        }


def conservation_test(ens: SimEnsemble, phi: LaurentPoly, mode: str,
                      c_bias: float | None = None,
                      c_path: float | None = None) -> ConservationReport:
    """Statistical conservation check of a candidate along a simulated ensemble."""
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = ens.config
    phi_fn = _compile_vfield(VField((phi,)))
    phi0 = float(phi.evaluate([complex(c) for c in cfg.x0]).real)

    keep = ~ens.excluded
    states = ens.final[keep]
    # candidate's own poles along paths also drop the sample
    neg_axes = sorted({j for e, _ in phi.terms() for j, ej in enumerate(e) if ej < 0})
    if neg_axes and states.size:
        pole_rows = np.zeros(states.shape[0], dtype=bool)
        for j in neg_axes:
            pole_rows |= states[:, j] == 0.0
        states = states[~pole_rows]
    with np.errstate(all="ignore"):
        vals = phi_fn(states)[:, 0] if states.size else np.empty(0)
    finite = np.isfinite(vals)
    vals = vals[finite]
    n_used = int(vals.size)
    n_excluded = cfg.N - n_used
    if n_used == 0:
        raise PoleError("no usable paths: every sample overflowed or hit a pole")

    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_used)) if n_used > 1 else float("inf")
    delta = abs(mean - phi0)
    max_dev = float(np.max(np.abs(vals - phi0)))
    if mode == "weak":
        cb = 10.0 * abs(phi0) if c_bias is None else c_bias
        threshold = 3.0 * stderr + cb * cfg.h
        passed = delta <= threshold
        cp = None
    else:
        cp = 10.0 * abs(phi0) + 1.0 if c_path is None else c_path
        threshold = cp * math.sqrt(cfg.h)
        passed = max_dev <= threshold
        cb = None
    return ConservationReport(mode=mode, passed=passed, phi0=phi0, n_paths=cfg.N,
                              n_used=n_used, n_excluded=n_excluded, mean=mean,
                              stderr=stderr, delta=delta, max_dev=max_dev,
                              threshold=threshold, c_bias=cb, c_path=cp,
                              h=cfg.h, seed=cfg.seed)
