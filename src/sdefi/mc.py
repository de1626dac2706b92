"""Euler-Maruyama Monte Carlo with conservation tests.

Paths are advanced as X_{k+1} = X_k + f(X_k) h + sum_i g_i(X_k) sqrt(h) xi_k^i
with xi drawn per path from a Philox counter-based stream keyed by
(seed, path_index), so ensembles are bit-reproducible for a fixed config and
independent of chunking or worker count.  Paths stop at the first exit from
a ball of radius R (origin- or x0-centered) and are frozen at the exit state;
nonfinite states (overflow, or a pole hit exactly) drop the path from the
statistics and are counted.

Paths run in chunks of at most _CHUNK.  Each chunk keeps its paths'
generators (a serial run re-keys one chunk's generators for the next) and
draws the noise in step blocks of at most _BLOCK_BYTES, only for paths still
moving, so memory is O(chunk x block) whatever h and T are;
consecutive draws from one stream equal a single draw of the same length, so
the blocking does not change a bit.  The step loop advances a dense array of
the moving paths and writes a path back when it stops.

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
_BLOCK_BYTES = 4 << 20  # noise held per chunk and step block, whatever n_steps is


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
        if not 0 <= self.seed < 2 ** 64:
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
    """Vectorized evaluator (N, n) -> (N, len(v)); real coefficients only.

    Evaluators called on the same x may share one `powers` table, so that
    each coordinate power x_j ** e is computed once for all of them.
    """
    comp_terms = []
    for p in v:
        terms = []
        for e, c in p.terms():
            if not c.is_real():
                raise ValueError("simulation requires real coefficients")
            terms.append((float(c.re), [(j, ej) for j, ej in enumerate(e) if ej]))
        comp_terms.append(terms)

    def evaluate(x: np.ndarray, powers: dict | None = None) -> np.ndarray:
        if powers is None:
            powers = {}
        out = np.zeros((x.shape[0], len(comp_terms)))
        for i, terms in enumerate(comp_terms):
            acc = out[:, i]
            for coeff, factors in terms:
                t = coeff
                for j, ej in factors:
                    pw = powers.get((j, ej))
                    if pw is None:
                        # x ** 1 is x, bit for bit
                        pw = powers[j, ej] = x[:, j] if ej == 1 else x[:, j] ** ej
                    t = t * pw
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


def _path_generators(seed: int, path_indices: np.ndarray,
                     pool: list[np.random.Generator] | None = None) -> list[np.random.Generator]:
    """One Philox stream per path, keyed by (seed, path index).

    Building a Philox also builds and discards an OS-entropy SeedSequence,
    several times the cost of setting a state, so the generators already in
    `pool` are re-keyed instead: the state of a new generator (counter 0,
    empty buffer) gives the same stream.  The pool grows to the number of
    paths; its first generators are returned.
    """
    pool = [] if pool is None else pool
    keys = np.empty((len(path_indices), 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = path_indices
    zero = np.zeros(4, dtype=np.uint64)
    philox = {"counter": zero, "key": None}
    state = {"bit_generator": "Philox", "state": philox, "buffer": zero,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for g, key in zip(pool, keys):
        philox["key"] = key
        g.bit_generator.state = state  # the setter copies every value
    pool.extend(np.random.Generator(np.random.Philox(key=key)) for key in keys[len(pool):])
    return pool[:len(keys)]


def _finite_rows(x: np.ndarray) -> np.ndarray:
    """Rows of a (k, n) array whose entries are all finite, tested column by column."""
    ok = np.isfinite(x[:, 0])
    for j in range(1, x.shape[1]):
        ok &= np.isfinite(x[:, j])
    return ok


def _distance(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Row norms of x - center, equal bit for bit to np.linalg.norm(x - center, axis=1).

    numpy adds fewer than 8 numbers left to right (its pairwise summation
    starts at 8), so narrow states sum their squares column by column in that
    order instead of paying for an axis reduction; wider ones call norm.
    """
    n = x.shape[1]
    if n >= 8:
        return np.linalg.norm(x - center, axis=1)
    d = x[:, 0] - center[0]
    sq = d * d
    for j in range(1, n):
        d = x[:, j] - center[j]
        sq += d * d
    return np.sqrt(sq)


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

    def run_chunk(path_indices: np.ndarray, gens: list | None = None):
        k = len(path_indices)
        x = np.tile(x0, (k, 1))  # a path's state lands here when it stops, and at snapshots
        exited = np.zeros(k, dtype=bool)
        excluded = np.zeros(k, dtype=bool)
        pole = np.zeros(k, dtype=bool)
        exit_time = np.full(k, cfg.t_end)
        traj = np.empty((k, n_snaps, n)) if n_snaps else None
        if traj is not None:
            traj[:, 0, :] = x
        live = np.arange(k)  # chunk rows of the paths still moving, ascending
        xl = x.copy()        # their states, row for row
        if m:
            normals = [g.standard_normal for g in _path_generators(cfg.seed, path_indices, gens)]
            block = max(1, min(n_steps, _BLOCK_BYTES // (8 * m * k)))
            drawn = np.empty((k, block, m))  # a live path's next draws, in stream order
            noise = np.empty((block, m, k))  # the same, contiguous over paths at each step
        zcol = None  # z_block columns of the live paths, once one stopped inside the block

        def drop(stop: np.ndarray, states: np.ndarray):
            """Write the stopping rows of `states` back to x; compact the rest."""
            nonlocal live, zcol
            x[live[stop]] = states[stop]
            keep = ~stop
            live = live[keep]
            if m:
                zcol = np.flatnonzero(keep) if zcol is None else zcol[keep]
            return states[keep]

        done = 0
        with np.errstate(all="ignore"):
            for step in range(n_steps):
                if not live.size:
                    break
                if neg_axes:
                    at_pole = xl[:, neg_axes[0]] == 0.0
                    for j in neg_axes[1:]:
                        at_pole |= xl[:, j] == 0.0
                    if at_pole.any():
                        rows = live[at_pole]
                        excluded[rows] = True
                        pole[rows] = True
                        xl = drop(at_pole, xl)
                        if not live.size:
                            break
                powers = {}
                new_x = xl + cfg.h * drift_fn(xl, powers)
                if m:
                    s = step % block
                    if s == 0:
                        b = min(block, n_steps - step)
                        for r, row in enumerate(live.tolist()):
                            normals[row](out=drawn[r, :b])
                        z_block = noise[:b, :, :live.size]
                        z_block[...] = drawn[:live.size, :b].transpose(1, 2, 0)
                        zcol = None
                    z = z_block[s] if zcol is None else z_block[s][:, zcol]
                    for i, gfn in enumerate(diff_fns):
                        new_x = new_x + sqh * gfn(xl, powers) * z[i][:, None]
                dist = _distance(new_x, center)
                # a nonfinite state has distance nan or inf, so it fails this test too
                if (dist < cfg.R).all():
                    xl = new_x
                else:
                    finite = _finite_rows(new_x)
                    out = finite & (dist >= cfg.R)
                    excluded[live[~finite]] = True
                    rows = live[out]
                    exited[rows] = True
                    exit_time[rows] = (step + 1) * cfg.h
                    xl = drop(out | ~finite, new_x)
                done = step + 1
                if traj is not None and done % cfg.thin == 0:
                    x[live] = xl
                    traj[:, done // cfg.thin, :] = x
        x[live] = xl
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
        gens: list[np.random.Generator] = []  # one chunk's generators, re-keyed for the next
        results = [run_chunk(c, gens) for c in chunks]

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
