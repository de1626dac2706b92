"""Euler-Maruyama Monte Carlo with conservation tests.

Paths are advanced as X_{k+1} = X_k + f(X_k) h + sum_i g_i(X_k) sqrt(h) xi_k^i
with xi drawn per path from a Philox counter-based stream keyed by
(seed, path_index), so ensembles are bit-reproducible for a fixed config and
independent of chunking or worker count.  Paths stop at the first exit from
a ball of radius R (origin- or x0-centered) and are frozen at the exit state;
nonfinite states (overflow, or a pole hit exactly) drop the path from the
statistics and are counted.  Only each path's end state is kept.

The drift and diffusions compile into one evaluator, which computes each
coordinate power once per step for all fields.  The ensemble arrays are
allocated once, and paths run in chunks of at most _CHUNK, each advancing
views of its own rows.  Each chunk keeps its paths' generators (a serial run
re-keys one chunk's generators for the next) and draws the noise in step
blocks of at most _BLOCK_BYTES, only for paths still moving, so memory is
O(chunk x block) whatever h and T are; consecutive draws from one stream
equal a single draw of the same length, so the blocking does not change a
bit.  The step loop advances a dense array of the moving paths and writes a
path back when it stops.

Only real-coefficient systems are simulatable; the symbolic layer is the
authority on exactness — this module exists to cross-check it statistically:

* weak test:   |mean Phi(X_end) - Phi(x0)| <= 3 stderr + C_bias h
* strong test: max |Phi(X_end) - Phi(x0)| <= C_path sqrt(h)
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence
from dataclasses import dataclass

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
    max_workers: int = 1

    def __post_init__(self):
        # comparisons with nan are false, so nan fails every check below
        if not (0 < self.h < math.inf and 0 < self.T < math.inf and self.T / self.h < math.inf):
            raise ValueError(f"h and T must be positive and finite, got h={self.h}, T={self.T}")
        if not all(math.isfinite(c) for c in self.x0):
            raise ValueError(f"x0 must be finite, got {self.x0}")
        if not self.R > 0:
            raise ValueError(f"R must be positive (inf: no exit), got {self.R}")
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

    @property
    def n_used(self) -> int:
        return int(np.sum(~self.excluded))


def _compile_fields(fields: Sequence[VField]):
    """One vectorized evaluator x (N, n) -> [(N, len(v)) array for v in fields].

    Real coefficients only.  Each call builds one table of coordinate powers,
    so each x_j ** e is computed once for all the fields.
    """
    if not all(c.is_real() for v in fields for p in v for _, c in p.terms()):
        raise ValueError("simulation requires real coefficients")
    # per field, per component, per term: (coefficient, [(axis, exponent), ...])
    compiled = [[[(float(c.re), [(j, ej) for j, ej in enumerate(e) if ej]) for e, c in p.terms()]
                 for p in v] for v in fields]

    def evaluate(x: np.ndarray) -> list[np.ndarray]:
        powers: dict = {}
        outs = []
        for comp_terms in compiled:
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
            outs.append(out)
        return outs

    return evaluate


def _negative_axes(fields: Sequence[VField]) -> list[int]:
    """Coordinates on which some term of the fields has a negative exponent: their poles."""
    return sorted({j for v in fields for p in v for e, _ in p.terms()
                   for j, ej in enumerate(e) if ej < 0})


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
    fields = (sys.drift, *sys.diffusions)
    evaluate = _compile_fields(fields)
    neg_axes = _negative_axes(fields)
    m = sys.noise_dim
    x0 = np.asarray(cfg.x0, dtype=float)
    center = np.zeros(n) if cfg.center == "origin" else x0.copy()
    n_steps = cfg.n_steps
    sqh = math.sqrt(cfg.h)
    # final state (a path's state lands here when it stops), exit time, exited,
    # excluded, pole: the ensemble arrays, which each chunk fills in its own rows
    arrays = (np.tile(x0, (cfg.N, 1)), np.full(cfg.N, cfg.t_end),
              np.zeros(cfg.N, dtype=bool), np.zeros(cfg.N, dtype=bool),
              np.zeros(cfg.N, dtype=bool))

    def run_chunk(lo: int, gens: list | None = None):
        x, exit_time, exited, excluded, pole = (a[lo:lo + _CHUNK] for a in arrays)
        k = len(x)
        live = np.arange(k)  # chunk rows of the paths still moving, ascending
        xl = x.copy()        # their states, row for row
        if m:
            normals = [g.standard_normal
                       for g in _path_generators(cfg.seed, np.arange(lo, lo + k), gens)]
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
                drift, *diffs = evaluate(xl)
                new_x = xl + cfg.h * drift
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
                    for i, g in enumerate(diffs):
                        new_x = new_x + sqh * g * z[i][:, None]
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
        x[live] = xl

    starts = range(0, cfg.N, _CHUNK)
    if cfg.max_workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=cfg.max_workers) as pool:
            list(pool.map(run_chunk, starts))  # list() re-raises a chunk's exception
    else:
        gens: list[np.random.Generator] = []  # one chunk's generators, re-keyed for the next
        for lo in starts:
            run_chunk(lo, gens)

    final, exit_time, exited, excluded, pole = arrays
    n_pole = int(pole.sum())
    return SimEnsemble(config=cfg, final=final, exit_time=exit_time, exited=exited,
                       excluded=excluded, n_pole=n_pole,
                       n_overflow=int(excluded.sum()) - n_pole)


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
    fields = (VField((phi,)),)
    phi_fn = _compile_fields(fields)
    neg_axes = _negative_axes(fields)
    if any(cfg.x0[j] == 0.0 for j in neg_axes):
        raise ValueError(f"candidate {phi} has a pole at x0={cfg.x0}")
    phi0 = float(phi.evaluate([complex(c) for c in cfg.x0]).real)

    keep = ~ens.excluded
    states = ens.final[keep]
    # candidate's own poles along paths also drop the sample
    if neg_axes and states.size:
        pole_rows = np.zeros(states.shape[0], dtype=bool)
        for j in neg_axes:
            pole_rows |= states[:, j] == 0.0
        states = states[~pole_rows]
    with np.errstate(all="ignore"):
        vals = phi_fn(states)[0][:, 0] if states.size else np.empty(0)
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
