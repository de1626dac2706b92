"""Euler-Maruyama Monte Carlo with conservation tests.

Paths are advanced as X_{k+1} = X_k + f(X_k) h + sum_i g_i(X_k) sqrt(h) xi_k^i
with xi drawn per path from a Philox counter-based stream keyed by
(seed, path_index), so ensembles are bit-reproducible for a fixed config and
independent of chunking.  Paths stop at the first exit from a ball of radius
R (origin- or x0-centered) and are frozen at the exit state; nonfinite
states (overflow, or a pole hit exactly) drop the path from the statistics
and are counted.  Only each path's end state is kept.

The drift and diffusions compile into one evaluator.  Each step forms each
distinct monomial of all the fields once, as a row over the moving paths,
and each field component with terms as a fixed-order sum of coefficient x
monomial row; components without terms are skipped.  The moving paths'
states are held state-major, one contiguous row per coordinate, and each
step adds the component rows into them in place: h f_j, then sqrt(h) xi^i
g_ij for each noise i in turn.  Only elementwise operations are used, so a
path's bits do not depend on the chunk size, the block size or its position
in a chunk.  The ensemble arrays are allocated once, and paths run in chunks
of at most _CHUNK, each writing its own rows; a path is written back when it
stops.  Each chunk keeps its paths' generators and draws the noise in step
blocks of at most _BLOCK_BYTES, only for paths still moving, so memory is
O(chunk x block) whatever h and T are; consecutive draws from one stream
equal a single draw of the same length, so the blocking does not change a
bit.  Building a Philox generator costs several times re-keying one, so
every run re-keys one module pool of generators, kept across calls.

Only real-coefficient systems are simulatable; the symbolic layer is the
authority on exactness — this module exists to cross-check it statistically:

* weak test:   |mean Phi(X_end) - Phi(x0)| <= 3 stderr + C_bias h
* strong test: max |Phi(X_end) - Phi(x0)| <= C_path sqrt(h)
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from .algebra import LaurentPoly, PoleError, VField
from .ito import SdeSystem, require_candidate

_CHUNK = 4096
_BLOCK_BYTES = 4 << 20  # noise held per chunk and step block, whatever n_steps is
_POOL: list[np.random.Generator] = []  # Philox generators, re-keyed by every run


@dataclass(frozen=True)
class SimConfig:
    x0: tuple[float, ...]
    h: float
    T: float
    N: int
    seed: int
    R: float = 1e6
    center: str = "origin"  # or "x0"
    max_workers: int = 1  # must be 1; goes with the next benchmark change (ROADMAP item 2)

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
        if self.max_workers != 1:
            raise ValueError(f"max_workers must be 1 (one thread), not {self.max_workers!r}")

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
    """One vectorized evaluator of real fields at k states held state-major.

    `evaluate(x)` takes x of shape (n, k), one row per coordinate, and returns
    for each field a dict {component: (k,) row} of the components that have
    terms; a component without terms is absent, not a row of zeros.  Each call
    forms each distinct nonconstant monomial of all the fields once, as a
    product of coordinate powers, and each component as a fixed-order sum of
    coefficient x monomial row.  Every returned row is a new array, which the
    caller may update in place.  Only elementwise operations are used, so a
    state's value does not depend on k or on its position.
    """
    if not all(c.is_real() for v in fields for p in v for _, c in p.terms()):
        raise ValueError("simulation requires real coefficients")
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

    def evaluate(x: np.ndarray) -> list[dict[int, np.ndarray]]:
        powers: dict = {}
        table = []
        for fs in factors:
            mon = None
            for j, ej in fs:
                pw = powers.get((j, ej))
                if pw is None:
                    # x ** 1 is x, bit for bit
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
                    elif c == 1.0:  # acc + 1 * m is acc + m, bit for bit
                        acc += table[t]
                    elif c == -1.0:  # and acc + (-1 * m) is acc - m
                        acc -= table[t]
                    else:
                        acc += c * table[t]
                rows[i] = acc
            outs.append(rows)
        return outs

    return evaluate


def _negative_axes(fields: Sequence[VField]) -> list[int]:
    """Coordinates on which some term of the fields has a negative exponent: their poles."""
    return sorted({j for v in fields for p in v for e, _ in p.terms()
                   for j, ej in enumerate(e) if ej < 0})


def _path_generators(seed: int, path_indices: np.ndarray,
                     pool: list[np.random.Generator] = _POOL) -> list[np.random.Generator]:
    """One Philox stream per path, keyed by (seed, path index).

    Building a Philox also builds and discards an OS-entropy SeedSequence,
    several times the cost of setting a state, so the generators already in
    `pool` are re-keyed instead: the state of a new generator (counter 0,
    empty buffer) gives the same stream.  The pool grows to the number of
    paths; its first generators are returned.
    """
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


def _distance(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Distances of the state-major x (n, k) from center, one per state.

    Equal bit for bit to np.linalg.norm(x.T - center, axis=1): numpy adds
    fewer than 8 numbers left to right (its pairwise summation starts at 8),
    so narrow states sum their squares row by row in that order instead of
    paying for an axis reduction; wider ones call norm.
    """
    n = x.shape[0]
    if n >= 8:
        return np.linalg.norm(x.T - center, axis=1)
    sq = None
    for j in range(n):
        d = x[j] - center[j] if center[j] else x[j]  # (x - 0) ** 2 is x ** 2, bit for bit
        if sq is None:
            sq = d * d
        else:
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
    h = cfg.h
    sqh = math.sqrt(h)
    # final state (a path's state lands here when it stops), exit time, exited,
    # excluded, pole: the ensemble arrays, which each chunk fills in its own rows
    arrays = (np.tile(x0, (cfg.N, 1)), np.full(cfg.N, cfg.t_end),
              np.zeros(cfg.N, dtype=bool), np.zeros(cfg.N, dtype=bool),
              np.zeros(cfg.N, dtype=bool))

    def run_chunk(lo: int):
        x, exit_time, exited, excluded, pole = (a[lo:lo + _CHUNK] for a in arrays)
        k = len(x)
        live = np.arange(k)  # chunk rows of the paths still moving, ascending
        xl = x.T.copy()      # their states, state-major: one row per coordinate
        if m:
            normals = [g.standard_normal
                       for g in _path_generators(cfg.seed, np.arange(lo, lo + k))]
            block = max(1, min(n_steps, _BLOCK_BYTES // (8 * m * k)))
            drawn = np.empty((k, block, m))  # a live path's next draws, in stream order
            noise = np.empty((block, m, k))  # sqrt(h) times the same, contiguous over paths
        zcol = None  # z_block columns of the live paths, once one stopped inside the block

        def drop(stop: np.ndarray, states: np.ndarray):
            """Write the stopping columns of `states` back to x; compact the rest."""
            nonlocal live, zcol
            x[live[stop]] = states[:, stop].T
            keep = ~stop
            live = live[keep]
            if m:
                zcol = np.flatnonzero(keep) if zcol is None else zcol[keep]
            return states[:, keep]

        with np.errstate(all="ignore"):
            for step in range(n_steps):
                if not live.size:
                    break
                if neg_axes:
                    at_pole = xl[neg_axes[0]] == 0.0
                    for j in neg_axes[1:]:
                        at_pole |= xl[j] == 0.0
                    if at_pole.any():
                        rows = live[at_pole]
                        excluded[rows] = True
                        pole[rows] = True
                        xl = drop(at_pole, xl)
                        if not live.size:
                            break
                # every row is evaluated before xl is advanced in place
                drift, *diffs = evaluate(xl)
                for j, row in drift.items():
                    row *= h
                    xl[j] += row
                if m:
                    s = step % block
                    if s == 0:
                        b = min(block, n_steps - step)
                        for r, path in enumerate(live.tolist()):
                            normals[path](out=drawn[r, :b])
                        z_block = noise[:b, :, :live.size]
                        np.multiply(drawn[:live.size, :b].transpose(1, 2, 0), sqh, out=z_block)
                        zcol = None
                    z = z_block[s] if zcol is None else z_block[s][:, zcol]
                    for zi, g in zip(z, diffs):
                        for j, row in g.items():
                            row *= zi
                            xl[j] += row
                dist = _distance(xl, center)
                # a nonfinite state has distance nan or inf, so it fails this test too
                if not (dist < cfg.R).all():
                    finite = np.isfinite(xl).all(axis=0)
                    out = finite & (dist >= cfg.R)
                    excluded[live[~finite]] = True
                    rows = live[out]
                    exited[rows] = True
                    exit_time[rows] = (step + 1) * h
                    xl = drop(out | ~finite, xl)
        x[live] = xl.T

    for lo in range(0, cfg.N, _CHUNK):
        run_chunk(lo)

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
        return asdict(self)


def conservation_test(ens: SimEnsemble, phi: LaurentPoly, mode: str,
                      c_bias: float | None = None,
                      c_path: float | None = None) -> ConservationReport:
    """Statistical conservation check of a candidate along a simulated ensemble."""
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = ens.config
    require_candidate(phi, len(cfg.x0))
    fields = (VField((phi,)),)
    phi_fn = _compile_fields(fields)
    neg_axes = _negative_axes(fields)
    if any(cfg.x0[j] == 0.0 for j in neg_axes):
        raise ValueError(f"candidate {phi} has a pole at x0={cfg.x0}")
    phi0 = float(phi.evaluate([complex(c) for c in cfg.x0]).real)

    states = ens.final[~ens.excluded]
    # A final state on a pole of the candidate drops out with the non-finite values:
    # a zero coordinate (either sign) to a negative power is +-inf, and every product
    # or sum of coefficient x monomial rows holding it stays inf or NaN.
    with np.errstate(all="ignore"):
        vals = phi_fn(states.T)[0].get(0, np.zeros(len(states)))
    vals = vals[np.isfinite(vals)]
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
