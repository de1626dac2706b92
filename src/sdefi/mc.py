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
path's bits do not depend on the chunk, block or tile size or its position
in a chunk.  The ensemble arrays are allocated once, and paths run in chunks
of at most _CHUNK, each writing its own rows; a path is written back when it
stops.  Each chunk keeps its paths' generators and at most _NOISE_BYTES of
noise, whatever h and T are: a draw buffer, into which one standard_normal
call per path still moving fills a block of steps, and a tile buffer, which
takes _TILE steps of the block at a time, times sqrt(h), transposed to be
contiguous over paths.  Consecutive draws from one stream equal a single
draw of the same length, so neither the blocks nor the tiles change a bit.
Building a Philox generator costs several times re-keying one, so every run
re-keys one module pool of generators, kept across calls.  A path exits
when its squared distance from the center reaches the least double whose
square root is at least R: exactly the test distance >= R, without a square
root per step.

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
_NOISE_BYTES = 8 << 20  # draw buffer plus tile buffer per chunk, whatever n_steps is
_TILE = 16  # steps per transposed tile: 16 * m * k doubles, small enough to stay in cache
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


def _noise_blocks(k: int, m: int, n_steps: int) -> tuple[int, int]:
    """Steps per draw block and per tile for a chunk of k paths with m noises.

    The draw buffer (k, block, m) and the tile buffer (tile, m, k) share
    _NOISE_BYTES.  The tile takes at most half of it, so a block is never
    shorter than half the budget's steps, and a tile is never longer than a
    block.  Both are at least one step, even when one step overruns the budget.
    """
    steps = _NOISE_BYTES // (8 * m * k)
    tile = max(1, min(_TILE, steps // 2))
    block = max(1, min(n_steps, steps - tile))
    return block, min(tile, block)


def _exit_threshold(R: float) -> float:
    """The least double r2 with sqrt(r2) >= R; inf when no finite double has a root >= R.

    sqrt is correctly rounded and monotone, so for every double sq, NaN and inf
    included, sq >= r2 exactly when sqrt(sq) >= R.  R * R lands within a few
    steps of r2.
    """
    r2 = R * R
    while math.sqrt(r2) < R:
        r2 = math.nextafter(r2, math.inf)
    while math.sqrt(below := math.nextafter(r2, 0.0)) >= R:
        r2 = below
    return r2


def _sq_distance(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distances of the state-major x (n, k) from center, one per state.

    Their square roots equal np.linalg.norm(x.T - center, axis=1) bit for bit:
    norm takes the root of np.add.reduce of the squares along each row.  numpy
    adds fewer than 8 numbers left to right (its pairwise summation starts at
    8), so narrow states sum their squares row by row in that order instead of
    paying for an axis reduction.
    """
    n = x.shape[0]
    if n >= 8:
        d = x.T - center
        return np.add.reduce(d * d, axis=1)
    sq = None
    for j in range(n):
        d = x[j] - center[j] if center[j] else x[j]  # (x - 0) ** 2 is x ** 2, bit for bit
        if sq is None:
            sq = d * d
        else:
            sq += d * d
    return sq


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
    r2 = _exit_threshold(cfg.R)
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
            block, tile = _noise_blocks(k, m, n_steps)
            drawn = np.empty((k, block, m))  # the block's draws, a row per path live at its start
            tiles = np.empty((tile, m, k))   # sqrt(h) times a tile of them, contiguous over paths
        zcol = None  # drawn rows of the live paths, once one stopped inside the block

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
                        nb = live.size
                        zcol = None
                    t = s % tile
                    if t == 0:
                        tb = min(tile, b - s)
                        np.multiply(drawn[:nb, s:s + tb].transpose(1, 2, 0), sqh,
                                    out=tiles[:tb, :, :nb])
                    z = tiles[t, :, :nb] if zcol is None else tiles[t][:, zcol]
                    for zi, g in zip(z, diffs):
                        for j, row in g.items():
                            row *= zi
                            xl[j] += row
                sq = _sq_distance(xl, center)
                # a nonfinite state has sq nan or inf, so it fails this test too
                if not sq.max() < r2:
                    finite = np.isfinite(xl).all(axis=0)
                    out = finite & (sq >= r2)
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
