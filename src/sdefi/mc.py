"""Euler-Maruyama Monte Carlo with conservation tests.

Paths are advanced as X_{k+1} = X_k + f(X_k) h + sum_i g_i(X_k) sqrt(h) xi_k^i
with xi drawn per path from a Philox counter-based stream keyed by
(seed, path_index), so ensembles are bit-reproducible for a fixed config and
independent of chunking.  Paths stop at the first exit from a ball of radius
R (origin- or x0-centered) and are frozen at the exit state; nonfinite
states (overflow, or a pole hit exactly) drop the path from the statistics
and are counted.  Only each path's end state is kept.

Each system's Euler-Maruyama step is generated once per run as one
straight-line Python function, called once per step as sq = step(x, z).  It
forms each coordinate power and each distinct monomial of all the fields
once, as a row over the moving paths, and each field component with terms
as a fixed-order sum of coefficient x monomial row; components without
terms are skipped.  It then releases the monomial rows, adds the component
rows in place into the moving paths' states, which are held state-major,
one contiguous row per coordinate: h f_j, then sqrt(h) xi^i g_ij for each
noise i in turn; and it returns each path's squared distance from the
center.  Coefficients are bound constants of the generated function, never
source text; conservation_test evaluates a candidate with a function from
the same generator.  Only elementwise operations are used, so a path's bits
do not depend on the chunk, block or tile size or its position in a chunk.
The ensemble arrays are allocated once, and paths run in chunks of at most
_CHUNK, each writing its own rows; a path is written back when it stops.
Each chunk keeps its paths' generators and at most _NOISE_BYTES of noise,
whatever h and T are: a draw buffer, into which one standard_normal call
per path still moving fills a block of steps, and a tile buffer, which
takes _TILE steps of the block at a time, times sqrt(h), transposed to be
contiguous over paths.  Consecutive draws from one stream equal a single
draw of the same length, so neither the blocks nor the tiles change a bit.
Building a Philox generator costs several times re-keying one, so every run
re-keys one module pool of generators, kept across calls.  A path exits
when its squared distance from the center reaches the least double whose
square root is at least R: exactly the test distance >= R, without a square
root per step.  A step where some path stops looks only at the stopping
columns: it tells overflow from exit on them and records both.

Only real-coefficient systems are simulatable; the symbolic layer is the
authority on exactness — this module exists to cross-check it statistically:

* weak test:   |mean Phi(X_end) - Phi(x0)| <= 3 stderr + C_bias h
* strong test: max |Phi(X_end) - Phi(x0)| <= C_path sqrt(h)
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .algebra import LaurentPoly, PoleError, Record, VField
from .ito import SdeSystem, require_candidate

_CHUNK = 4096
_NOISE_BYTES = 8 << 20  # draw buffer plus tile buffer per chunk, whatever n_steps is
_TILE = 16  # steps per transposed tile: 16 * m * k doubles, small enough to stay in cache
_POOL: list = []  # numpy Philox Generators, re-keyed by every run


class SimConfig(Record):
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


class SimEnsemble(Record, frozen=False):
    config: SimConfig
    final: object              # ndarray (N, n): state at T or at exit
    exit_time: object          # ndarray (N,)
    exited: object             # ndarray (N,) bool
    excluded: object           # ndarray (N,) bool: overflow/pole, dropped from statistics
    n_pole: int
    n_overflow: int

    @property
    def n_used(self) -> int:
        return int((~self.excluded).sum())


def _source(fields: Sequence[VField], h: float | None = None,
            center=None) -> tuple[str, dict[str, object]]:
    """Source of one straight-line function of the real `fields`, and its bound constants.

    The function takes x of shape (n, k), one row per coordinate.  It forms
    each coordinate power (x_j itself for exponent 1) and each distinct
    nonconstant monomial of all the fields once, and each component with
    terms as a fixed-order sum of coefficient x monomial row, the constant
    term last; components without terms are skipped.  Only elementwise
    operations are used, so a state's value does not depend on k or on its
    position.

    Without a center it is `evaluate(x)`, which returns for each field a
    dict {component: new (k,) row}.  With one it is `step(x, z)`, one
    Euler-Maruyama step for the drift fields[0] and the diffusions
    fields[1:], z holding sqrt(h) xi as one row per noise: it releases the
    monomial rows, adds h f_j and then z[i] g_ij for each noise i in turn
    into x in place, and returns each state's squared distance from the
    center.  Its square root equals np.linalg.norm(x.T - center, axis=1) bit
    for bit: norm takes the root of np.add.reduce of the squares along each
    row, and numpy adds fewer than 8 numbers left to right (its pairwise
    summation starts at 8), so narrow states sum their squares row by row in
    that order instead of paying for an axis reduction.

    Coefficients, h and the center are bound constants, never source text:
    the source holds only names made here and integer exponents.
    """
    if not all(c.is_real() for v in fields for p in v for _, c in p.terms()):
        raise ValueError("simulation requires real coefficients")
    n = len(center) if center is not None else fields[0].dim
    consts: dict[str, object] = {}
    body = [f"{''.join(f'x{j}, ' for j in range(n))}= x"]  # views of the coordinate rows
    powers: dict[tuple[int, int], str] = {}  # (coordinate, exponent other than 0, 1) -> row
    monomials: dict[tuple, str] = {}  # exponent vector -> row
    released: list[str] = []  # the power and monomial rows the function makes

    def monomial(e) -> str:
        if e not in monomials:
            factors = []
            for j, ej in enumerate(e):
                if ej == 1:  # x ** 1 is x, bit for bit
                    factors.append(f"x{j}")
                elif ej:
                    if (j, ej) not in powers:
                        powers[j, ej] = f"p{j}_{ej}" if ej > 0 else f"p{j}_n{-ej}"
                        body.append(f"{powers[j, ej]} = x{j} ** {int(ej)}")
                        released.append(powers[j, ej])
                    factors.append(powers[j, ej])
            if len(factors) > 1:
                name = f"m{len(monomials)}"
                body.append(f"{name} = {' * '.join(factors)}")
                released.append(name)
                factors = [name]
            monomials[e] = factors[0]
        return monomials[e]

    def const(value: float) -> str:
        consts[name := f"c{len(consts)}"] = value
        return name

    rows = []  # per field, {component: its row}
    for f, v in enumerate(fields):
        comps = {}
        for i, p in enumerate(v):
            # the constant term last
            terms = sorted(p.terms(), key=lambda t: not any(t[0]))
            if not terms:
                continue
            r = comps[i] = f"r{f}_{i}"
            for t, (e, c) in enumerate(terms):
                c = float(c.re)
                if not any(e):
                    body.append(f"{r} = np.full(x.shape[1], {const(c)})" if t == 0
                                else f"{r} += {const(c)}")
                    continue
                mon = monomial(e)
                if t == 0:
                    body.append(f"{r} = {const(c)} * {mon}")
                elif c == 1.0:  # r + 1 * m is r + m, bit for bit
                    body.append(f"{r} += {mon}")
                elif c == -1.0:  # and r + (-1 * m) is r - m
                    body.append(f"{r} -= {mon}")
                else:
                    body.append(f"{r} += {const(c)} * {mon}")
        rows.append(comps)

    if center is None:
        dicts = ("{" + ", ".join(f"{i}: {r}" for i, r in comps.items()) + "}" for comps in rows)
        body.append(f"return [{', '.join(dicts)}]")
        return "def evaluate(x):\n" + "".join(f"    {line}\n" for line in body), consts

    if released:
        body.append(f"del {', '.join(released)}")
    consts["h"] = h
    if len(fields) > 1:
        body.append(f"{''.join(f'z{i}, ' for i in range(len(fields) - 1))}= z")
    for f, comps in enumerate(rows):
        for j, r in comps.items():
            body += [f"{r} *= {'h' if f == 0 else f'z{f - 1}'}", f"x{j} += {r}"]
    if n >= 8:
        consts["center"] = center
        body += ["d = x.T - center", "return np.add.reduce(d * d, axis=1)"]
    else:
        for j in range(n):
            d = f"x{j}"
            if center[j]:  # (x - 0) ** 2 is x ** 2, bit for bit
                consts[f"o{j}"] = float(center[j])
                body.append(f"d = x{j} - o{j}")
                d = "d"
            body.append(f"sq {'+=' if j else '='} {d} * {d}")
        body.append("return sq")
    return "def step(x, z):\n" + "".join(f"    {line}\n" for line in body), consts


def _compile(fields: Sequence[VField], h: float | None = None, center=None):
    """The function `_source` writes for these arguments, compiled with its constants bound."""
    import numpy as np

    src, consts = _source(fields, h, center)
    namespace = {"np": np, **consts}
    exec(compile(src, "<sdefi.mc generated>", "exec"), namespace)
    return namespace["evaluate" if center is None else "step"]


def _negative_axes(fields: Sequence[VField]) -> list[int]:
    """Coordinates on which some term of the fields has a negative exponent: their poles."""
    return sorted({j for v in fields for p in v for e, _ in p.terms()
                   for j, ej in enumerate(e) if ej < 0})


def _path_generators(seed: int, path_indices, pool: list = _POOL) -> list:
    """One Philox stream per path, keyed by (seed, path index).

    Building a Philox also builds and discards an OS-entropy SeedSequence,
    several times the cost of setting a state, so the generators already in
    `pool` are re-keyed instead: the state of a new generator (counter 0,
    empty buffer) gives the same stream.  The pool grows to the number of
    paths; its first generators are returned.
    """
    import numpy as np

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


def simulate_paths(sys: SdeSystem, cfg: SimConfig) -> SimEnsemble:
    """Run the full ensemble; deterministic for a fixed config."""
    import numpy as np

    n = sys.dim
    if len(cfg.x0) != n:
        raise ValueError(f"x0 has {len(cfg.x0)} coords for a dim-{n} system")
    fields = (sys.drift, *sys.diffusions)
    neg_axes = _negative_axes(fields)
    m = sys.noise_dim
    x0 = np.asarray(cfg.x0, dtype=float)
    n_steps = cfg.n_steps
    h = cfg.h
    step = _compile(fields, h, np.zeros(n) if cfg.center == "origin" else x0)
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
        z = None

        def drop(stop: np.ndarray, states: np.ndarray):
            """Write the columns `stop` (indices) of `states` back to x; compact the rest."""
            nonlocal live, zcol
            x[live[stop]] = states[:, stop].T
            keep = np.ones(live.size, dtype=bool)
            keep[stop] = False
            live = live[keep]
            if m:
                zcol = np.flatnonzero(keep) if zcol is None else zcol[keep]
            return states.compress(keep, axis=1)  # a quarter of the time states[:, keep] takes

        with np.errstate(all="ignore"):
            for i in range(n_steps):
                if not live.size:
                    break
                if neg_axes:
                    at_pole = xl[neg_axes[0]] == 0.0
                    for j in neg_axes[1:]:
                        at_pole |= xl[j] == 0.0
                    if at_pole.any():
                        stop = np.flatnonzero(at_pole)
                        rows = live[stop]
                        excluded[rows] = True
                        pole[rows] = True
                        xl = drop(stop, xl)
                        if not live.size:
                            break
                if m:
                    s = i % block
                    if s == 0:
                        b = min(block, n_steps - i)
                        for r, path in enumerate(live.tolist()):
                            normals[path](out=drawn[r, :b])
                        nb = live.size
                        zcol = None
                    t = s % tile
                    if t == 0:
                        tb = min(tile, b - s)
                        np.multiply(drawn[:nb, s:s + tb].transpose(1, 2, 0), sqh,
                                    out=tiles[:tb, :, :nb])
                    z = tiles[t, :, :nb] if zcol is None else tiles[t].take(zcol, axis=1)
                sq = step(xl, z)  # advances xl in place
                # a nonfinite state has sq nan or inf, so it stops here too
                if not sq.max() < r2:
                    stop = np.flatnonzero(~(sq < r2))
                    rows = live[stop]
                    finite = np.isfinite(xl[:, stop]).all(axis=0)
                    excluded[rows[~finite]] = True
                    rows = rows[finite]
                    exited[rows] = True
                    exit_time[rows] = (i + 1) * h
                    xl = drop(stop, xl)
        x[live] = xl.T

    for lo in range(0, cfg.N, _CHUNK):
        run_chunk(lo)

    final, exit_time, exited, excluded, pole = arrays
    n_pole = int(pole.sum())
    return SimEnsemble(config=cfg, final=final, exit_time=exit_time, exited=exited,
                       excluded=excluded, n_pole=n_pole,
                       n_overflow=int(excluded.sum()) - n_pole)


class ConservationReport(Record):
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
        return self.as_dict()


def _refuse_pole(fields: Sequence[VField], x0: Sequence[float], what: str):
    """The one pole-at-x0 test: refuse `x0` on a pole of `fields`."""
    if any(x0[j] == 0.0 for j in _negative_axes(fields)):
        raise ValueError(f"{what} has a pole at x0={x0}")


def check_start(sys: SdeSystem, x0: Sequence[float]):
    """Refuse a start `x0` on a pole of the system's fields, where every path would be
    excluded at once, before any ensemble is simulated."""
    _refuse_pole((sys.drift, *sys.diffusions), x0, "the system")


def check_candidate(phi: LaurentPoly, x0: Sequence[float]):
    """Refuse a candidate that `conservation_test` would refuse along paths from `x0`:
    one `require_candidate` refuses, one with a non-real coefficient, or one with a pole
    at x0.  No ensemble is needed, so a command can refuse it before simulating."""
    require_candidate(phi, len(x0))
    if not all(c.is_real() for _, c in phi.terms()):
        raise ValueError("simulation requires real coefficients")
    _refuse_pole((VField((phi,)),), x0, f"candidate {phi}")


def conservation_test(ens: SimEnsemble, phi: LaurentPoly, mode: str,
                      c_bias: float | None = None,
                      c_path: float | None = None) -> ConservationReport:
    """Statistical conservation check of a candidate along a simulated ensemble."""
    import numpy as np

    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = ens.config
    check_candidate(phi, cfg.x0)
    phi_fn = _compile((VField((phi,)),))
    phi0 = float(phi.evaluate([complex(c) for c in cfg.x0]).real)

    states = ens.final[~ens.excluded]
    # A final state on a pole of the candidate drops out with the non-finite values:
    # a zero coordinate (either sign) to a negative power is +-inf, and every product
    # or sum of coefficient x monomial rows holding it stays inf or NaN.
    with np.errstate(all="ignore"):
        vals = phi_fn(states.T)[0][0]  # a candidate is not constant, so it has terms
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
