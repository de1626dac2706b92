"""Spans around calls into sdefi's layers, recorded from outside the package.

`Tracer.install()` replaces module attributes that callers resolve at call
time (for example `sdefi.exactla.nullspace`, which `search` calls as
`exactla.nullspace`) with wrappers that record a span: name, start, end,
parent span and query id.  Spans stay in memory until `write()`.
`layer_metrics()` turns the spans of one pass into the per-layer metrics.
CRational methods are not wrapped; `algebra_microbench()` times them instead.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import sdefi.cli
import sdefi.exactla
import sdefi.ito
import sdefi.mc
import sdefi.resonance
import sdefi.search
from sdefi.algebra import CRational, LaurentPoly

_MODULES = {"cli": sdefi.cli, "exactla": sdefi.exactla, "ito": sdefi.ito, "mc": sdefi.mc,
            "resonance": sdefi.resonance, "search": sdefi.search}

# (module, attribute, span name).  One span name may cover several call sites.
WRAPS = (
    ("exactla", "nullspace", "exactla.nullspace"),
    ("exactla", "det", "exactla.det"),
    ("exactla", "inverse", "exactla.inverse"),
    ("exactla", "char_poly", "exactla.char_poly"),
    ("exactla", "rank", "exactla.rank"),
    ("search", "find_first_integrals", "search.find_first_integrals"),
    ("search", "operator_matrix", "search.operator_matrix"),
    ("search", "check_weak", "search.reverify"),
    ("search", "check_strong", "search.reverify"),
    ("search", "independence_rank", "search.independence_rank"),
    ("resonance", "linearization", "spectral.linearization"),
    ("resonance", "h1_check", "spectral.h1_check"),
    ("resonance", "enumerate_resonances", "resonance.enumerate"),
    ("resonance", "weak_resonance_test", "resonance.enumerate"),
    ("ito", "lemma_identity_residual", "ito.lemma_identity"),
    ("mc", "simulate_paths", "mc.simulate_paths"),
    ("mc", "conservation_test", "mc.conservation_test"),
    ("cli", "main", "cli.main"),
    ("cli", "load_system", "cli.load_system"),
    ("cli", "parse_poly_text", "algebra.parse_poly_text"),
    ("cli", "to_text", "algebra.to_text"),
    ("cli", "check_strong", "ito.check"),
    ("cli", "check_weak", "ito.check"),
    ("cli", "linearization", "spectral.linearization"),
    ("cli", "h1_check", "spectral.h1_check"),
    ("cli", "nonintegrability_report", "resonance.report"),
    ("cli", "find_first_integrals", "search.find_first_integrals"),
    ("cli", "count_bound_check", "search.count_bound_check"),
    ("cli", "build_perturbation", "perturb.build"),
    ("cli", "verify_perturbation", "perturb.verify"),
    ("cli", "simulate_paths", "mc.simulate_paths"),
    ("cli", "conservation_test", "mc.conservation_test"),
)


def lattice_points(n: int, K: int, lattice: str) -> int:
    """Number of k != 0 with |k|_1 <= K in Z_{>=0}^n ("zplus") or Z^n ("z")."""
    if lattice == "zplus":
        return math.comb(n + K, n) - 1
    return sum(2 ** j * math.comb(n, j) * math.comb(K, j) for j in range(min(n, K) + 1)) - 1


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counts taken at span end: (original function, args, kwargs, result) -> dict.
def _nullspace_counts(fn, args, kwargs, result):
    a = args[0]
    return {"rows": len(a), "cols": len(a[0]) if a else 0, "kernel": len(result)}


def _operator_counts(fn, args, kwargs, result):
    return {"nnz": len(result.entries)}


def _enumerate_counts(fn, args, kwargs, result):
    b = _bound_args(fn, args, kwargs)
    if "lattice" in b:
        return {"points": lattice_points(len(b["values"]), b["K"], b["lattice"])}
    if result.certificate == "positive-definite":  # weak_resonance_test skipped its scan
        return {"points": 0}
    return {"points": lattice_points(len(b["lam"]), b["K"], "zplus")}


def _report_counts(fn, args, kwargs, result):
    return {"bounded_verdicts": sum(not v.status.certified for v in result.verdicts)}


def _simulate_counts(fn, args, kwargs, result):
    sysm, cfg = _bound_args(fn, args, kwargs).values()
    # simulate_paths draws a (chunk, n_steps, m) float64 noise tensor per chunk
    # of at most mc._CHUNK paths; the bytes are computed from that shape.
    chunk = min(getattr(sdefi.mc, "_CHUNK", cfg.N), cfg.N)
    return {"path_steps": cfg.N * cfg.n_steps, "exited": int(result.exited.sum()),
            "excluded": int(result.excluded.sum()),
            "noise_bytes": chunk * cfg.n_steps * sysm.noise_dim * 8}


_COUNTERS = {
    "exactla.nullspace": _nullspace_counts,
    "search.operator_matrix": _operator_counts,
    "resonance.enumerate": _enumerate_counts,
    "resonance.report": _report_counts,
    "mc.simulate_paths": _simulate_counts,
}


class Tracer:
    """`clock` gives span times; run.py passes one that leaves out the time
    its host-speed sampler spends."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, query id, counts]
        self.stack: list[int] = []
        self.query_id: str | None = None
        self._saved: list = []

    def install(self):
        for mod_name, attr, name in WRAPS:
            module = _MODULES[mod_name]
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name))

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), 0.0, parent, self.query_id, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    def _wrap(self, fn, name):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][5] = counter(fn, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one query."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def write(self, path: Path, t0: float):
        """Spans (times relative to t0) plus inclusive and self time per span name."""
        path.parent.mkdir(parents=True, exist_ok=True)
        incl, self_t = self_times(self.spans, range(len(self.spans)))
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "query", "counts"],
            "spans": [[n, s - t0, e - t0, p, q, c] for n, s, e, p, q, c in self.spans],
            "inclusive_s": incl,
            "self_s": self_t,
        }
        path.write_text(json.dumps(doc))


def self_times(spans, indices) -> tuple[dict, dict]:
    """Per span name: total duration, and duration minus the time its child spans cover."""
    indices = list(indices)
    child_time = {i: 0.0 for i in indices}
    for i in indices:
        parent = spans[i][3]
        if parent in child_time:
            child_time[parent] += spans[i][2] - spans[i][1]
    incl: dict = {}
    self_t: dict = {}
    for i in indices:
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_t[name] = self_t.get(name, 0.0) + (end - start - child_time[i])
    return incl, self_t


def _under(spans, i: int, ancestor: str) -> bool:
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


TIME_METRICS = ("exactla.search_nullspace_s", "exactla.small_dense_s",
                "search.find_first_integrals_s", "search.operator_matrix_s", "search.reverify_s",
                "search.independence_rank_s", "ito.lemma_identity_s", "ito.check_s",
                "spectral.linearization_s", "resonance.report_s", "resonance.enumerate_s",
                "perturb.build_s", "perturb.verify_s", "cli.load_system_s", "cli.self_s",
                "mc.simulate_paths_s", "mc.conservation_test_s")
COUNT_METRICS = ("exactla.nullspace_calls", "search.op_rows", "search.op_cols", "search.op_nnz",
                 "search.kernel_dim", "resonance.lattice_points", "resonance.bounded_verdicts",
                 "mc.path_steps", "mc.exited", "mc.excluded", "mc.noise_bytes_computed")
_SPAN_TIMES = {
    "search.find_first_integrals_s": "search.find_first_integrals",
    "search.operator_matrix_s": "search.operator_matrix",
    "search.reverify_s": "search.reverify",
    "search.independence_rank_s": "search.independence_rank",
    "ito.lemma_identity_s": "ito.lemma_identity",
    "ito.check_s": "ito.check",
    "spectral.linearization_s": "spectral.linearization",
    "resonance.report_s": "resonance.report",
    "resonance.enumerate_s": "resonance.enumerate",
    "perturb.build_s": "perturb.build",
    "perturb.verify_s": "perturb.verify",
    "cli.load_system_s": "cli.load_system",
    "mc.simulate_paths_s": "mc.simulate_paths",
    "mc.conservation_test_s": "mc.conservation_test",
}
_SMALL_DENSE = ("exactla.det", "exactla.inverse", "exactla.char_poly", "exactla.rank")


def layer_metrics(spans, indices) -> tuple[dict, dict]:
    """(times in s, exact counts) of the spans of one pass."""
    indices = list(indices)
    incl, self_t = self_times(spans, indices)
    times = {m: incl.get(name, 0.0) for m, name in _SPAN_TIMES.items()}
    times["cli.self_s"] = self_t.get("cli.main", 0.0)
    times["exactla.search_nullspace_s"] = 0.0
    times["exactla.small_dense_s"] = sum(incl.get(n, 0.0) for n in _SMALL_DENSE)
    counts = dict.fromkeys(COUNT_METRICS, 0)

    def add(metric, value):
        counts[metric] += value

    for i in indices:
        name, start, end, _, _, c = spans[i]
        if name == "exactla.nullspace":
            add("exactla.nullspace_calls", 1)
            if _under(spans, i, "search.find_first_integrals"):
                times["exactla.search_nullspace_s"] += end - start
                add("search.op_rows", c["rows"])
                add("search.op_cols", c["cols"])
                add("search.kernel_dim", c["kernel"])
            else:
                times["exactla.small_dense_s"] += end - start
        elif name == "search.operator_matrix":
            add("search.op_nnz", c["nnz"])
        elif name == "resonance.enumerate":
            add("resonance.lattice_points", c["points"])
        elif name == "resonance.report":
            add("resonance.bounded_verdicts", c["bounded_verdicts"])
        elif name == "mc.simulate_paths":
            add("mc.path_steps", c["path_steps"])
            add("mc.exited", c["exited"])
            add("mc.excluded", c["excluded"])
            counts["mc.noise_bytes_computed"] = max(counts["mc.noise_bytes_computed"],
                                                    c["noise_bytes"])
    return times, counts


def _per_op_us(op, reps: int, clock, rounds: int = 7) -> float:
    samples = []
    for _ in range(rounds):
        t0 = clock()
        for _ in range(reps):
            op()
        samples.append((clock() - t0) / reps * 1e6)
    return statistics.median(samples)


def algebra_microbench(clock) -> dict:
    """Fixed exact-arithmetic operations, microseconds per operation (median of 7 rounds)."""
    a = CRational(Fraction(355, 113))
    b = CRational(Fraction(-22, 7))
    p = LaurentPoly(3, {(i % 3, (2 * i) % 4, i % 2 - 1): Fraction(i + 1, 3) for i in range(10)})
    q = LaurentPoly(3, {((i + 1) % 3, i % 3, (3 * i) % 4 - 2): Fraction(7 - i, 5) for i in range(8)})
    big = p * q
    return {
        "algebra.crational_mul_us": _per_op_us(lambda: a * b, 5000, clock),
        "algebra.poly_mul_us": _per_op_us(lambda: p * q, 40, clock),
        "algebra.poly_diff_us": _per_op_us(lambda: big.differentiate(0), 200, clock),
    }
