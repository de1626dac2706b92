"""sdefi benchmark: one workload per run, closed loop, single client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sdefi is imported from ./src.  The
workload's fixed query set runs in passes, each query issued only after the
previous one returned, until another pass would end after S seconds; set-up
is timed in fresh interpreters before and between the passes.  Every time is
scaled to a nominal host speed sampled all through it (see hostspeed.py).
Every query's output is checked after its pass.  With --trace 0 the
end-to-end metrics are printed; with --trace 1 untraced and traced passes
alternate (U, T, T, U, ...), the spans are written to perfbench/out/, and
the per-layer metrics are printed.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MMAP_THRESHOLD = str(1 << 20)

# Set-up as a user pays it: import sdefi, parse the system files through the
# CLI loader, build the builtin systems.  The fresh interpreter samples the
# host speed itself, on the core it runs on, and prints its scaled time.
SETUP_CODE = """
import glob, os, sys, time
import hostspeed
sampler = hostspeed.Sampler()
sampler.start()
t0, c0 = time.perf_counter(), sampler.clock()
import sdefi
from sdefi import cli, systems
paths = sorted(glob.glob(os.path.join(sys.argv[1], "systems", "*.json")))
loaded = [cli.load_system(p) for p in paths]
built = [build() for build in systems.REGISTRY.values()]
c1, t1 = sampler.clock(), time.perf_counter()
sampler.stop()
print((c1 - c0) / sampler.slowdown(t0, t1), len(loaded), len(built))
"""


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def prepare_environment() -> int:
    """Set numpy/BLAS threads to the usable cores, unset SDEFI_THREADS and fix
    glibc's mmap threshold, re-executing this script once if the environment
    changed.  With glibc's default, the threshold adapts to earlier frees, so
    whether a large noise tensor reuses heap pages or gets fresh ones varied
    from run to run and peak_rss_mb with it (71 or 101 MB on mc_wide)."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=MMAP_THRESHOLD)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.pop("SDEFI_THREADS", None)
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    return nproc


def import_sdefi():
    src = ROOT / "src"
    if not (src / "sdefi" / "__init__.py").is_file():
        fail(f"no sdefi source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import sdefi

    if Path(sdefi.__file__).resolve().parent != (src / "sdefi").resolve():
        fail(f"imported sdefi from {sdefi.__file__}, not from {src}")
    return sdefi


class SetupTimer:
    """Times set-up in fresh interpreters, scaled to the nominal host speed.
    Samples are spread over the run (three before the first pass, two after
    each pass); `setup_s` is their median."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(BENCH_DIR))))
        self.n_files = len(list((ROOT / "systems").glob("*.json")))
        if self.n_files == 0:
            fail(f"no system files under {ROOT / 'systems'}")
        self.samples: list[float] = []
        self.sample()  # warm-up: compiles bytecode and fills the page cache
        self.samples.clear()

    def sample(self, n: int = 1):
        for _ in range(n):
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT)], env=self.env,
                                  capture_output=True, text=True, timeout=120, check=False)
            if proc.returncode != 0:
                fail(f"set-up failed: {proc.stderr.strip()[-500:]}")
            secs, loaded, _ = proc.stdout.split()
            if int(loaded) != self.n_files:
                fail(f"set-up loaded {loaded} of {self.n_files} system files")
            self.samples.append(float(secs))


@dataclass
class Pass:
    kind: str  # "U" untraced, "T" traced
    span_lo: int = 0
    span_hi: int = 0
    elapsed: float = 0.0  # seconds the pass took, reference samples included
    latencies: list = field(default_factory=list)  # measured seconds, reference samples excluded
    slowdowns: list = field(default_factory=list)  # host slowdown during each query
    mc: list = field(default_factory=list)  # (info dict, slowdown) of the MC queries

    def scaled(self) -> list[float]:
        """Latencies at the nominal host speed."""
        return [t / s for t, s in zip(self.latencies, self.slowdowns)]

    def slowdown(self) -> float:
        return statistics.median(self.slowdowns)


# A query shorter than this (most of analyze_cli's take milliseconds) is
# scaled by the slowdown over a segment of consecutive queries this long.
SEGMENT_S = 0.2


def run_pass(queries, sampler, tracer=None, tag=""):
    """Run every query once, in order, with the host-speed sampler running;
    returns (elapsed seconds, latencies, slowdowns, outputs, errors)."""
    latencies, slowdowns, outputs, errors = [], [], {}, {}
    t_start = time.perf_counter()
    sampler.start()
    try:
        seg_start, segment = time.perf_counter(), 0
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.query_id = f"{tag}{i}"
            t0 = sampler.clock()
            try:
                if tracer is not None:
                    with tracer.span("query"):
                        outputs[q.label] = q.fn()
                else:
                    outputs[q.label] = q.fn()
            except Exception as e:  # a raising query is a failed query, not a crashed benchmark
                errors[q.label] = f"raised {type(e).__name__}: {e}"
            latencies.append(sampler.clock() - t0)
            segment += 1
            now = time.perf_counter()
            if now - seg_start >= SEGMENT_S or i == len(queries) - 1:
                slowdowns += [sampler.slowdown(seg_start, now)] * segment
                seg_start, segment = now, 0
    finally:
        sampler.stop()
    elapsed = time.perf_counter() - t_start
    return elapsed, latencies, slowdowns, outputs, errors


def check_pass(queries, outputs, errors, goldens) -> dict:
    """Label -> error message, for every query that failed."""
    failed = dict(errors)
    for q in queries:
        if q.label in failed:
            continue
        if q.golden is not None and q.label not in goldens:
            failed[q.label] = "no golden recorded"
            continue
        try:
            err = q.check(outputs[q.label], outputs, goldens.get(q.label))
        except Exception as e:
            err = f"check raised {type(e).__name__}: {e}"
        if err:
            failed[q.label] = err
    return failed


def per_query_median(passes) -> list[float]:
    """Each query's median scaled time over the passes.  A phase change of the
    host in the middle of a query skews its scaling; the median drops such
    passes."""
    return [statistics.median(lat) for lat in zip(*(p.scaled() for p in passes))]


def quantile(values, q: int) -> float:
    """q-th percentile (inclusive method, so small samples stay within their range)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nproc = prepare_environment()
    sdefi = import_sdefi()
    import numpy

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    goldens = json.loads((BENCH_DIR / "goldens.json").read_text())
    machine = {"nproc": nproc, "python": platform.python_version(), "numpy": numpy.__version__,
               "sdefi": sdefi.__version__, "machine": platform.machine()}
    print(f"machine: {json.dumps(machine)}")

    sampler = hostspeed.Sampler()
    setup = None if args.trace else SetupTimer()
    if setup:
        setup.sample(3)
    queries = workloads.build_queries(args.workload, ROOT, args.seed, sampler.clock)
    print(f"workload {args.workload}: {len(queries)} queries per pass, seed {args.seed}, "
          f"trace {args.trace}")

    tracer = tracing.Tracer(sampler.clock) if args.trace else None
    # Minimum passes; afterwards U and T alternate.  Only two untraced passes
    # are required so that a run on a host slowed down 1.8x (seen while the
    # benchmark was built) still ends near --seconds.
    plan = "UTT" if args.trace else "UU"
    passes: list[Pass] = []
    first_errors: dict = {}
    n_failed = 0
    t_begin = time.perf_counter()
    t_begin_clock = sampler.clock()
    deadline = t_begin + args.seconds
    while True:
        n = len(passes)
        if n < len(plan):
            kind = plan[n]
        else:
            if time.perf_counter() + statistics.median(p.elapsed for p in passes) > deadline:
                break
            kind = "T" if args.trace and passes[-1].kind == "U" else "U"
        p = Pass(kind, span_lo=len(tracer.spans) if tracer else 0)
        gc.collect()  # every pass starts from the same collector state
        if kind == "T":
            tracer.install()
        try:
            p.elapsed, p.latencies, p.slowdowns, outputs, errors = run_pass(
                queries, sampler, tracer if kind == "T" else None, tag=f"{n}:")
        finally:
            if kind == "T":
                tracer.uninstall()
        p.span_hi = len(tracer.spans) if tracer else 0
        if setup:
            setup.sample(2)
        failed = check_pass(queries, outputs, errors, goldens)
        n_failed += len(failed)
        for label, err in failed.items():
            first_errors.setdefault(label, err)
        p.mc = [(outputs[q.label][0], s) for q, s in zip(queries, p.slowdowns)
                if q.label.startswith("mc:") and q.label in outputs]
        passes.append(p)

    attempted = len(passes) * len(queries)
    for label, err in sorted(first_errors.items()):
        print(f"FAILED {label}: {err}")
    for digest in sorted({info["final_digest"] for p in passes for info, _ in p.mc}):
        print(f"info: final-state digest {digest} (not a gate)")

    untraced = [p for p in passes if p.kind == "U"]
    latency = per_query_median(untraced)
    wall_s = sum(latency)
    correct = n_failed == 0
    print(f"fail_rate: {n_failed}/{attempted} = {n_failed / attempted:.4g} ratio")

    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup.samples), "s"),
            "wall_s": (wall_s, "s"),
            "query_p50_s": (statistics.median(latency), "s"),
            "query_p90_s": (quantile(latency, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"queries: {len(latency)}, each timed in {len(untraced)} passes "
              f"(measured pass walls {[round(sum(p.latencies), 3) for p in untraced]} s, "
              f"host slowdowns {[round(p.slowdown(), 3) for p in untraced]}); "
              f"set-up samples: {len(setup.samples)}")
        sims = [(info, s) for p in untraced for info, s in p.mc]
        if sims:
            rate = sum(i["path_steps"] for i, _ in sims) / sum(i["simulate_s"] / s for i, s in sims)
            print(f"path_steps_per_s: {rate:.6g} 1/s")
    else:
        traced = [p for p in passes if p.kind == "T"]
        per_pass = [tracing.layer_metrics(tracer.spans, range(p.span_lo, p.span_hi))
                    for p in traced]
        counts = per_pass[0][1]
        for _, other in per_pass[1:]:
            if other != counts:
                diff = {k: (counts[k], other[k]) for k in counts if counts[k] != other[k]}
                print(f"FAILED counts differ between traced passes: {diff}")
                correct = False
        metrics = {m: (statistics.median(t[m] / p.slowdown() for (t, _), p in zip(per_pass, traced)), "s")
                   for m in tracing.TIME_METRICS}
        metrics.update({m: (v, "bytes" if m.endswith("bytes_computed") else "count")
                        for m, v in counts.items()})
        sim_s = metrics["mc.simulate_paths_s"][0]
        metrics["mc.path_steps_per_s"] = (counts["mc.path_steps"] / sim_s if sim_s else 0.0, "1/s")
        sampler.start()
        t0 = time.perf_counter()
        micro = tracing.algebra_microbench(sampler.clock)
        slowdown = sampler.slowdown(t0, time.perf_counter())
        sampler.stop()
        metrics.update({m: (v / slowdown, "us") for m, v in micro.items()})
        traced_wall = sum(per_query_median(traced))
        metrics["trace.overhead_frac"] = (traced_wall / wall_s - 1.0, "ratio")
        out = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.write(out, t_begin_clock)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        print(f"traced wall_s: {traced_wall:.6g} s; untraced wall_s: {wall_s:.6g} s")
        for m in tracing.TIME_METRICS:
            if metrics[m][0]:
                share = statistics.median(t[m] / sum(p.latencies) for (t, _), p in zip(per_pass, traced))
                print(f"share of a traced pass: {m} {share:.1%}")

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    result = {"correct": correct, "attempted": attempted, "failed": n_failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
