"""Command-line surface: system-file ingestion, dispatch, verdict reporting.

`main` runs every subcommand the same way: it loads the system, calls the
subcommand's builder for one JSON-able report dict, and prints that dict.
`--output json` prints it; `--output text` renders it line by line, reading
nothing but that dict, so the two modes cannot state different verdicts.

System files are JSON with exact rational coefficients:

    {
      "dim": 1, "noise_dim": 1, "var_names": ["x1"],
      "drift":     [ [ {"c": ["1/1", "0/1"], "e": [1]} ] ],
      "diffusion": [ [ [ {"c": ["1/1", "0/1"], "e": [1]} ] ] ]
    }

Each scalar component is a list of terms {c: [re, im], e: exponent vector};
coefficients must be integer-or-fraction strings ("1", "-3/2"); decimals are
rejected so every downstream identity test stays exact.  A builtin name from
`sdefi.systems` (e.g. "gbm") is accepted wherever a system file is expected.

Exit codes: 0 = analysis completed (verdicts live inside the report),
2 = input error (also an input too large for memory), 3 = internal numeric
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys as _sys
from fractions import Fraction
from pathlib import Path

from .algebra import CRational, LaurentPoly, VField, to_text, parse_poly_text
from .ito import IntegralVerdict, SdeSystem, check_strong, check_weak
from .mc import SimConfig, conservation_test, simulate_paths
from .perturb import build_perturbation, verify_perturbation
from .resonance import check_scan_options, nonintegrability_report
from .search import count_bound_check, find_first_integrals
from .spectral import NotApplicableError, h1_check, linearization
from . import systems as _builtin

_COEFF_STR_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


class InputFormatError(ValueError):
    """A system/candidate file violates the input contract."""


# -- system (de)serialization ----------------------------------------------------


def _parse_coeff_pair(c, where: str) -> CRational:
    if (not isinstance(c, list)) or len(c) != 2 or not all(isinstance(s, str) for s in c):
        raise InputFormatError(f"{where}: c must be a [re, im] pair of strings, got {c!r}")
    parts = []
    for s in c:
        m = _COEFF_STR_RE.match(s.strip())
        if not m:
            raise InputFormatError(
                f"{where}: coefficient {s!r} is not an exact rational "
                f"(write 1/2, not 0.5)")
        num, den = m.groups()
        try:
            parts.append(Fraction(int(num), int(den or 1)))
        except ZeroDivisionError:
            raise InputFormatError(f"{where}: zero denominator in {s!r}") from None
    return CRational(parts[0], parts[1])


def _parse_component(terms, dim: int, where: str) -> LaurentPoly:
    if not isinstance(terms, list):
        raise InputFormatError(f"{where}: expected a list of terms")
    seen: dict[tuple, str] = {}
    parsed = []
    for t_idx, t in enumerate(terms):
        here = f"{where}, term {t_idx + 1}"
        if not isinstance(t, dict) or set(t) != {"c", "e"}:
            raise InputFormatError(f"{here}: each term is an object with exactly c and e")
        e = t["e"]
        if (not isinstance(e, list)) or len(e) != dim or \
                not all(isinstance(k, int) and not isinstance(k, bool) for k in e):
            raise InputFormatError(f"{here}: e must be a list of {dim} integers")
        key = tuple(e)
        if key in seen:
            raise InputFormatError(
                f"{here}: duplicate exponent vector {list(key)} (first at {seen[key]}); "
                f"merge the coefficients instead")
        seen[key] = here
        parsed.append((key, _parse_coeff_pair(t["c"], here)))
    return LaurentPoly(dim, parsed)


def parse_system_dict(d) -> SdeSystem:
    if not isinstance(d, dict):
        raise InputFormatError("top level must be a JSON object")
    required = {"dim", "noise_dim", "var_names", "drift", "diffusion"}
    if set(d) != required:
        missing = required - set(d)
        extra = set(d) - required
        bits = []
        if missing:
            bits.append(f"missing {sorted(missing)}")
        if extra:
            bits.append(f"unknown {sorted(extra)}")
        raise InputFormatError("system file keys: " + "; ".join(bits))
    dim, m = d["dim"], d["noise_dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputFormatError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise InputFormatError(f"noise_dim must be a nonnegative integer, got {m!r}")
    names = d["var_names"]
    if (not isinstance(names, list)) or len(names) != dim or \
            not all(isinstance(s, str) and s.isidentifier() for s in names):
        raise InputFormatError(f"var_names must be {dim} identifier strings")
    if len(set(names)) != dim:
        raise InputFormatError("var_names must be distinct")
    if "i" in names:
        raise InputFormatError("var_names: 'i' is the imaginary unit, not a variable name")
    drift = d["drift"]
    if not isinstance(drift, list) or len(drift) != dim:
        raise InputFormatError(f"drift must list {dim} components, got {len(drift) if isinstance(drift, list) else type(drift).__name__}")
    f = VField(tuple(_parse_component(c, dim, f"drift component {i + 1}")
                     for i, c in enumerate(drift)))
    diffusion = d["diffusion"]
    if not isinstance(diffusion, list) or len(diffusion) != m:
        raise InputFormatError(f"diffusion must list {m} noise fields")
    gs = []
    for gi, field in enumerate(diffusion):
        if not isinstance(field, list) or len(field) != dim:
            raise InputFormatError(f"diffusion field {gi + 1} must list {dim} components")
        gs.append(VField(tuple(_parse_component(c, dim, f"diffusion {gi + 1} component {i + 1}")
                               for i, c in enumerate(field))))
    return SdeSystem(f, tuple(gs), tuple(names))


def parse_system(path: str | Path) -> SdeSystem:
    text = Path(path).read_text(encoding="utf-8")
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputFormatError(f"{path}: malformed JSON: {e}") from None
    return parse_system_dict(d)


def _coeff_pair(c: CRational) -> list[str]:
    def s(q: Fraction) -> str:
        return f"{q.numerator}/{q.denominator}"

    return [s(c.re), s(c.im)]


def _component_terms(p: LaurentPoly) -> list[dict]:
    return [{"c": _coeff_pair(c), "e": list(e)} for e, c in p.terms()]


def serialize_system(sys: SdeSystem) -> dict:
    """Canonical dict form: terms ascending graded-lex, explicit denominators."""
    return {
        "dim": sys.dim,
        "noise_dim": sys.noise_dim,
        "var_names": list(sys.var_names),
        "drift": [_component_terms(p) for p in sys.drift],
        "diffusion": [[_component_terms(p) for p in g] for g in sys.diffusions],
    }


def load_system(arg: str) -> SdeSystem:
    """A path to a JSON system file, or the name of a builtin example."""
    if os.path.isfile(arg):
        return parse_system(arg)
    if arg in _builtin.REGISTRY:
        return _builtin.REGISTRY[arg]()
    raise InputFormatError(
        f"{arg!r} is neither a readable file nor a builtin system "
        f"(builtins: {', '.join(sorted(_builtin.REGISTRY))})")


def parse_candidate(spec: str, var_names) -> tuple[str, LaurentPoly]:
    """NAME=POLY inline text, bare POLY text, or a path to a file holding either."""
    text = spec
    if os.path.isfile(spec):
        text = Path(spec).read_text(encoding="utf-8").strip()
    name = "phi"
    if "=" in text:
        name, text = (part.strip() for part in text.split("=", 1))
        if not name.isidentifier():
            raise InputFormatError(f"candidate name {name!r} is not an identifier")
    try:
        poly = parse_poly_text(text, var_names)
    except ValueError as e:
        raise InputFormatError(f"candidate {spec!r}: {e}") from None
    return name, poly


# -- reports: `_*_dict` builds from domain objects, `_*_text` renders a dict --------


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _verdict_dict(name: str, v: IntegralVerdict, names) -> dict:
    return {
        "candidate": name,
        "mode": v.mode,
        "holds": v.holds,
        "residuals": {rn: to_text(rp, names) for rn, rp in v.residuals},
    }


def _verdict_text(d: dict) -> list[str]:
    out = [f"candidate {d['candidate']}: {d['mode']} first integral: "
           f"{'YES' if d['holds'] else 'NO'}"]
    for rn, text in d["residuals"].items():
        out.append(f"  residual[{rn}] = {text}")
    return out


def _resonance_text(rep: dict) -> list[str]:
    lines = [f"resonance scan: dim={rep['dim']} noise={rep['noise_dim']} "
             f"K={rep['K']} tol={rep['tol']:g}"]
    lines.append("hypotheses:")
    for k, v in rep["hypotheses"].items():
        lines.append(f"  {k}: {v}")
    if rep["scans"]:
        lines.append("scans:")
        for s in rep["scans"]:
            tag = "complete" if s["complete"] else f"|k|_1<={s['K']}"
            extra = " (degenerate: all eigenvalues zero)" if s["degenerate"] else ""
            lines.append(f"  {s['label']} [{s['lattice']}] resonances={len(s['vectors'])} "
                         f"rank={s['rank']} [{tag}]{extra}")
    if rep["s_min"] is not None:
        kind = "certified" if rep["s_min_certified"] else "lower bound (K-window)"
        lines.append(f"s_min = {rep['s_min']} ({kind})")
    violations = rep["weak_violations"]
    if violations:
        ks = ", ".join(str(k) for k in violations[:8])
        lines.append(f"weak-resonance roots: {ks}" + (" ..." if len(violations) > 8 else ""))
    elif violations is not None:
        lines.append(f"weak-resonance function: no roots "
                     f"({rep['weak_certificate'] or 'window scan'})")
    lines.append("verdicts:")
    for v in rep["verdicts"]:
        st = v["epistemic_status"]
        status = "certified" if st["kind"] == "certified" else \
            f"bounded(K={st['K']}, tol={st['tol']:g})"
        head = f"  {v['code']} [{status}]"
        if v["theorem"]:
            head += f" via {v['theorem']}"
        lines.append(head)
        if v["hypotheses_checked"]:
            lines.append(f"    hypotheses: {'; '.join(v['hypotheses_checked'])}")
        lines.append(f"    {v['detail']}")
    return lines


def _basis_dict(basis, names) -> dict:
    return {
        "mode": basis.mode,
        "window": [basis.dmin, basis.dmax],
        "count": len(basis),
        "basis": [to_text(p, names) for p in basis.basis],
        "independence_rank": basis.independence_rank,
    }


def _basis_text(d: dict) -> list[str]:
    dmin, dmax = d["window"]
    lines = [f"{d['mode']} search on window [{dmin}, {dmax}]: "
             f"{d['count']} integral(s), independence rank {d['independence_rank']}"]
    for i, text in enumerate(d["basis"]):
        lines.append(f"  [{i + 1}] {text}")
    return lines


def _mat_strs(m) -> list[list[str]]:
    return [[str(x) for x in row] for row in m]


def _linearization_dict(data, h1) -> dict:
    spectra = {"Df": data.mu0.to_dict()}
    for i, mu in enumerate(data.mu):
        if mu is not None:
            spectra[f"Dg_{i + 1}"] = mu.to_dict()
    if data.lam is not None:
        spectra["A0"] = data.lam.to_dict()
    return {
        "applicable": True,
        "A_f": _mat_strs(data.A_f),
        "A_g": [_mat_strs(m) if m is not None else None for m in data.A_g],
        "A0": _mat_strs(data.A0) if data.A0 is not None else None,
        "char_polys": {k: [str(c) for c in v] for k, v in data.char_polys.items()},
        "spectra": spectra,
        "noise_vanishes_at_origin": list(data.g_zero_at_origin),
        "noise_quadratic_order": list(data.g_higher_order),
        "h1": {"verdict": h1.verdict, "witness": h1.witness},
    }


def _analyze_text(report: dict) -> list[str]:
    system = report["system"]
    lines = [f"system: dim={system['dim']} noise={system['noise_dim']} "
             f"vars={', '.join(system['var_names'])}"]
    lin = report["linearization"]
    if lin["applicable"]:
        lines.append(f"linearization at origin: ok (H1 {lin['h1']['verdict']})")
        lines.append("")
        lines.extend(_resonance_text(report["resonance"]))
    else:
        lines.append(f"linearization at origin: not applicable ({lin['reason']})")
    lines.append("")
    lines.extend(_basis_text(report["search"]["strong"]))
    if "count_bound" in report:
        cb = report["count_bound"]
        lines.append(f"count bound: rank {cb['rank']} <= s_min {cb['s_min']}? "
                     f"{'yes' if cb['consistent'] else 'NO'} ({cb['note']})")
    lines.extend(_basis_text(report["search"]["weak"]))
    if "candidates" in report:
        lines.append("")
        for v in report["candidates"]:
            lines.extend(_verdict_text(v))
    if "simulation" in report:
        lines.append("")
        lines.extend(_ensemble_text(report["simulation"]))
    return lines


def _perturb_text(report: dict) -> list[str]:
    plan, ver = report["plan"], report["verification"]
    spectrum = ", ".join(e if e is not None else f"{v[0]:.6g}{v[1]:+.6g}i"
                         for v, e in zip(plan["eigenvalues"], plan["eigenvalues_exact"]))
    dmin, dmax = ver["window"]
    lines = [
        f"perturbation built for dim-{len(plan['exponents'])} drift "
        f"(det Df(0) = {plan['det_Df']})",
        f"  u = {plan['u']}, exponents = {plan['exponents']}",
        f"  target noise spectrum mu = {plan['mu']}",
        f"  drift spectrum: {spectrum}",
        f"  route: {'exact eigenvectors' if plan['exact_route'] else 'numeric eigenvectors, exact lift'}",
        f"  min |E(l)| over 0 < |l|_1 <= {plan['L']}: {_fmt(plan['residual_min'])}",
        f"verification: weak search on window [{dmin}, {dmax}] -> "
        + ("PASS (no weak integral survives)" if ver["passed"]
           else f"FAIL ({len(ver['found'])} weak integral(s) survive)"),
    ]
    for text in ver["found"]:
        lines.append(f"  survivor: {text}")
    return lines


def _ensemble_dict(ens) -> dict:
    import numpy as np

    cfg = ens.config
    keep = ~ens.excluded
    mean = (np.mean(ens.final[keep], axis=0).tolist() if keep.any()
            else [float("nan")] * ens.final.shape[1])
    return {
        "paths": cfg.N, "h": cfg.h, "T": cfg.t_end, "steps": cfg.n_steps,
        "seed": cfg.seed, "radius": cfg.R,
        "n_used": ens.n_used, "n_pole": ens.n_pole, "n_overflow": ens.n_overflow,
        "n_exited": int(ens.exited.sum()),
        "final_mean": mean,
    }


def _ensemble_text(d: dict) -> list[str]:
    """The ensemble summary, then one line per conservation-tested candidate."""
    lines = [
        f"simulated {d['paths']} paths, {d['steps']} steps of h={_fmt(d['h'])} "
        f"(T={_fmt(d['T'])}, seed={d['seed']})",
        f"  usable={d['n_used']} poles={d['n_pole']} overflow={d['n_overflow']} "
        f"exited={d['n_exited']}",
        f"  mean final state: [{', '.join(_fmt(v) for v in d['final_mean'])}]",
    ]
    for c in d.get("candidates", ()):
        if c["mode"] == "weak":
            stat = (f"mean={_fmt(c['mean'])} phi0={_fmt(c['phi0'])} delta={_fmt(c['delta'])} "
                    f"stderr={_fmt(c['stderr'])} threshold={_fmt(c['threshold'])}")
        else:
            stat = (f"max_dev={_fmt(c['max_dev'])} phi0={_fmt(c['phi0'])} "
                    f"threshold={_fmt(c['threshold'])}")
        lines.append(f"  candidate {c['candidate']} [{c['mode']}] {stat} -> "
                     f"{'PASS' if c['passed'] else 'FAIL'}")
    return lines


def _print_report(report: dict, render, output: str):
    """Print `report` as JSON, or as the text lines `render(report)` reads off it.

    JSON is strict (RFC 8259): an infinite or NaN float is printed as null.
    """
    if output == "json":
        try:
            text = json.dumps(report, indent=2, allow_nan=False)
        except ValueError:  # a non-finite float: read Infinity and NaN back as null
            text = json.dumps(json.loads(json.dumps(report), parse_constant=lambda _: None),
                              indent=2)
        print(text)
    else:
        print("\n".join(render(report)))


# -- subcommands: each builds its report from the loaded system and the parsed args --


def _check(sys: SdeSystem, args) -> dict:
    name, phi = parse_candidate(args.candidate, sys.var_names)
    checker = check_strong if args.command == "check-strong" else check_weak
    return _verdict_dict(name, checker(sys, phi), sys.var_names)


def _search(sys: SdeSystem, args) -> dict:
    if args.dmin > args.dmax:
        raise InputFormatError(f"--dmin {args.dmin} exceeds --dmax {args.dmax}")
    return _basis_dict(find_first_integrals(sys, args.mode, args.dmin, args.dmax), sys.var_names)


def _resonance(sys: SdeSystem, args) -> dict:
    return nonintegrability_report(sys, K=args.kbound, tol=args.tol).to_dict()


def _analyze(sys: SdeSystem, args) -> dict:
    if args.simulate and args.seed is None:
        raise InputFormatError("--simulate needs --seed (runs must be reproducible)")
    if args.seed is not None and not args.simulate:
        raise InputFormatError("--seed needs --simulate (without it analyze simulates nothing)")
    check_scan_options(args.kbound, args.tol)  # also where the linearization does not apply
    names = sys.var_names
    report: dict = {"system": serialize_system(sys)}

    try:
        data = linearization(sys)
        h1 = h1_check(data)
        report["linearization"] = _linearization_dict(data, h1)
    except NotApplicableError as e:
        report["linearization"] = {"applicable": False, "reason": str(e)}

    if report["linearization"]["applicable"]:
        rep = nonintegrability_report(sys, K=args.kbound, tol=args.tol, linearized=(data, h1))
        report["resonance"] = rep.to_dict()
    else:
        rep = None
        report["resonance"] = {"applicable": False,
                               "reason": report["linearization"]["reason"]}

    report["search"] = {}
    for mode in ("strong", "weak"):
        basis = find_first_integrals(sys, mode, args.dmin, args.dmax)
        report["search"][mode] = _basis_dict(basis, names)
        if mode == "strong" and rep is not None and rep.s_min is not None:
            report["count_bound"] = count_bound_check(basis, rep).to_dict()

    if args.candidate:
        report["candidates"] = []
        for spec in args.candidate:
            name, phi = parse_candidate(spec, names)
            for checker in (check_strong, check_weak):
                report["candidates"].append(_verdict_dict(name, checker(sys, phi), names))

    if args.simulate:
        report["simulation"] = _simulate(sys, args)
    return report


def _perturb(sys: SdeSystem, args) -> dict:
    try:
        u = Fraction(args.u)
        in_range = 0 < u < 1
    except (ValueError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise InputFormatError(f"--u {args.u!r} is not a rational in (0,1)")
    plan = build_perturbation(sys.drift, u=u, L=args.lbound, seed=args.seed)
    verdict = verify_perturbation(sys.drift, plan, D=args.degree)
    return {"plan": plan.to_dict(),
            "verification": {"passed": verdict.passed, "window": [verdict.dmin, verdict.dmax],
                             "found": [to_text(p, sys.var_names) for p in verdict.found]}}


def _parse_x0(arg: str | None, dim: int) -> tuple[float, ...]:
    if arg is None:
        return (1.0,) * dim
    try:
        vals = tuple(float(s) for s in arg.split(","))
    except ValueError:
        raise InputFormatError(f"--x0 {arg!r} must be comma-separated numbers") from None
    if len(vals) != dim:
        raise InputFormatError(f"--x0 needs {dim} coordinates, got {len(vals)}")
    return vals


def _simulate(sys: SdeSystem, args) -> dict:
    """Simulate the ensemble `args` describes and test each --candidate along it, in
    `simulate`'s --mode or, under `analyze --simulate`, weakly."""
    cfg = SimConfig(x0=_parse_x0(args.x0, sys.dim), h=args.step, T=args.horizon,
                    N=args.paths, seed=args.seed, R=args.radius)
    ens = simulate_paths(sys, cfg)
    report = _ensemble_dict(ens)
    if args.candidate:
        mode = getattr(args, "mode", "weak")
        report["candidates"] = []
        for spec in args.candidate:
            name, phi = parse_candidate(spec, sys.var_names)
            report["candidates"].append(
                {"candidate": name, **conservation_test(ens, phi, mode).to_dict()})
    return report


# -- argument parsing and the one pipeline -------------------------------------------


def _add_common(sub, name: str, help: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help)
    p.add_argument("system", help="system JSON file or builtin name")
    p.add_argument("--output", choices=("json", "text"), default="text")
    return p


def _add_scan(p: argparse.ArgumentParser):
    """The resonance scan options of `resonance` and `analyze`."""
    p.add_argument("--kbound", type=int, default=10)
    p.add_argument("--tol", type=float, default=1e-9)


def _add_ensemble(p: argparse.ArgumentParser, paths: int, **seed):
    """The ensemble options of `analyze` and `simulate`; they differ in --paths and --seed."""
    p.add_argument("--paths", type=int, default=paths)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1e6)
    p.add_argument("--seed", type=int, **seed)
    p.add_argument("--x0", default=None, help="comma-separated start point (default all 1s)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `sdefi` parser, built on first use and shared by later `main` calls.

    Sharing is safe: argparse copies an `append` default before appending to it.
    """
    ap = argparse.ArgumentParser(
        prog="sdefi",
        description="Decide, certify, or refute strong/weak first integrals "
                    "of polynomial and Laurent SDE systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    for mode in ("strong", "weak"):
        p = _add_common(sub, f"check-{mode}", f"exact {mode}-conservation check of a candidate")
        p.add_argument("--candidate", required=True,
                       help="polynomial text, NAME=POLY, or a file holding either")

    p = _add_common(sub, "search", "all first integrals inside a degree window")
    p.add_argument("--mode", choices=("strong", "weak"), required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)

    p = _add_common(sub, "resonance", "linearize and scan resonance lattices")
    _add_scan(p)

    p = _add_common(sub, "analyze", "combined report: linearization, resonance, bounded "
                                    "search, candidate checks, optional simulation")
    _add_scan(p)
    p.add_argument("--dmin", type=int, default=1)
    p.add_argument("--dmax", type=int, default=4)
    p.add_argument("--candidate", action="append", default=[],
                   help="NAME=POLY (repeatable)")
    p.add_argument("--simulate", action="store_true",
                   help="cross-check candidates by Monte Carlo (needs --seed)")
    _add_ensemble(p, 2000, default=None)

    p = _add_common(sub, "perturb", "construct a linear noise destroying all weak integrals")
    p.add_argument("--u", default="37/100", help="base ratio in (0,1), exact rational")
    p.add_argument("--lbound", type=int, default=8,
                   help="obstruction scan bound on |l|_1")
    p.add_argument("--degree", type=int, default=4,
                   help="verification window [1, degree] for the weak search")
    p.add_argument("--seed", type=int, default=0)

    p = _add_common(sub, "simulate", "Euler-Maruyama ensemble with frozen exits")
    _add_ensemble(p, 10000, required=True,
                  help="required: runs must be reproducible, no wall-clock default")
    p.add_argument("--candidate", action="append", default=[],
                   help="NAME=POLY to test along the ensemble (repeatable)")
    p.add_argument("--mode", choices=("weak", "strong"), default="weak",
                   help="conservation mode for --candidate checks")

    return ap


# command -> (builder: (system, args) -> report dict, renderer: report dict -> text lines)
_DISPATCH = {
    "check-strong": (_check, _verdict_text),
    "check-weak": (_check, _verdict_text),
    "search": (_search, _basis_text),
    "resonance": (_resonance, _resonance_text),
    "analyze": (_analyze, _analyze_text),
    "perturb": (_perturb, _perturb_text),
    "simulate": (_simulate, _ensemble_text),
}


def main(argv=None) -> int:
    """Parse, load the system, build the command's report and print it; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on bad flags; keep main() int-valued
        return int(e.code or 0)
    build, render = _DISPATCH[args.command]
    try:
        _print_report(build(load_system(args.system), args), render, args.output)
    except (ValueError, OSError, MemoryError) as e:  # every input error subclasses ValueError
        # MemoryError: an input too large for this machine, such as a huge ensemble
        print(f"error: {str(e) or 'out of memory'}", file=_sys.stderr)
        return 2
    except (ArithmeticError, AssertionError, RuntimeError) as e:
        print(f"internal failure: {e}", file=_sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    _sys.exit(main())
