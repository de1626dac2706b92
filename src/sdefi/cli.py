"""Command-line surface: system-file ingestion, dispatch, verdict reporting.

`main` runs every subcommand the same way: it loads the system, calls the
subcommand's builder for one JSON-able report dict, and prints that dict.
`--output json` prints it; `--output text` renders it line by line, reading
nothing but that dict, so the two modes cannot state different verdicts.

System files are JSON objects whose components are polynomial text, the
form `parse_poly_text` reads and `to_text` prints:

    {"var_names": ["x1"], "drift": ["x1"], "diffusion": [["x1"]]}

`drift` lists one component per variable and `diffusion` one such list per
noise channel, so the dimension and the noise count are the list lengths.
Coefficients are exact Gaussian rationals ("-3/2", "1/2i", "(1+2i)"); a
decimal is rejected, so every downstream identity test stays exact.  A
builtin name from `sdefi.systems` (e.g. "gbm") is accepted wherever a system
file is expected.

Each command loads only the layers it runs: reading a system file, building
a builtin, `check-strong` and `check-weak` need `algebra` and `ito` alone,
`search` adds `search` and `exactla`, `simulate` adds `mc`.  The handlers
call the other layers' names as attributes of this module
(`_cli.find_first_integrals`); the first read of one loads its layer through
the package table `sdefi._LAYERS` and binds the name here, never to be
rebound, so replacing `cli.<name>` before or after the first command changes
what the commands call.

Exit codes: 0 = analysis completed (verdicts live inside the report),
2 = input error (also an input too large for memory), 3 = internal numeric
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys as _sys
from fractions import Fraction
from pathlib import Path

from .algebra import LaurentPoly, VField, check_var_names, parse_poly_text, to_text
from .ito import IntegralVerdict, SdeSystem, check_strong, check_weak, require_candidate
from . import _bind, systems as _builtin

_cli = _sys.modules[__name__]  # the handlers read the other layers' names off it


def __getattr__(name: str):
    return _bind(globals(), name, __name__)


_SYSTEM_KEYS = ("var_names", "drift", "diffusion")
_SYSTEM_FORMAT = ('a system file is {"var_names": [names], "drift": [one component per '
                  'variable], "diffusion": [[one component per variable] per noise]}, '
                  'each component polynomial text such as "1/2 * x1^2 x2"')


class InputFormatError(ValueError):
    """A system/candidate file violates the input contract."""


# -- system (de)serialization ----------------------------------------------------


def _read_poly(text, var_names, where: str) -> LaurentPoly:
    """`parse_poly_text`, with any error prefixed by `where` the text stands."""
    if not isinstance(text, str):
        raise InputFormatError(f"{where}: expected polynomial text, got "
                               f"{type(text).__name__}; {_SYSTEM_FORMAT}")
    try:
        return parse_poly_text(text, var_names)
    except ValueError as e:
        raise InputFormatError(f"{where}: {e}") from None


def parse_system_dict(d) -> SdeSystem:
    if not isinstance(d, dict):
        raise InputFormatError(f"top level must be a JSON object; {_SYSTEM_FORMAT}")
    if set(d) != set(_SYSTEM_KEYS):
        raise InputFormatError(f"system file keys: expected {list(_SYSTEM_KEYS)}, "
                               f"got {sorted(d)}; {_SYSTEM_FORMAT}")
    names = d["var_names"]
    if not isinstance(names, list) or not names:
        raise InputFormatError("var_names must be a nonempty list of variable names")
    try:
        check_var_names(names)
    except ValueError as e:
        raise InputFormatError(f"var_names: {e}") from None
    dim = len(names)
    drift, diffusion = d["drift"], d["diffusion"]
    if not isinstance(drift, list) or len(drift) != dim:
        raise InputFormatError(f"drift must list {dim} components, one per variable")
    if not isinstance(diffusion, list):
        raise InputFormatError("diffusion must list the noise fields")
    for gi, field in enumerate(diffusion):
        if not isinstance(field, list) or len(field) != dim:
            raise InputFormatError(f"diffusion field {gi + 1} must list {dim} components")
    f = VField(tuple(_read_poly(c, names, f"drift component {i + 1}")
                     for i, c in enumerate(drift)))
    gs = tuple(VField(tuple(_read_poly(c, names, f"diffusion {gi + 1} component {i + 1}")
                            for i, c in enumerate(field)))
               for gi, field in enumerate(diffusion))
    return SdeSystem(f, gs, tuple(names))


def parse_system(path: str | Path) -> SdeSystem:
    text = Path(path).read_text(encoding="utf-8")
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputFormatError(f"{path}: malformed JSON: {e}") from None
    return parse_system_dict(d)


def serialize_system(sys: SdeSystem) -> dict:
    """The system file of `sys`: each component in canonical polynomial text."""
    names = sys.var_names
    return {
        "var_names": list(names),
        "drift": [to_text(p, names) for p in sys.drift],
        "diffusion": [[to_text(p, names) for p in g] for g in sys.diffusions],
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
    return name, _read_poly(text, var_names, f"candidate {spec!r}")


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
    lines = [f"system: dim={len(system['var_names'])} noise={len(system['diffusion'])} "
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


def _check_window(args):
    """Refuse an empty --dmin/--dmax window before any search work."""
    if args.dmin > args.dmax:
        raise InputFormatError(f"--dmin {args.dmin} exceeds --dmax {args.dmax}")


def _search(sys: SdeSystem, args) -> dict:
    _check_window(args)
    return _basis_dict(_cli.find_first_integrals(sys, args.mode, args.dmin, args.dmax),
                       sys.var_names)


def _resonance(sys: SdeSystem, args) -> dict:
    return _cli.nonintegrability_report(sys, K=args.kbound, tol=args.tol).to_dict()


def _analyze(sys: SdeSystem, args) -> dict:
    if args.simulate and args.seed is None:
        raise InputFormatError("--simulate needs --seed (runs must be reproducible)")
    if args.seed is not None and not args.simulate:
        raise InputFormatError("--seed needs --simulate (without it analyze simulates nothing)")
    _cli.check_scan_options(args.kbound, args.tol)  # also where the linearization does not apply
    _check_window(args)
    names = sys.var_names
    candidates = _candidates(args.candidate, sys)
    if args.simulate:
        cfg = _sim_config(sys, args)
        for _, phi in candidates:
            _cli.check_candidate(phi, cfg.x0)
    report: dict = {"system": serialize_system(sys)}

    try:
        data = _cli.linearization(sys)
        h1 = _cli.h1_check(data)
        report["linearization"] = _linearization_dict(data, h1)
    except _cli.NotApplicableError as e:
        report["linearization"] = {"applicable": False, "reason": str(e)}

    if report["linearization"]["applicable"]:
        rep = _cli.nonintegrability_report(sys, K=args.kbound, tol=args.tol,
                                           linearized=(data, h1))
        report["resonance"] = rep.to_dict()
    else:
        rep = None
        report["resonance"] = {"applicable": False,
                               "reason": report["linearization"]["reason"]}

    report["search"] = {}
    for mode in ("strong", "weak"):
        basis = _cli.find_first_integrals(sys, mode, args.dmin, args.dmax)
        report["search"][mode] = _basis_dict(basis, names)
        if mode == "strong" and rep is not None and rep.s_min is not None:
            report["count_bound"] = _cli.count_bound_check(basis, rep).to_dict()

    if candidates:
        report["candidates"] = [_verdict_dict(name, checker(sys, phi), names)
                                for name, phi in candidates
                                for checker in (check_strong, check_weak)]

    if args.simulate:
        report["simulation"] = _ensemble_report(sys, cfg, candidates, "weak")
    return report


def _perturb(sys: SdeSystem, args) -> dict:
    try:
        u = Fraction(args.u)
        in_range = 0 < u < 1
    except (ValueError, ZeroDivisionError):
        in_range = False
    if not in_range:
        raise InputFormatError(f"--u {args.u!r} is not a rational in (0,1)")
    if args.degree < 1:
        raise InputFormatError(f"--degree {args.degree} is below 1: the verification "
                               f"window [1, degree] is empty")
    if args.lbound < 0:
        raise InputFormatError(f"--lbound {args.lbound} is negative: the obstruction scan "
                               f"bound on |l|_1 must be at least 0")
    plan = _cli.build_perturbation(sys.drift, u=u, L=args.lbound, seed=args.seed)
    verdict = _cli.verify_perturbation(sys.drift, plan, D=args.degree)
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


def _candidates(specs, sys: SdeSystem, x0=None) -> list[tuple[str, LaurentPoly]]:
    """Each --candidate parsed and checked, before any work: refused if constant or, to be
    tested along paths from `x0`, if `check_candidate` refuses it."""
    parsed = []
    for spec in specs:
        name, phi = parse_candidate(spec, sys.var_names)
        if x0 is None:
            require_candidate(phi, sys.dim)
        else:
            _cli.check_candidate(phi, x0)
        parsed.append((name, phi))
    return parsed


def _sim_config(sys: SdeSystem, args):
    """The flags' `SimConfig`, refused if its start is on a pole of the system's fields."""
    cfg = _cli.SimConfig(x0=_parse_x0(args.x0, sys.dim), h=args.step, T=args.horizon,
                         N=args.paths, seed=args.seed, R=args.radius)
    _cli.check_start(sys, cfg.x0)
    return cfg


def _ensemble_report(sys: SdeSystem, cfg, candidates, mode: str) -> dict:
    """The ensemble `cfg` describes, and each checked candidate's conservation test along it."""
    ens = _cli.simulate_paths(sys, cfg)
    report = _ensemble_dict(ens)
    if candidates:
        report["candidates"] = [
            {"candidate": name, **_cli.conservation_test(ens, phi, mode).to_dict()}
            for name, phi in candidates]
    return report


def _simulate(sys: SdeSystem, args) -> dict:
    cfg = _sim_config(sys, args)
    return _ensemble_report(sys, cfg, _candidates(args.candidate, sys, cfg.x0), args.mode)


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
