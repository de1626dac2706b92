"""System JSON parsing/serialization, candidate parsing, CLI dispatch and exit codes."""

import argparse
import importlib
import inspect
import json
import os
import random
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

from sdefi import cli, systems
from sdefi.algebra import CRational, LaurentPoly, VField
from sdefi.ito import SdeSystem
from sdefi.cli import (
    InputFormatError,
    _parse_x0,
    load_system,
    main,
    parse_candidate,
    parse_system,
    parse_system_dict,
    serialize_system,
)

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"
SRC_DIR = SYSTEMS_DIR.parent / "src"


def gbm_dict():
    return {"var_names": ["x1"], "drift": ["x1"], "diffusion": [["x1"]]}


def _write(tmp_path, d) -> str:
    p = tmp_path / "system.json"
    p.write_text(json.dumps(d), encoding="utf-8")
    return str(p)


# -- parsing ---------------------------------------------------------------------------


def test_parse_gbm_dict_matches_builder():
    assert parse_system_dict(gbm_dict()) == systems.gbm()


def test_serialize_parse_roundtrip_all_builtins():
    for name, builder in systems.REGISTRY.items():
        sys = builder()
        assert parse_system_dict(serialize_system(sys)) == sys, name


def test_committed_system_files_match_builders():
    files = sorted(SYSTEMS_DIR.glob("*.json"))
    assert len(files) == len(systems.REGISTRY)
    for path in files:
        builder = systems.REGISTRY[path.stem]
        assert json.loads(path.read_text()) == serialize_system(builder()), path.stem
        assert parse_system(path) == builder(), path.stem


def test_system_files_roundtrip_through_the_parser():
    for path in sorted(SYSTEMS_DIR.glob("*.json")):
        assert serialize_system(parse_system(path)) == json.loads(path.read_text()), path.stem


def test_random_systems_roundtrip_through_json():
    # Laurent exponents, Gaussian-rational coefficients, zero components, dims 1-4 and
    # 0-2 noise fields, under assorted variable names
    rng = random.Random(24)

    def coeff():
        real, imag = (Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(2))
        return CRational(real, imag if rng.random() < 0.5 else 0)

    def component(dim):
        if rng.random() < 0.2:
            return LaurentPoly.zero(dim)
        return LaurentPoly(dim, {tuple(rng.randint(-3, 3) for _ in range(dim)): coeff()
                                 for _ in range(rng.randint(1, 4))})

    seen = set()
    for _ in range(200):
        dim, m = rng.randint(1, 4), rng.randint(0, 2)
        names = rng.sample(["x1", "x2", "r", "phi", "_t", "y9", "ii", "W"], dim)
        sys = SdeSystem(VField(tuple(component(dim) for _ in range(dim))),
                        tuple(VField(tuple(component(dim) for _ in range(dim)))
                              for _ in range(m)), names)
        assert parse_system_dict(json.loads(json.dumps(serialize_system(sys)))) == sys
        comps = [p for field in (sys.drift, *sys.diffusions) for p in field]
        seen.add((dim, m))
        seen |= {"zero" for p in comps if p.is_zero}
        seen |= {"laurent" for p in comps for e, _ in p.terms() if min(e) < 0}
        seen |= {"gaussian" for p in comps for _, c in p.terms() if c.im}
    assert seen >= {(d, m) for d in range(1, 5) for m in range(3)} | {"zero", "laurent",
                                                                       "gaussian"}


@pytest.mark.parametrize("text, want", [
    (" 3/4 ", Fraction(3, 4)), ("+2", Fraction(2)), ("-0/7", Fraction(0)),
    ("-6/4", Fraction(-3, 2)), ("10/5", Fraction(2)),
    ("1/0", "zero denominator in coefficient '1/0'"),
    ("0.5", "coefficient '0.5' is not an exact rational (write 1/2, not 0.5)"),
    ("1/-2", "coefficient '1/-2' is not an exact rational (write 1/2, not 0.5)"),
    ("", "empty polynomial text"),
])
def test_coefficient_strings(text, want):
    d = gbm_dict()
    d["drift"] = [text]
    if isinstance(want, Fraction):
        assert parse_system_dict(d).drift[0].coeff((0,)) == CRational(want)
    else:
        with pytest.raises(InputFormatError) as err:
            parse_system_dict(d)
        assert str(err.value) == f"drift component 1: {want}"


def test_drift_length_mismatch():
    d = gbm_dict()
    d["drift"] = []
    with pytest.raises(InputFormatError, match="drift must list 1"):
        parse_system_dict(d)


def test_decimal_coefficient_rejected():
    d = gbm_dict()
    d["drift"] = ["0.5 * x1"]
    with pytest.raises(InputFormatError, match="exact rational"):
        parse_system_dict(d)


@pytest.mark.parametrize("candidate, token", [("0.5*x1", "0.5"), ("1e3 x1", "1e3")])
def test_decimal_coefficient_gets_the_exact_rational_hint(candidate, token, capsys):
    # a decimal is named as an inexact coefficient, not as an unknown variable; in a
    # system file it reads the same (test_coefficient_strings)
    assert main(["check-weak", "gbm", "--candidate", candidate]) == 2
    assert capsys.readouterr().err == (f"error: candidate {candidate!r}: coefficient "
                                       f"{token!r} is not an exact rational (write 1/2, "
                                       f"not 0.5)\n")


def test_zero_denominator_rejected():
    d = gbm_dict()
    d["drift"] = ["1/0 * x1"]
    with pytest.raises(InputFormatError, match="zero denominator"):
        parse_system_dict(d)


def test_missing_and_unknown_keys_reported():
    d = gbm_dict()
    del d["diffusion"]
    d["extra"] = 1
    with pytest.raises(InputFormatError, match="system file keys"):
        parse_system_dict(d)


def test_exponent_list_file_is_input_error(tmp_path, capsys):
    # the term-list format of earlier versions names the keys and the text form it needs
    old = {"dim": 1, "noise_dim": 1, "var_names": ["x1"],
           "drift": [[{"c": ["1/1", "0/1"], "e": [1]}]],
           "diffusion": [[[{"c": ["1/1", "0/1"], "e": [1]}]]]}
    assert main(["check-weak", _write(tmp_path, old), "--candidate", "x1^-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: system file keys: expected ['var_names', 'drift', "
                          "'diffusion'], got ['diffusion', 'dim', 'drift', 'noise_dim', "
                          "'var_names']") and "polynomial text" in err, err


@pytest.mark.parametrize("key, value, where", [
    ("drift", [[{"c": ["1", "0"], "e": [1]}]], "drift component 1: expected polynomial text, "
                                               "got list"),
    ("drift", [3], "drift component 1: expected polynomial text, got int"),
    ("diffusion", [[2.5]], "diffusion 1 component 1: expected polynomial text, got float"),
    ("diffusion", [[""]], "diffusion 1 component 1: empty polynomial text"),
])
def test_bad_component_is_input_error_at_its_location(key, value, where, tmp_path, capsys):
    d = dict(gbm_dict(), **{key: value})
    assert main(["check-weak", _write(tmp_path, d), "--candidate", "x1"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")


def test_truncated_component_is_input_error(tmp_path, capsys):
    # a component cut off after its sign used to load as the terms before it
    d = dict(gbm_dict(), drift=["x1 +"])
    assert main(["check-weak", _write(tmp_path, d), "--candidate", "x1"]) == 2
    assert capsys.readouterr().err.startswith("error: drift component 1: sign with no term")


def test_var_names_must_be_distinct_identifiers():
    d = {"var_names": ["x", "x"], "drift": ["0", "0"], "diffusion": [["0", "0"]]}
    with pytest.raises(InputFormatError, match="distinct"):
        parse_system_dict(d)
    for bad in (["x", "2y"], ["x", True]):
        d["var_names"] = bad
        with pytest.raises(InputFormatError, match="identifier"):
            parse_system_dict(d)


def test_non_ascii_variable_name_is_input_error(tmp_path, capsys):
    # the text form reads only ASCII names: such a file could load, yet no candidate
    # over its variables could be read
    d = {"var_names": ["α"], "drift": ["α"], "diffusion": []}
    assert main(["check-weak", _write(tmp_path, d), "--candidate", "α"]) == 2
    assert capsys.readouterr().err == ("error: var_names: variable name 'α' is not an ASCII "
                                       "identifier ([A-Za-z_][A-Za-z_0-9]*)\n")


def test_imaginary_unit_is_not_a_variable_name(tmp_path, capsys):
    # `i` would print as a variable and parse back as the constant 1i
    d = {"var_names": ["i"], "drift": ["i"], "diffusion": [["i"]]}
    assert main(["check-weak", _write(tmp_path, d), "--candidate", "i"]) == 2
    assert capsys.readouterr().err.startswith("error: var_names: 'i' is the imaginary unit")


def test_malformed_json_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{", encoding="utf-8")
    with pytest.raises(InputFormatError, match="malformed JSON"):
        parse_system(p)


def test_load_system_builtin_and_unknown():
    assert load_system("gbm") == systems.gbm()
    with pytest.raises(InputFormatError, match="builtin"):
        load_system("no_such_system")


# -- candidates ------------------------------------------------------------------------


def test_parse_candidate_forms(tmp_path):
    names = ("x1", "x2")
    n, p = parse_candidate("x1^2 + x2^2", names)
    assert n == "phi" and not p.is_zero
    n, p = parse_candidate("E = x1^2", names)
    assert n == "E"
    f = tmp_path / "cand.txt"
    f.write_text("M = x1 x2\n", encoding="utf-8")
    n, p = parse_candidate(str(f), names)
    assert n == "M" and p.coeff((1, 1)) == 1
    with pytest.raises(InputFormatError, match="identifier"):
        parse_candidate("2bad = x1", names)
    with pytest.raises(InputFormatError, match="candidate"):
        parse_candidate("y7 + 1", names)


def test_parse_x0():
    assert _parse_x0(None, 3) == (1.0, 1.0, 1.0)
    assert _parse_x0("2,0.5", 2) == (2.0, 0.5)
    with pytest.raises(InputFormatError):
        _parse_x0("1,2", 3)
    with pytest.raises(InputFormatError):
        _parse_x0("a,b", 2)


# -- dispatch and exit codes -----------------------------------------------------------


def test_check_weak_builtin(capsys):
    assert main(["check-weak", "gbm", "--candidate", "x1^-1"]) == 0
    out = capsys.readouterr().out
    assert "weak first integral: YES" in out


def test_check_strong_fails_with_residual(capsys):
    assert main(["check-strong", "gbm", "--candidate", "x1^-1"]) == 0
    out = capsys.readouterr().out
    assert "strong first integral: NO" in out
    assert "residual" in out


def test_missing_file_is_input_error(capsys):
    assert main(["analyze", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_candidate_is_input_error(capsys):
    assert main(["check-weak", "gbm", "--candidate", "y3"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check-weak", "gbm", "--candidate", "1/0 x1"],
    ["check-weak", "gbm", "--candidate", "(1/0+1i) x1"],
    ["simulate", "gbm", "--seed", "1", "--paths", "4", "--candidate", "x1^2 + 1/0"],
])
def test_zero_denominator_candidate_is_input_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero denominator" in err, err


def test_perturb_inapplicable_drift_is_input_error(tmp_path, capsys):
    # perturb needs f(0) = 0 and a nonsingular Df(0); a drift without them is an
    # inapplicable request (exit 2)
    from sdefi.algebra import VField, parse_poly_text
    from sdefi.ito import SdeSystem

    def write(*texts):
        names = tuple(f"x{i + 1}" for i in range(len(texts)))
        sys = SdeSystem(VField(tuple(parse_poly_text(t, names) for t in texts)), (), names)
        p = tmp_path / "drift.json"
        p.write_text(json.dumps(serialize_system(sys)), encoding="utf-8")
        return str(p)

    for texts, reason in [(("x2", "0"), "drift Jacobian at the origin is singular"),
                          (("1 + x1",), "drift does not vanish at the origin"),
                          (("x1^-1",), "component 1 has a pole at the origin")]:
        assert main(["perturb", write(*texts)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {reason}")


def test_simulate_requires_seed(capsys):
    assert main(["simulate", "gbm", "--paths", "4"]) == 2


def test_simulate_seed_beyond_64_bits_is_input_error(capsys):
    assert main(["simulate", "gbm", "--seed", str(2 ** 64), "--paths", "4"]) == 2
    assert "64-bit" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--step", "inf"], ["--horizon", "inf"], ["--radius", "nan"],
                                   ["--radius", "0"], ["--x0", "nan"], ["--x0", "0"]])
def test_simulate_nonfinite_or_pole_inputs_are_input_errors(flags, capsys):
    # --x0 0 puts the start on the candidate's pole
    argv = ["simulate", "gbm", "--seed", "1", "--paths", "4", "--candidate", "x1^-1", *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_simulate_rejects_a_constant_candidate(mode, capsys):
    # a constant is conserved vacuously, as the exact checks say
    argv = ["simulate", "gbm", "--seed", "1", "--paths", "100", "--candidate", "c=3",
            "--mode", mode]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: candidate is constant")


@pytest.mark.parametrize("message", ["Unable to allocate 72.8 TiB for an array", ""])
def test_simulate_out_of_memory_is_input_error(monkeypatch, message, capsys):
    # an ensemble too large for the machine; simulate_paths is replaced, so nothing large
    # is allocated
    def too_large(*_args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "simulate_paths", too_large)
    assert main(["simulate", "gbm", "--seed", "1", "--paths", "10000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert (message or "out of memory") in err


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_resonance_negative_or_nan_tol_is_input_error(tol, capsys):
    # with tol = -1 no float q(k) counted as zero: the A0 scan of cyclic_exchange
    # came back empty and claimed NO_STRONG_ANALYTIC, though x1+x2+x3 is a strong
    # integral; with tol = inf every float q(k) would count as zero
    argv = ["resonance", "cyclic_exchange", "--kbound", "4", "--tol", tol]
    assert main(argv) == 2
    assert "tolerance" in capsys.readouterr().err
    # two_body's drift has a pole at the origin: analyze checks the scan options anyway
    for name in ("gbm", "two_body"):
        assert main(["analyze", name, "--dmax", "1", "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resonance", "analyze"])
@pytest.mark.parametrize("name", ["gbm", "two_body"])
def test_negative_kbound_is_input_error(command, name, capsys):
    assert main([command, name, "--kbound", "-2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "window bound K" in err


def _strict_json(text):
    """Parse RFC 8259 JSON: Infinity, -Infinity and NaN are refused."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_json_output_prints_nonfinite_floats_as_null(tmp_path, capsys):
    # one path: no standard error, so no threshold
    assert main(["simulate", "gbm", "--seed", "1", "--paths", "1", "--candidate", "x1",
                 "--output", "json"]) == 0
    cand = _strict_json(capsys.readouterr().out)["candidates"][0]
    assert cand["stderr"] is None and cand["threshold"] is None
    # dx = x^3 dt from x0 = 10 overflows on every path: no mean final state
    d = {"var_names": ["x1"], "drift": ["x1^3"], "diffusion": []}
    p = tmp_path / "cube.json"
    p.write_text(json.dumps(d), encoding="utf-8")
    assert main(["simulate", str(p), "--seed", "0", "--x0", "10", "--step", "0.1",
                 "--radius", "inf", "--paths", "2", "--output", "json"]) == 0
    rep = _strict_json(capsys.readouterr().out)
    assert rep["n_overflow"] == 2 and rep["final_mean"] == [None] and rep["radius"] is None


def test_simulate_json_report(capsys):
    rc = main(["simulate", "gbm", "--seed", "3", "--paths", "64", "--step", "0.01",
               "--horizon", "0.5", "--candidate", "inv=x1^-1", "--output", "json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["paths"] == 64 and rep["seed"] == 3
    cand = rep["candidates"][0]
    assert cand["candidate"] == "inv" and cand["passed"]


def test_search_json(capsys):
    rc = main(["search", "gbm", "--mode", "weak", "--dmin", "-1", "--dmax", "1",
               "--output", "json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["basis"] == ["x1^-1"]
    assert rep["independence_rank"] == 1


def test_search_bad_window(capsys):
    assert main(["search", "gbm", "--mode", "weak", "--dmin", "3", "--dmax", "1"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["search", "gbm", "--mode", "weak", "--dmin", "3", "--dmax", "1"],
     "--dmin 3 exceeds --dmax 1"),
    (["analyze", "harmonic_oscillator", "--dmin", "3", "--dmax", "1"],
     "--dmin 3 exceeds --dmax 1"),
    (["perturb", "harmonic_oscillator", "--degree", "0"],
     "--degree 0 is below 1: the verification window [1, degree] is empty"),
    # two_body is a system perturb refuses; the flag is refused first
    (["perturb", "two_body", "--degree", "-1"],
     "--degree -1 is below 1: the verification window [1, degree] is empty"),
])
def test_empty_window_is_refused_before_any_work(argv, message, capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("ran before the window check")

    for name in ("find_first_integrals", "linearization", "build_perturbation"):
        monkeypatch.setattr(cli, name, work)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_NOT_TEXT = "candidate 'x1 +': sign with no term after it in 'x1 +'"
_CONSTANT = "candidate is constant; conservation would be vacuous"
_POLE = "candidate x1^-1 has a pole at x0=(0.0,)"
# every path from a pole of the system's fields is excluded at its first step
_SYSTEM_POLE = "the system has a pole at x0=(0.0, 0.0, 0.0, 0.0)"
_ON_POLE = ["two_body", "--seed", "1", "--x0", "0,0,0,0"]


@pytest.mark.parametrize("argv, message", [
    (["simulate", "gbm", "--seed", "1", "--candidate", "x1 +"], _NOT_TEXT),
    (["simulate", "gbm", "--seed", "1", "--candidate", "x1", "--candidate", "3"], _CONSTANT),
    (["simulate", "gbm", "--seed", "1", "--x0", "0", "--candidate", "x1^-1"], _POLE),
    (["simulate", "gbm", "--seed", "1", "--candidate", "1/2i x1"],
     "simulation requires real coefficients"),
    (["analyze", "gbm", "--candidate", "x1 +"], _NOT_TEXT),
    (["analyze", "harmonic_oscillator", "--candidate", "3"], _CONSTANT),
    (["analyze", "gbm", "--simulate", "--seed", "1", "--x0", "0", "--candidate", "x1^-1"], _POLE),
    (["simulate", *_ON_POLE], _SYSTEM_POLE),
    (["simulate", *_ON_POLE, "--candidate", "v"], _SYSTEM_POLE),
    (["analyze", "--simulate", *_ON_POLE], _SYSTEM_POLE),
])
def test_bad_candidate_is_refused_before_any_work(argv, message, capsys, monkeypatch):
    # the ensemble, the linearization, the scans and the searches each take seconds on a
    # large input; a candidate or a start they could never be used for is refused before them
    def work(*args, **kwargs):
        raise AssertionError("ran before the candidate and start checks")

    for name in ("simulate_paths", "linearization", "nonintegrability_report",
                 "find_first_integrals"):
        monkeypatch.setattr(cli, name, work)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_resonance_text_output(capsys):
    assert main(["resonance", "lotka_volterra"]) == 0
    out = capsys.readouterr().out
    assert "NO_WEAK_ANALYTIC" in out
    assert "certified" in out


def test_analyze_json_schema(capsys):
    rc = main(["analyze", "lotka_volterra", "--output", "json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    verdicts = rep["resonance"]["verdicts"]
    assert verdicts, "expected at least one verdict"
    for v in verdicts:
        assert {"code", "theorem", "hypotheses_checked", "epistemic_status",
                "detail"} <= set(v)
        assert v["epistemic_status"]["kind"] in ("certified", "bounded")
        if v["epistemic_status"]["kind"] == "bounded":
            assert {"K", "tol"} <= set(v["epistemic_status"])
    assert any(v["code"] == "NO_WEAK_ANALYTIC"
               and v["epistemic_status"]["kind"] == "certified" for v in verdicts)
    assert rep["search"]["weak"]["count"] == 0
    assert rep["count_bound"]["consistent"]
    assert rep["system"] == serialize_system(systems.lotka_volterra())


def test_analyze_laurent_window_respects_the_analytic_bound(tmp_path, capsys):
    # x' = (x1, x2) has the rational integrals x1 x2^-1 and x1^-1 x2 but, by the
    # half-plane test on {1, 1}, no analytic one: s_min = 0 is no violation
    from sdefi.algebra import VField, parse_poly_text
    from sdefi.ito import SdeSystem

    names = ("x1", "x2")
    node = SdeSystem(VField(tuple(parse_poly_text(t, names) for t in names)), (), names)
    p = tmp_path / "node.json"
    p.write_text(json.dumps(serialize_system(node)), encoding="utf-8")
    assert main(["analyze", str(p), "--dmin", "-1", "--dmax", "1"]) == 0
    out = capsys.readouterr().out
    assert "BOUND VIOLATED" not in out
    assert "count bound: rank 0 <= s_min 0? yes (consistent; rank counts only the 0 polynomial" in out


def test_analyze_linearizes_once(monkeypatch, capsys):
    # the resonance report reuses the linearization and H1 check analyze already made
    from sdefi import cli, resonance
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, resonance):
        for name in ("linearization", "h1_check"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert main(["analyze", "cyclic_exchange", "--output", "json", "--dmax", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["resonance"]["verdicts"]
    assert sorted(calls) == ["h1_check", "linearization"]


def test_analyze_survives_laurent_drift(capsys):
    # linearization is undefined for the two-body system; the report must say so
    # and still run the searches
    rc = main(["analyze", "two_body", "--output", "json", "--dmax", "3"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["linearization"]["applicable"] is False
    assert rep["resonance"]["applicable"] is False
    assert rep["search"]["weak"]["basis"] == ["r^2 w"]
    assert rep["search"]["strong"]["basis"] == []


def test_analyze_simulate_needs_seed(capsys):
    assert main(["analyze", "gbm", "--simulate"]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [(["--simulate"], "--simulate needs --seed"),
                                            (["--seed", "3"], "--seed needs --simulate")])
def test_analyze_checks_simulation_flags_first(monkeypatch, flags, message, capsys):
    # a flag mistake is refused before the linearization, the scans and the searches run;
    # --seed alone used to print a report that silently ignored it
    def never(*_args, **_kwargs):
        raise AssertionError("analyze worked before checking its flags")

    for name in ("linearization", "nonintegrability_report", "find_first_integrals"):
        monkeypatch.setattr(cli, name, never)
    assert main(["analyze", "cyclic_exchange", *flags]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and out.err.count("\n") == 1
    assert message in out.err


# (subcommand, option strings or positional name, default, required), in declaration order
OPTIONS = [
    ("check-strong", "system", None, True),
    ("check-strong", ("--output",), "text", False),
    ("check-strong", ("--candidate",), None, True),
    ("check-weak", "system", None, True),
    ("check-weak", ("--output",), "text", False),
    ("check-weak", ("--candidate",), None, True),
    ("search", "system", None, True),
    ("search", ("--output",), "text", False),
    ("search", ("--mode",), None, True),
    ("search", ("--dmin",), None, True),
    ("search", ("--dmax",), None, True),
    ("resonance", "system", None, True),
    ("resonance", ("--output",), "text", False),
    ("resonance", ("--kbound",), 10, False),
    ("resonance", ("--tol",), 1e-09, False),
    ("analyze", "system", None, True),
    ("analyze", ("--output",), "text", False),
    ("analyze", ("--kbound",), 10, False),
    ("analyze", ("--tol",), 1e-09, False),
    ("analyze", ("--dmin",), 1, False),
    ("analyze", ("--dmax",), 4, False),
    ("analyze", ("--candidate",), [], False),
    ("analyze", ("--simulate",), False, False),
    ("analyze", ("--paths",), 2000, False),
    ("analyze", ("--step",), 0.001, False),
    ("analyze", ("--horizon",), 1.0, False),
    ("analyze", ("--radius",), 1000000.0, False),
    ("analyze", ("--seed",), None, False),
    ("analyze", ("--x0",), None, False),
    ("perturb", "system", None, True),
    ("perturb", ("--output",), "text", False),
    ("perturb", ("--degree",), 4, False),
    ("simulate", "system", None, True),
    ("simulate", ("--output",), "text", False),
    ("simulate", ("--paths",), 10000, False),
    ("simulate", ("--step",), 0.001, False),
    ("simulate", ("--horizon",), 1.0, False),
    ("simulate", ("--radius",), 1000000.0, False),
    ("simulate", ("--seed",), None, True),
    ("simulate", ("--x0",), None, False),
    ("simulate", ("--candidate",), [], False),
    ("simulate", ("--mode",), "weak", False),
]


def test_every_option_and_default_is_pinned():
    # options shared by several subcommands are declared once; each keeps its default
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    seen = [(cmd, tuple(a.option_strings) or a.dest, a.default, a.required)
            for cmd, p in sub.choices.items() for a in p._actions
            if not isinstance(a, argparse._HelpAction)]
    assert seen == OPTIONS


def test_parser_reuse_does_not_leak_candidates(capsys):
    # main() builds its parser once; one call's --candidate must not reach the next
    assert main(["analyze", "gbm", "--dmax", "1", "--candidate", "a=x1", "--candidate", "b=x1^2",
                 "--output", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["candidates"]) == 4
    assert main(["analyze", "gbm", "--dmax", "1", "--output", "json"]) == 0
    assert "candidates" not in json.loads(capsys.readouterr().out)


def test_perturb_survivors_use_the_system_variable_names(tmp_path, capsys, monkeypatch):
    # on the saddle y + y^2 z, -z the uncertified a = 1 leaves z^3 a weak integral;
    # JSON and text must both name it z^3
    from sdefi.perturb import PerturbationPlan

    real = cli.build_perturbation

    def at_one(drift):
        plan = real(drift)
        return PerturbationPlan(Fraction(1), plan.dim, plan.det_Df, plan.certificate)

    monkeypatch.setattr(cli, "build_perturbation", at_one)
    d = {"var_names": ["y", "z"], "drift": ["y + y^2 z", "-1 * z"], "diffusion": []}
    p = tmp_path / "yz.json"
    p.write_text(json.dumps(d), encoding="utf-8")
    argv = ["perturb", str(p), "--degree", "3"]
    assert main(argv + ["--output", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["plan"]["a"] == "1"
    assert rep["verification"] == {"passed": False, "window": [1, 3], "found": ["z^3"]}
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "verification: weak search on window [1, 3] -> FAIL (1 weak integral(s) survive)" in lines
    assert "  survivor: z^3" in lines


def _text_commands(name, var_names):
    from sdefi import cli

    cand = f"a={var_names[0]}^2"
    sim = ["--seed", "2", "--paths", "16", "--step", "0.01", "--horizon", "0.1"]
    return [
        (["check-strong", name, "--candidate", cand], cli._verdict_text),
        (["check-weak", name, "--candidate", cand], cli._verdict_text),
        (["search", name, "--mode", "weak", "--dmin", "-1", "--dmax", "2"], cli._basis_text),
        (["resonance", name, "--kbound", "6"], cli._resonance_text),
        (["analyze", name, "--dmax", "2", "--kbound", "6", "--candidate", cand,
          "--simulate"] + sim, cli._analyze_text),
        (["perturb", name, "--degree", "2"], cli._perturb_text),
        (["simulate", name, "--candidate", cand] + sim, cli._ensemble_text),
    ]


@pytest.mark.parametrize("name", sorted(systems.REGISTRY))
def test_text_output_renders_the_json_report(name, capsys):
    # one report per command: text mode is a pure function of the JSON report
    for argv, render in _text_commands(name, systems.REGISTRY[name]().var_names):
        rc = main(argv + ["--output", "json"])
        out = capsys.readouterr()
        assert main(argv + ["--output", "text"]) == rc, argv
        text = capsys.readouterr()
        if rc != 0:  # an error report goes to stderr, the same in both modes
            assert (out.out, out.err) == ("", text.err) and text.out == "", argv
            continue
        assert text.out == "\n".join(render(json.loads(out.out))) + "\n", argv


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter importing sdefi from the source tree, at the repo root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *args], input=code, cwd=SYSTEMS_DIR.parent, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc


_LAYERS = ("exactla", "mc", "perturb", "resonance", "search", "spectral")

# sdefi's import, the system files, the builtins and the exact checks, in a fresh interpreter
_EXACT_WORK = """
import contextlib, glob, io, json, sys
import sdefi
from sdefi import cli, systems
loaded = [cli.load_system(p) for p in sorted(glob.glob("systems/*.json"))]
built = [build() for build in systems.REGISTRY.values()]
with contextlib.redirect_stdout(io.StringIO()):
    exact = [cli.main(["check-strong", "systems/two_body.json", "--candidate", "r^2 w"]),
             cli.main(["check-weak", "systems/gbm.json", "--candidate=x1^-1"])]
"""

# the exact work never loads numpy, nor dataclasses and inspect (sdefi's records are
# plain classes), nor any layer beyond algebra and ito; the first numeric layer loads numpy
_COLD_START = _EXACT_WORK + f"""
cold = [m for m in ("numpy", "dataclasses", "inspect", *("sdefi." + m for m in {_LAYERS!r}))
        if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    numeric = cli.main(["resonance", "lotka_volterra", "--output", "json"])
print(json.dumps([len(loaded), len(built), exact, cold, numeric, "numpy" in sys.modules]))
"""


def test_exact_work_never_loads_numpy():
    proc = _fresh(_COLD_START)
    assert json.loads(proc.stdout) == [8, len(systems.REGISTRY), [0, 0], [], 0, True]


def test_reading_systems_never_imports_typing():
    # run without site, whose .pth files may import typing themselves
    code = _EXACT_WORK + "print(json.dumps([len(loaded), exact, 'typing' in sys.modules]))\n"
    assert json.loads(_fresh(code, "-S").stdout) == [8, [0, 0], False]


# each command loads only the layers it runs (beyond algebra, ito and systems)
@pytest.mark.parametrize("argv, layers", [
    (["check-strong", "gbm", "--candidate", "x1^-1"], []),
    (["search", "gbm", "--mode", "weak", "--dmin", "-1", "--dmax", "2"], ["exactla", "search"]),
    (["simulate", "gbm", "--seed", "1", "--paths", "8", "--candidate", "x1^-1"], ["mc"]),
    (["resonance", "lotka_volterra"], ["exactla", "resonance", "spectral"]),
    (["analyze", "gbm", "--dmax", "2"], ["exactla", "resonance", "search", "spectral"]),
    (["perturb", "harmonic_oscillator", "--degree", "2"],
     ["exactla", "perturb", "search", "spectral"]),
])
def test_each_command_loads_only_its_layers(argv, layers):
    code = f"""
import contextlib, io, sys
from sdefi import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main({argv!r})
print(rc, *sorted(m[6:] for m in sys.modules if m.startswith("sdefi.") and m[6:] in {_LAYERS!r}))
"""
    assert _fresh(code).stdout.split() == ["0", *layers]


def test_a_name_patched_before_its_layer_loads_is_the_one_called():
    # cli.<name> is readable and replaceable before its layer is loaded, and a command
    # binding its layer's names keeps the replacement
    code = """
import contextlib, io, json
from sdefi import cli
real = cli.find_first_integrals
calls = []
cli.find_first_integrals = lambda *args: calls.append(args[1:]) or real(*args)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["search", "gbm", "--mode", "weak", "--dmin", "1", "--dmax", "2"])
print(json.dumps([rc, calls, real.__module__]))
"""
    assert json.loads(_fresh(code).stdout) == [0, [["weak", 1, 2]], "sdefi.search"]


# the sdefi namespace: `import sdefi` loads algebra and ito, and every other name in
# `__all__` and each other submodule loads its module on first access
def test_import_sdefi_loads_only_the_exact_core():
    code = "import sys, sdefi\nprint(*sorted(m for m in sys.modules if m.startswith('sdefi.')))\n"
    assert _fresh(code).stdout.split() == ["sdefi.algebra", "sdefi.ito"]


def test_star_import_binds_all_of_all():
    code = """
import json, sys
from sdefi import *
import sdefi
print(json.dumps([[n for n in sdefi.__all__ if globals().get(n) is not getattr(sdefi, n)],
                  sorted(m for m in sys.modules if m.startswith("sdefi."))]))
"""
    assert json.loads(_fresh(code).stdout) == [[], [f"sdefi.{m}" for m in sorted(
        ("algebra", "ito", *_LAYERS))]]


def test_submodules_load_on_attribute_access():
    code = ("import sdefi\nprint(sdefi.mc.simulate_paths.__module__, sdefi.search.__name__, "
            "sdefi.cli.main.__module__)\n")
    assert _fresh(code).stdout.split() == ["sdefi.mc", "sdefi.search", "sdefi.cli"]


def test_sdefi_exports_are_their_modules_objects_and_dir_lists_them():
    import sdefi

    assert set(sdefi.__all__) | {"cli", "systems", *_LAYERS} <= set(dir(sdefi))
    for name in sdefi.__all__:
        value = getattr(sdefi, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_all_lists_each_table_name_once():
    # `_LAYERS` is the one name -> layer table: `__all__` is its names and __version__
    import sdefi

    names = [n for names in sdefi._LAYERS.values() for n in names]
    assert len(set(sdefi.__all__)) == len(sdefi.__all__)
    assert sorted(sdefi.__all__) == sorted([*names, "__version__"])
    assert not set(names) & set(sdefi._LAYERS)


def test_cli_binds_table_names_to_their_layers_objects():
    # the names the commands bind in cli are served by the package table and are the layer
    # modules' own objects, read from the layer, not through the package namespace
    code = """
import contextlib, io, json, sys
import sdefi
from sdefi import cli
before = set(vars(cli))
sim = ["--simulate", "--seed", "1", "--paths", "8"]
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(argv) for argv in (
        ["analyze", "lotka_volterra", "--dmax", "2", "--candidate", "x1^2", *sim],
        ["analyze", "two_body", "--dmax", "1"],
        ["perturb", "harmonic_oscillator", "--degree", "2"])]
bound = sorted(set(vars(cli)) - before)
layer = {n: sys.modules.get("sdefi." + sdefi._LAYER_OF.get(n, "?")) for n in bound}
print(json.dumps([rcs, bound, [n for n in bound if getattr(layer[n], n, None) is not vars(cli)[n]],
                  [n for n in bound if n in vars(sdefi)]]))
"""
    assert json.loads(_fresh(code).stdout) == [[0, 0, 0], sorted([
        "NotApplicableError", "SimConfig", "build_perturbation", "check_candidate",
        "check_scan_options", "check_start", "conservation_test", "count_bound_check",
        "find_first_integrals", "h1_check", "linearization", "nonintegrability_report",
        "simulate_paths", "verify_perturbation"]), [], []]


@pytest.mark.parametrize("module", ["algebra", "cli", "exactla", "ito", "mc", "perturb",
                                    "resonance", "search", "spectral", "systems"])
def test_type_hints_resolve(module):
    # typing.get_type_hints evaluates each annotation in its module's namespace, where
    # numpy and the lazily loaded layers are not bound, so no annotation may name them
    mod = importlib.import_module(f"sdefi.{module}")
    typing.get_type_hints(mod)
    for obj in vars(mod).values():
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__:
            typing.get_type_hints(obj)
            for member in vars(obj).values() if inspect.isclass(obj) else ():
                member = getattr(member, "fget", getattr(member, "__func__", member))
                if inspect.isfunction(member):
                    typing.get_type_hints(member)


def test_unknown_names_raise_attribute_error():
    import sdefi

    for module in (sdefi, cli):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name  # noqa: B018
