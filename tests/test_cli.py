"""System JSON parsing/serialization, candidate parsing, CLI dispatch and exit codes."""

import argparse
import json
from fractions import Fraction
from pathlib import Path

import pytest

from sdefi import cli, systems
from sdefi.algebra import CRational
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


def gbm_dict():
    return {
        "dim": 1,
        "noise_dim": 1,
        "var_names": ["x1"],
        "drift": [[{"c": ["1", "0"], "e": [1]}]],
        "diffusion": [[[{"c": ["1/1", "0/1"], "e": [1]}]]],
    }


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


def test_system_files_roundtrip_through_the_parser():
    for path in sorted(SYSTEMS_DIR.glob("*.json")):
        assert serialize_system(parse_system(path)) == json.loads(path.read_text()), path.stem


@pytest.mark.parametrize("text, want", [
    (" 3/4 ", Fraction(3, 4)), ("+2", Fraction(2)), ("-0/7", Fraction(0)),
    ("-6/4", Fraction(-3, 2)), ("10/5", Fraction(2)),
    ("1/0", "zero denominator in '1/0'"),
    ("0.5", "coefficient '0.5' is not an exact rational (write 1/2, not 0.5)"),
    ("1/-2", "coefficient '1/-2' is not an exact rational (write 1/2, not 0.5)"),
    ("", "coefficient '' is not an exact rational (write 1/2, not 0.5)"),
])
def test_coefficient_strings(text, want):
    d = gbm_dict()
    d["drift"][0][0]["c"] = ["0", text]
    if isinstance(want, Fraction):
        assert parse_system_dict(d).drift[0].coeff((1,)) == CRational(0, want)
    else:
        with pytest.raises(InputFormatError) as err:
            parse_system_dict(d)
        assert str(err.value) == f"drift component 1, term 1: {want}"


def test_drift_length_mismatch():
    d = gbm_dict()
    d["drift"] = []
    with pytest.raises(InputFormatError, match="drift must list 1"):
        parse_system_dict(d)


def test_decimal_coefficient_rejected():
    d = gbm_dict()
    d["drift"][0][0]["c"] = ["0.5", "0"]
    with pytest.raises(InputFormatError, match="exact rational"):
        parse_system_dict(d)


def test_zero_denominator_rejected():
    d = gbm_dict()
    d["drift"][0][0]["c"] = ["1/0", "0"]
    with pytest.raises(InputFormatError, match="zero denominator"):
        parse_system_dict(d)


def test_duplicate_exponent_vector_rejected():
    d = gbm_dict()
    d["drift"][0].append({"c": ["2", "0"], "e": [1]})
    with pytest.raises(InputFormatError, match="duplicate exponent"):
        parse_system_dict(d)


def test_missing_and_unknown_keys_reported():
    d = gbm_dict()
    del d["noise_dim"]
    d["extra"] = 1
    with pytest.raises(InputFormatError, match="system file keys"):
        parse_system_dict(d)


def test_var_names_must_be_distinct_identifiers():
    d = gbm_dict()
    d["dim"] = 2
    d["var_names"] = ["x", "x"]
    d["drift"] = [[], []]
    d["diffusion"] = [[[], []]]
    with pytest.raises(InputFormatError, match="distinct"):
        parse_system_dict(d)
    d["var_names"] = ["x", "2y"]
    with pytest.raises(InputFormatError, match="identifier"):
        parse_system_dict(d)


def test_imaginary_unit_is_not_a_variable_name(tmp_path, capsys):
    # `i` would print as a variable and parse back as the constant 1i
    d = gbm_dict()
    d["var_names"] = ["i"]
    p = tmp_path / "i.json"
    p.write_text(json.dumps(d), encoding="utf-8")
    assert main(["check-weak", str(p), "--candidate", "i"]) == 2
    assert capsys.readouterr().err.startswith("error: var_names: 'i' is the imaginary unit")


def test_bool_is_not_a_valid_dim():
    d = gbm_dict()
    d["dim"] = True
    with pytest.raises(InputFormatError, match="dim must be"):
        parse_system_dict(d)


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


def test_perturb_inapplicable_drift_is_input_error(tmp_path, capsys, monkeypatch):
    # perturb needs f(0) = 0 and distinct nonzero eigenvalues of Df(0); a drift
    # without them is an inapplicable request (exit 2), while running out of
    # admissible u stays an internal numeric failure (exit 3)
    from sdefi import perturb
    from sdefi.algebra import VField, parse_poly_text
    from sdefi.ito import SdeSystem

    def write(*texts):
        names = tuple(f"x{i + 1}" for i in range(len(texts)))
        sys = SdeSystem(VField(tuple(parse_poly_text(t, names) for t in texts)), (), names)
        p = tmp_path / "drift.json"
        p.write_text(json.dumps(serialize_system(sys)), encoding="utf-8")
        return str(p)

    for texts, reason in [(("x2", "0"), "drift Jacobian at the origin is singular"),
                          (("x1", "x2"), "repeated eigenvalue near 1"),
                          (("1 + x1",), "drift does not vanish at the origin")]:
        assert main(["perturb", write(*texts)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {reason}")
    # lambda = -1, u = 1/2: E((9,)) = 0, and no retry is left
    monkeypatch.setattr(perturb, "_MAX_RETRIES", 0)
    assert main(["perturb", write("-1 * x1"), "--u", "1/2", "--lbound", "9"]) == 3
    assert capsys.readouterr().err.startswith("internal failure: no admissible u in 1 tries")


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


@pytest.mark.parametrize("u", ["3/2", "0", "1"])
def test_perturb_u_outside_unit_interval_is_input_error(u, capsys):
    assert main(["perturb", "harmonic_oscillator", "--u", u]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(0,1)" in err


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
    assert main(["perturb", "gbm", "--lbound", "0", "--output", "json"]) == 0
    assert _strict_json(capsys.readouterr().out)["plan"]["residual_min"] is None
    # one path: no standard error, so no threshold
    assert main(["simulate", "gbm", "--seed", "1", "--paths", "1", "--candidate", "x1",
                 "--output", "json"]) == 0
    cand = _strict_json(capsys.readouterr().out)["candidates"][0]
    assert cand["stderr"] is None and cand["threshold"] is None
    # dx = x^3 dt from x0 = 10 overflows on every path: no mean final state
    d = {"dim": 1, "noise_dim": 0, "var_names": ["x1"],
         "drift": [[{"c": ["1", "0"], "e": [3]}]], "diffusion": []}
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
    ("perturb", ("--u",), "37/100", False),
    ("perturb", ("--lbound",), 8, False),
    ("perturb", ("--degree",), 4, False),
    ("perturb", ("--seed",), 0, False),
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


def test_perturb_survivors_use_the_system_variable_names(tmp_path, capsys):
    # y^2 survives the weak search; JSON and text must both name it y^2
    d = {"dim": 2, "noise_dim": 0, "var_names": ["y", "z"],
         "drift": [[{"c": ["-1369/20000", "0"], "e": [1, 0]}],
                   [{"c": ["1", "0"], "e": [0, 1]}]],
         "diffusion": []}
    p = tmp_path / "yz.json"
    p.write_text(json.dumps(d), encoding="utf-8")
    argv = ["perturb", str(p), "--lbound", "1", "--degree", "3"]
    assert main(argv + ["--output", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verification"]["found"] == ["y^2"]
    assert main(argv) == 0
    assert "  survivor: y^2" in capsys.readouterr().out.splitlines()


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
        (["perturb", name, "--lbound", "4", "--degree", "2"], cli._perturb_text),
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
