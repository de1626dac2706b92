"""The names perfbench/tracing.py wraps and binds must exist in sdefi, or `--trace 1` breaks."""

import importlib
import inspect
import itertools
import json
import sys
from pathlib import Path

import pytest

from sdefi import mc, resonance
from sdefi.algebra import CRational

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_wrapped_attributes_resolve(tracing):
    assert tracing.WRAPS
    for module, attr, _ in tracing.WRAPS:
        assert callable(getattr(importlib.import_module(f"sdefi.{module}"), attr, None)), \
            (module, attr)


def test_traced_parameters_exist():
    # the tracer's lattice-point counter binds these arguments by name
    assert {"values", "K", "lattice"} <= set(inspect.signature(resonance.enumerate_resonances).parameters)
    assert {"lam", "K"} <= set(inspect.signature(resonance.weak_resonance_test).parameters)


def test_enumerate_counts_on_real_calls(tracing):
    # `--trace 1` counts lattice points from the bound arguments and the result
    one, minus_one, two = CRational(1), CRational(-1), CRational(2)
    cases = [
        (resonance.enumerate_resonances, ([one, minus_one],), {"K": 4, "lattice": "z"},
         tracing.lattice_points(2, 4, "z")),
        (resonance.weak_resonance_test, ([one], [[two]]), {"K": 5}, 0),
        (resonance.weak_resonance_test, ([-two], [[two]]), {"K": 5},
         tracing.lattice_points(1, 5, "zplus")),
    ]
    certificates = []
    for fn, args, kwargs, points in cases:
        result = fn(*args, **kwargs)
        assert tracing._enumerate_counts(fn, args, kwargs, result) == {"points": points}
        certificates.append(getattr(result, "certificate", None))
    assert certificates == [None, "positive-definite", "bounded"]


def test_simulate_paths_contract():
    # the tracer unpacks simulate_paths' bound arguments as (sys, cfg) and reads mc._CHUNK
    assert list(inspect.signature(mc.simulate_paths).parameters) == ["sys", "cfg"]
    assert isinstance(mc._CHUNK, int) and mc._CHUNK > 0


def test_algebra_microbench_runs(tracing):
    # `--trace 1` times CRational and LaurentPoly through their public API; a
    # counting clock keeps this a smoke test of that API, not a timing
    clock = itertools.count().__next__
    out = tracing.algebra_microbench(clock)
    assert set(out) == {"algebra.crational_mul_us", "algebra.poly_mul_us", "algebra.poly_diff_us"}
    assert all(v > 0 for v in out.values())


def test_cli_calls_go_through_wrapped_names(monkeypatch, capsys):
    # `--trace 1` wraps cli's module globals, so the CLI must call through them;
    # a JSON report formats each basis polynomial once
    from sdefi import cli

    calls = {"to_text": 0, "find_first_integrals": 0}

    def counted(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    assert cli.main(["search", "cyclic_exchange", "--mode", "strong", "--dmin", "1",
                     "--dmax", "3", "--output", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["basis"]) == 3
    assert calls == {"to_text": 3, "find_first_integrals": 1}


def test_search_calls_go_through_wrapped_names(monkeypatch):
    # `--trace 1` times search.operator_matrix_s, search.reverify_s and counts
    # search.op_nnz by wrapping search's module globals, so find_first_integrals
    # must call through them: one operator matrix per strong operator, one exact
    # re-verification per kernel element
    from sdefi import search, systems

    calls = {"operator_matrix": 0, "check_strong": 0, "independence_rank": 0}

    def counted(name):
        fn = getattr(search, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(search, name, counted(name))
    sysm = systems.cyclic_exchange()
    basis = search.find_first_integrals(sysm, "strong", 1, 3)
    assert len(basis) == 3
    assert calls == {"operator_matrix": 1 + sysm.noise_dim, "check_strong": len(basis),
                     "independence_rank": 1}
