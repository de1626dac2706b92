"""The names perfbench/tracing.py wraps and binds must exist in sdefi, or `--trace 1` breaks."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from sdefi import mc, resonance

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


def test_simulate_paths_contract():
    # the tracer unpacks simulate_paths' bound arguments as (sys, cfg) and reads mc._CHUNK
    assert list(inspect.signature(mc.simulate_paths).parameters) == ["sys", "cfg"]
    assert isinstance(mc._CHUNK, int) and mc._CHUNK > 0
