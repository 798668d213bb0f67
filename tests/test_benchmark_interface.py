"""The benchmark harness in perfbench/ reaches into the package by name:
the tracer wraps the functions in TRACED and binds the arguments it records,
and the context counters read fixed ScanContext fields. An API change that
breaks either must fail here, not only under `perfbench/run.py --trace 1`."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from eta_lab.experiments import build_context

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's tracing and checks modules, forgotten again afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("tracing", "checks")}
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in ("tracing", "checks", "workloads"):
            sys.modules.pop(name, None)


def test_traced_functions_take_the_recorded_arguments(perfbench):
    missing = []
    for layer, fns in perfbench["tracing"].TRACED.items():
        module = importlib.import_module(f"eta_lab.{layer}")
        for name, recorded in fns.items():
            fn = getattr(module, name, None)
            if fn is None:
                missing.append(f"eta_lab.{layer}.{name}")
                continue
            params = inspect.signature(fn).parameters
            missing += [f"eta_lab.{layer}.{name}({arg})" for arg in recorded if arg not in params]
    assert missing == []


def test_context_counters_read_a_context(perfbench):
    checks = perfbench["checks"]
    ctx = build_context(2000)
    counters = checks.context_counters(ctx)
    assert counters.keys() == checks.EXPECTED_COUNTERS.keys()
    assert counters["experiments.pairs_total"] == int(ctx.prefix.sum()) > 0
    assert counters["experiments.max_n"] == int(ctx.nvals.max())
    assert checks.context_bytes(ctx) >= ctx.entries.nbytes + ctx.nvals.nbytes
