"""The benchmark harness in perfbench/ reaches into the package by name:
the tracer wraps the functions in TRACED and binds the arguments it records,
the context counters read fixed ScanContext fields, and the workloads run
fixed command lines and library calls. An API change that breaks any of
them must fail here, not only under `perfbench/run.py`."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from eta_lab import cli, experiments, reports
from eta_lab.experiments import build_context
from eta_lab.verify import load_golden

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's tracing, checks and workloads modules, forgotten again afterwards."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in ("tracing", "checks", "workloads")}
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


@pytest.mark.parametrize("seed", [1, 2])
def test_workload_operations_still_parse(perfbench, seed):
    # perfbench/run.py calls a library operation as f(*args, ctx=context),
    # except average_n1 (no context) and serialize (reports.serialize(env, fmt))
    workloads = perfbench["workloads"]
    for workload in workloads.WORKLOADS:
        for op in workloads.generate(workload, seed, load_golden()):
            if op.cli:
                cli.build_parser().parse_args(op.argv())
            elif op.name == "serialize":
                inspect.signature(reports.serialize).bind(None, *op.args)
            elif op.name == "average_n1":
                inspect.signature(experiments.average_n1).bind(*op.args)
            else:
                inspect.signature(getattr(experiments, op.name)).bind(*op.args, ctx=None)
