"""eta-lab benchmark: three exact-checked workloads and a traced per-layer run.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src, in this
process and in every child. Workloads (see perfbench/README.md for why each
exists and which layer metric should move which end-to-end metric):

    cli-small    about 20 eta-lab commands at desk scale, one fresh interpreter each
    scan-1e6     scan, scan --workers 2 and densities at x = 1e6, one interpreter each
    library-1e6  one in-process session on a single build_context(1e6)

With --trace 0 the workload's sequence runs once and then goes round again
until --seconds are up, and the end-to-end metrics are printed: times scaled
to a reference host speed (hostspeed.py), each operation at its median. With
--trace 1 the operations of every workload are replayed in this process
under spans, and the per-layer metrics are printed. Every output is checked exactly; the last stdout line
is one JSON object {correct, attempted, failed, metrics}, and the exit code
is 1 when any check failed. A full record (environment, generated inputs,
per-operation times, spans) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from importlib import import_module
from importlib.util import find_spec
from pathlib import Path
from time import perf_counter

# One BLAS thread per process: eta_lab does no float linear algebra, and
# numpy's default of one OpenBLAS thread per CPU only adds start-up noise and
# threads beyond the two processes a workload may use. Set before numpy loads,
# here and (through the environment) in every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from child import ORIGIN_PREFIX  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
# fresh-interpreter set-ups per run, for CLI and library workloads; setup_s is their median
SETUP_PROBES = {True: 15, False: 7}
OP_TIMEOUT_S = 60          # the slowest operation takes a few seconds


# ---------------------------------------------------------------------------
# Environment and children
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                      if ln.startswith("model name")), "")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2_installed": find_spec("gmpy2") is not None,
        "loadavg_start": os.getloadavg(),
    }


def _under_src(path: str | None) -> bool:
    return path is not None and Path(path).resolve().is_relative_to(SRC.resolve())


_CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


@dataclasses.dataclass
class Result:
    """One execution of one operation."""

    op: object                  # the workloads.Op that ran
    seconds: float
    out: object = None          # parsed payload, library report as a dict, or rendered text
    raw: bytes | None = None    # a command's stdout bytes
    origin: str | None = None   # the eta_lab.__file__ a child imported
    error: str | None = None


def run_child(args: list[str]) -> tuple[float, int | None, bytes, str | None, str]:
    """Run perfbench/child.py in a fresh interpreter on the checked-out tree."""
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args], env=_CHILD_ENV, cwd=ROOT,
                              capture_output=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, None, b"", None, f"timed out after {OP_TIMEOUT_S} s"
    seconds = perf_counter() - t0
    err = proc.stderr.decode(errors="replace").splitlines()
    origin = next((ln[len(ORIGIN_PREFIX):] for ln in err if ln.startswith(ORIGIN_PREFIX)), None)
    return seconds, proc.returncode, proc.stdout, origin, " | ".join(err[-3:])


def setup_probes(cli: bool, x: int) -> tuple[list[float], list[str]]:
    """Fresh-interpreter set-ups: import eta_lab.cli, or import + build_context(x).

    Each probe's time is scaled to the reference host speed.
    """
    speed = HostSpeed(_CHILD_ENV)
    spans, errors = [], []
    for _ in range(SETUP_PROBES[cli]):
        speed.due()
        start = perf_counter()
        seconds, rc, _, origin, err = run_child(["import"] if cli else ["context", str(x)])
        spans.append((start, start + seconds))
        if rc != 0 or not _under_src(origin):
            errors.append(f"set-up probe failed (exit {rc}, eta_lab from {origin}): {err}")
    speed.sample()
    return [(end - start) * speed.scale(start, end) for start, end in spans], errors


# ---------------------------------------------------------------------------
# Executing operations
# ---------------------------------------------------------------------------

def _payload(result: Result, text: str) -> None:
    try:
        result.out = json.loads(text)["payload"]
    except (ValueError, KeyError) as exc:
        result.error = f"unreadable output: {exc}"


def run_command_child(op) -> Result:
    seconds, rc, stdout, origin, err = run_child(["cli", *op.argv()])
    res = Result(op, seconds, raw=stdout, origin=origin)
    if not _under_src(origin):
        res.error = f"child imported eta_lab from {origin}, not from {SRC}"
    elif rc != 0:
        res.error = f"exit {rc}: {err}"
    else:
        _payload(res, stdout.decode())
    return res


def run_command_inprocess(op) -> Result:
    cli = import_module("eta_lab.cli")
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv())
    except Exception as exc:  # a raising command is a failed operation
        return Result(op, perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    res = Result(op, perf_counter() - t0, raw=out.getvalue().encode())
    if rc != 0:
        res.error = f"exit {rc}: {err.getvalue().strip()}"
    else:
        _payload(res, out.getvalue())
    return res


class LibrarySession:
    """The library-1e6 session: one context, read by every operation."""

    def __init__(self, x: int):
        self.experiments = import_module("eta_lab.experiments")
        self.reports = import_module("eta_lab.reports")
        self.ctx = self.experiments.build_context(x)
        self.scan = None

    def run(self, op) -> Result:
        experiments, reports = self.experiments, self.reports
        t0 = perf_counter()
        try:
            if op.name == "serialize":
                env = reports.build_envelope("scan", {"x": self.scan.x}, self.scan, True)
                out = reports.serialize(env, op.args[0])
            elif op.name == "average_n1":       # reads no context
                out = experiments.average_n1(*op.args)
            else:
                out = getattr(experiments, op.name)(*op.args, ctx=self.ctx)
                if op.name == "scan_pairs":
                    self.scan = out
        except Exception as exc:  # a raising operation is a failed operation
            return Result(op, perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - t0
        if dataclasses.is_dataclass(out):
            out = dataclasses.asdict(out)
        return Result(op, seconds, out=out)


def check_results(results: list[Result], checker) -> None:
    """Fill in Result.error for every output that is not exactly right.

    Outputs of one command whose arguments differ at most in --workers must
    be byte-identical, across the whole run.
    """
    first_bytes: dict = {}
    for res in results:
        op = res.op
        if res.error is None:
            res.error = checker.check(op, res.out)
        if res.error is None and op.cli:
            args = list(op.args)
            if "--workers" in args:
                del args[args.index("--workers"):args.index("--workers") + 2]
            key = (op.name, tuple(args))
            if first_bytes.setdefault(key, res.raw) != res.raw:
                res.error = "output bytes differ from an earlier run of the same command"


# ---------------------------------------------------------------------------
# Measured run (--trace 0)
# ---------------------------------------------------------------------------

def measured_run(workload: str, ops, seconds: float, checker) -> tuple[dict, list[Result], list[str], dict]:
    from checks import counter_errors
    from workloads import X_LARGE

    cli = ops[0].cli
    # A workload whose operations each run in one process runs on one CPU, with
    # its set-up probes, children and host-speed kernel: a single-process
    # operation that moves between the vCPUs of a shared host picks up their
    # different speeds (a pure-Python call's repetitions spread by 0.23-0.28
    # of their median when free to move, and by 0.08 pinned), and pinned, the
    # kernel times the CPU the operation ran on. scan --workers 2 needs both.
    cpu = None
    if not any("--workers" in op.args for op in ops):
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    setup, errors = setup_probes(cli, X_LARGE)
    session = None if cli else LibrarySession(X_LARGE)
    execute = run_command_child if cli else session.run

    # the whole sequence once, then round it again until `seconds` are up
    speed = HostSpeed(_CHILD_ENV)
    results, begun = [], []
    start = perf_counter()
    while len(results) < len(ops) or perf_counter() - start < seconds:
        speed.due()
        begun.append(perf_counter())
        results.append(execute(ops[len(results) % len(ops)]))
    speed.sample()
    rss = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    if not cli:
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    check_results(results, checker)
    if session is not None:
        errors += counter_errors(session.ctx)
    elif workload == "scan-1e6":
        errors += counter_errors(checker.context(X_LARGE))

    # Times scaled to the reference host speed (hostspeed.py), then each
    # operation's median over its repetitions in the run.
    scaled = [r.seconds * speed.scale(t, t + r.seconds) for t, r in zip(begun, results)]
    op_s = [statistics.median(scaled[i::len(ops)]) for i in range(len(ops))]
    scans = [i for i, r in enumerate(results[:len(ops)]) if r.error is None and r.op.name in ("scan", "scan_pairs")]
    scan_s = sum(op_s[i] for i in scans)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(op_s),
        "scan_pairs_per_s": sum(results[i].out["pairs_total"] for i in scans) / scan_s if scans else 0.0,
        "peak_rss_mb": max(rss) / 1024,
    }
    extra = {"pinned_cpu": cpu, "sequences": len(results) / len(ops), "setup_probe_s": setup,
             "kernel_s": speed.samples, "op_begun_s": [t - start for t in begun],
             "unscaled_wall_s": sum(statistics.median(r.seconds for r in results[i::len(ops)])
                                    for i in range(len(ops)))}
    return metrics, results, errors, extra


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

def replay(ops, tracer, op_base: int) -> tuple[float, list[Result], object]:
    """One in-process pass over a workload's operations, spans on if tracer is set."""
    from workloads import X_LARGE

    def span(op_id, name):
        return tracer.op(op_base + op_id, name) if tracer else nullcontext()

    t0 = perf_counter()
    session = None
    if not ops[0].cli:
        with span(len(ops), "library_setup"):
            session = LibrarySession(X_LARGE)
    results = []
    for i, op in enumerate(ops):
        with span(i, op.name):
            results.append(run_command_inprocess(op) if op.cli else session.run(op))
    return perf_counter() - t0, results, session


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass inclusive times of the traced functions, layer self times and call counts."""
    from tracing import LAYERS, self_times

    op_names = {s.op: s.name.removeprefix("bench.op.") for s in spans if s.parent is None}

    def total(span_name, op=None, **attrs):
        return sum(s.seconds for s in spans if s.name == span_name
                   and (op is None or op_names[s.op] == op)
                   and all(s.attrs[k] == v for k, v in attrs.items())) / passes

    m = {f"cli.cmd_s.{c}": total("cli.main", argv=[c])
         for c in ("constants", "scan", "densities", "audit", "eta", "sigma", "qexp")}
    m["arith.sieve_fundamental_s"] = total("arith.sieve_fundamental")
    for fn in ("build_context", "density_lt", "decomposition_audit",
               "average_n1", "average_nd", "density_lemma", "density_pollack"):
        m[f"experiments.{fn}_s"] = total(f"experiments.{fn}")
    m["experiments.scan_pairs_s"] = total("experiments.scan_pairs", workers=1)
    # derived: scan_pairs minus its own calls into constants and build_context
    excluded = sum(c.seconds for c in spans if c.parent is not None
                   and spans[c.parent].name == "experiments.scan_pairs"
                   and spans[c.parent].attrs["workers"] == 1
                   and (c.layer == "constants" or c.name == "experiments.build_context"))
    m["experiments.scan_kernel_s"] = m["experiments.scan_pairs_s"] - excluded / passes
    m["experiments.scan_pairs_w2_s"] = total("experiments.scan_pairs", workers=2)
    # base of the ratio: the same `scan --x 1000000` command with one worker
    m["experiments.scan_pairs_w1_x1e6_s"] = total("experiments.scan_pairs", op="scan", workers=1, x=10**6)
    m["experiments.scan_w1_w2_ratio"] = m["experiments.scan_pairs_w1_x1e6_s"] / m["experiments.scan_pairs_w2_s"]
    for name in ("theta", "Theta", "alpha", "beta", "erdos"):
        m[f"constants.rigorous_constant_s.{name}"] = total("constants.rigorous_constant", name=name)
    m["constants.combined_constant_s"] = total("constants.combined_constant")
    m["constants.mu_constant_s"] = total("constants.mu_constant")
    m["newform.eta_s"] = total("newform.eta") + total("newform.eta_sign_trace")
    m["newform.q_expansion_s"] = total("newform.q_expansion")
    m["newform.sigma_coefficient_s"] = total("newform.sigma_coefficient")
    for fmt in ("text", "csv", "json"):
        m[f"reports.serialize_s.{fmt}"] = total("reports.serialize", fmt=fmt)

    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer) / passes

    calls: dict[str, list[int]] = {}
    per_op = dict.fromkeys(op_names, 0)
    for s in spans:
        if s.name == "constants.rigorous_constant":
            per_op[s.op] += 1
    for op, n in per_op.items():
        calls.setdefault(op_names[op], []).append(n)
    for kind in ("constants", "scan", "scan_pairs", "average_nd", "average_n1"):
        m[f"constants.calls.{kind}"] = statistics.mean(calls[kind])
    m["trace.spans"] = len(spans) / passes
    return m


def traced_run(workload: str, seed: int, seconds: float, golden: dict, checker):
    from checks import context_bytes, context_counters, counter_errors
    from tracing import Tracer
    from workloads import WORKLOADS, generate

    import_s, errors = setup_probes(True, 0)
    plans = {wl: generate(wl, seed, golden) for wl in WORKLOADS}
    tracer = Tracer()
    tracer.install()
    traced_s, traced, session = [], [], None
    start = perf_counter()
    try:
        # whole passes only, as many as fit in `seconds` (at least one)
        while not traced_s or (perf_counter() - start) * (1 + 1 / len(traced_s)) <= seconds:
            for wl, ops in plans.items():
                elapsed, results, sess = replay(ops, tracer, len(tracer.spans))
                traced += results
                session = sess or session
                if wl == workload:
                    traced_s.append(elapsed)
    finally:
        tracer.uninstall()
    untraced_s, untraced, _ = replay(plans[workload], None, 0)
    check_results(traced + untraced, checker)
    errors += counter_errors(session.ctx)

    passes = len(traced_s)
    metrics = {"cli.import_s": statistics.median(import_s)}
    metrics.update(layer_metrics(tracer.spans, passes))
    metrics.update(context_counters(session.ctx))
    metrics["experiments.context_bytes"] = context_bytes(session.ctx)
    metrics["reports.bytes"] = sum(len(r.raw) if r.op.cli else len(r.out) for r in traced
                                   if r.error is None and (r.op.cli or r.op.name == "serialize")) / passes
    metrics["trace.overhead_s"] = statistics.median(traced_s) - untraced_s
    extra = {"inputs_replayed": {wl: [op.describe() for op in ops] for wl, ops in plans.items()},
             "passes": passes, "traced_replay_s": traced_s, "untraced_replay_s": untraced_s,
             "spans": [s.as_list() for s in tracer.spans]}
    return metrics, traced + untraced, errors, extra


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cli-small", "scan-1e6", "library-1e6"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "eta_lab" / "__init__.py").is_file():
        print(f"perfbench: no eta_lab source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eta_lab

    if not _under_src(eta_lab.__file__):
        print(f"perfbench: eta_lab imported from {eta_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import Checker
    from workloads import generate

    sys.set_int_max_str_digits(0)  # the constants' exact rationals run to thousands of digits

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(args.seed)
    golden = json.loads((SRC / "eta_lab" / "goldens" / "golden.json").read_text())
    ops = generate(args.workload, args.seed, golden)
    checker = Checker(golden)
    if args.trace:
        metrics, results, errors, extra = traced_run(args.workload, args.seed, args.seconds, golden, checker)
    else:
        metrics, results, errors, extra = measured_run(args.workload, ops, args.seconds, checker)
    env["loadavg_end"] = os.getloadavg()

    if set(metrics) != set(declared):
        errors.append(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")
    failures = [r for r in results if r.error is not None]
    correct = not failures and not errors
    record = {
        "workload": args.workload, "environment": env, "inputs": [op.describe() for op in ops],
        "metrics": metrics, "errors": errors,
        "child_eta_lab_files": sorted({r.origin for r in results if r.origin}),
        "failures": [{"op": r.op.describe(), "error": r.error} for r in failures],
        "op_seconds": [[r.op.describe(), r.seconds] for r in results], **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=str) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"inputs: {json.dumps(record['inputs'])}")
    print(f"children imported eta_lab from: {json.dumps(record['child_eta_lab_files'])}")
    for line in errors + [f"{r.op.describe()}: {r.error}" for r in failures[:10]]:
        print(f"ERROR {line}")
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {declared.get(name, '?')}")
    print(f"{'ops_failed_frac':44s} {len(failures) / len(results):.6g} ({len(failures)}/{len(results)})")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items() if k in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
