"""In-process medians of the sieve, the context build, the two pair kernels
and density_lemma, on one checkout or on two.

    python tools/kernel_time.py X [--lt P:S,...] [--repeat 31] [--against SRC]

Imports `eta_lab` from the `src` directory of the checkout holding this file.
Times, --repeat times each: `sieve_fundamental(X)`; `build_context(X)`, keeping
one context alive at a time; then, on one context, the whole-table scan
kernel (`_scan_chunk`), the sign-pattern kernel (`_lt_chunk`) for the pattern
of --lt (default 2:+1,3:-1) and `density_lemma(X, P)` for the first prime P
of that pattern, each call starting from the context as it was built.
Prints the median and the first and third quartiles (inclusive method) of
each in seconds, with X, the table size N and the results, so two checkouts
can be compared on the same numbers; the quartiles show whether two medians
differ by more than the calls' spread. For each stage but the build it also
prints the tracemalloc peak of one more, untimed call, in MiB (2^20 bytes):
for the sieve, the table with its temporaries; for the others, what they
allocate above the context. Last, from the context's prefix runs and qmask
exceptions, it prints how many D2 take each path of the scan kernel: the
direct table (qmask below 64 and prefix at most r') and the kept walk (every
other D2), with the number of distinct nonzero kept qmasks, one row each.

With --against SRC, `eta_lab` is imported a second time, from SRC, the `src`
directory of another checkout, and each stage is timed on both in turn, the
side that goes first alternating from one repeat to the next, so that both
see the same state of the host. It prints, for each stage, this checkout's
median and quartiles, then SRC's, and the ratio of the medians (this
checkout over SRC); a result of SRC that differs from this checkout's is
printed after it. No peaks are taken in this mode.

X may be written as 1e7; it is refused, as `--x` is, above MAX_X or where
the CLI's memory estimate exceeds the memory available.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
from functools import partial
from math import isqrt
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eta_lab import arith, cli, experiments  # noqa: E402


def _bound(text: str) -> int:
    """X as an int, refused unless it is a whole number that the CLI's --x
    check accepts: from 1 to MAX_X, and within its memory estimate."""
    try:
        x = float(text)
        whole = x == int(x)  # int() raises OverflowError at +-inf, ValueError at nan
    except (OverflowError, ValueError):
        whole = False
    if not whole:
        raise argparse.ArgumentTypeError(f"X must be a positive integer, got {text}")
    try:
        return cli._check_x(int(x))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _source(text: str) -> Path:
    """SRC as a path, refused unless it holds an eta_lab package."""
    src = Path(text).resolve()
    if not (src / "eta_lab" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"{text} holds no eta_lab package")
    return src


def _load(src: Path):
    """(arith, experiments) of the eta_lab in src, imported as the package
    `against_eta_lab`, so that it lives beside this checkout's."""
    name = "against_eta_lab"
    init = src / "eta_lab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.arith"), importlib.import_module(f"{name}.experiments")


def _peak_mib(fn) -> float:
    """The tracemalloc peak of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _spread(times: list[float]) -> str:
    q1, q3 = statistics.quantiles(times, n=4, method="inclusive")[::2] if len(times) > 1 else times * 2
    return f"median {statistics.median(times):.4f} s  q1 {q1:.4f}  q3 {q3:.4f}"


def _lemma(experiments, ctx, x: int, p: int):
    """density_lemma(x, p) on ctx as build_context left it: what the call
    keeps in the context (the counts in ctx.signs, or a whole-table column
    in ctx.chi where a checkout stores one) is taken out again."""
    chi = dict(ctx.chi)
    try:
        return experiments.density_lemma(x, p, ctx)
    finally:
        ctx.chi.clear()
        ctx.chi.update(chi)
        getattr(ctx, "signs", {}).pop(p, None)


def _stages(arith, experiments, x: int, pattern):
    """(context, [(name, call, result text, peak?)]) of one checkout's
    stages, in order; the stages after the build run on that context."""
    p = pattern[0][0]
    ctx = experiments.build_context(x)
    whole = (0, len(ctx.entries))
    return ctx, [
        ("sieve", partial(arith.sieve_fundamental, x), lambda t: f"{len(t)} entries", True),
        ("build_context", partial(experiments.build_context, x),
         lambda c: f"{c.pair_count(*whole)} pairs", False),
        ("scan kernel", partial(experiments._scan_chunk, ctx, whole), lambda r: f"sum eta {r[2]}", True),
        ("pattern kernel", partial(experiments._lt_chunk, ctx, pattern, whole),
         lambda r: f"{r[1]} matched, {len(pattern)} pattern primes", True),
        ("density_lemma", partial(_lemma, experiments, ctx, x, p),
         lambda r: f"p {p}: " + " ".join(str(row.count) for row in r.rows), True),
    ]


def _timed(fns, repeat: int):
    """The `repeat` wall times of each of fns, called in turn, the first one
    alternating, and the last result of each, with one result of each fn
    alive at a time."""
    times = [[] for _ in fns]
    results = [None] * len(fns)
    for i in range(repeat):
        for k in (range(len(fns)) if i % 2 == 0 else reversed(range(len(fns)))):
            results[k] = None
            start = perf_counter()
            results[k] = fns[k]()
            times[k].append(perf_counter() - start)
    return times, results


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="kernel_time.py", description=__doc__.splitlines()[0])
    p.add_argument("x", type=_bound, metavar="X")
    p.add_argument("--lt", default="2:+1,3:-1", metavar="P:S,...")
    p.add_argument("--repeat", type=int, default=31)
    p.add_argument("--against", type=_source, metavar="SRC")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be >= 1")
    try:
        pattern = experiments.check_pattern(t.partition(":")[::2] for t in args.lt.split(","))
    except ValueError as exc:
        p.error(f"--lt {args.lt}: {exc}")

    ctx, stages = _stages(arith, experiments, args.x, pattern)
    head = f"x {args.x}  N {len(ctx.entries)}  repeat {args.repeat}"
    if args.against is None:
        print(head)
        for name, fn, text, peak in stages:
            (times,), (result,) = _timed([fn], args.repeat)
            mem = f"  peak {_peak_mib(fn):.2f} MiB" if peak else ""
            print(f"{name:<16} {_spread(times)}{mem}  -> {text(result)}")
    else:
        print(f"{head}  against {args.against}")
        _, theirs = _stages(*_load(args.against), args.x, pattern)
        for (name, fn, text, _), (_, other, other_text, _) in zip(stages, theirs):
            (mine, against), (result, result_against) = _timed([fn, other], args.repeat)
            line = (f"{name:<16} {_spread(mine)}  against {_spread(against)}  "
                    f"ratio {statistics.median(mine) / statistics.median(against):.3f}  -> {text(result)}")
            if other_text(result_against) != text(result):
                line += f"  (against: {other_text(result_against)})"
            print(line)
    # prefix does not increase along the table, so the D2 whose prefix
    # exceeds r' lead it; after them, those with a qmask >= 64 are kept
    values, ends = ctx.runs
    k = int((values > ctx.table.count_upto(isqrt(args.x))).sum())
    lead = int(ends[k - 1]) if k else 0
    at, masks = ctx.qhigh
    high = masks[at >= lead]
    sigs = set(ctx.qmask_slice(0, lead).tolist()) | set(high.tolist())
    print(f"scan paths       direct {len(ctx.entries) - lead - len(high)}  "
          f"kept {lead + len(high)} ({len(sigs - {0})} signatures)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
