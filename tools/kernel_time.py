"""In-process medians of the context build and of the two pair kernels.

    python tools/kernel_time.py X [--lt P:S,...] [--repeat 5]

Imports `eta_lab` from the `src` directory of the checkout holding this file.
Times `build_context(X)` --repeat times, keeping one context alive at a time,
then on the last context times the whole-table scan kernel (`_scan_chunk`)
and the sign-pattern kernel (`_lt_chunk`) for the pattern of --lt (default
2:+1,3:-1), --repeat times each. Prints the median, minimum and maximum of
each in seconds, with X, the table size N and the kernels' results, so two
checkouts can be compared on the same numbers. For each kernel it also prints
the tracemalloc peak of one more, untimed call, in MiB (2^20 bytes): what the
kernel allocates above the context. Last, from the context, it prints how many
D2 take each path of the scan kernel: below r' (the long-prefix walk), the
direct rows (qmask below 64) and the high rows, with the number of distinct
high qmasks, one row each. X may be written as 1e7; it is refused, as
`--x` is, above MAX_X or where the CLI's memory estimate exceeds the memory
available.
"""

from __future__ import annotations

import argparse
import statistics
from functools import partial
from math import isqrt
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eta_lab import cli, experiments  # noqa: E402


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


def _timed(fn, repeat: int):
    """(fn's last result, the `repeat` wall times of fn()), with one result
    alive at a time."""
    times = []
    for _ in range(repeat):
        out = None
        start = perf_counter()
        out = fn()
        times.append(perf_counter() - start)
    return out, times


def _peak_mib(fn) -> float:
    """The tracemalloc peak of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _line(name: str, times: list[float], result, peak: float | None = None) -> str:
    mem = "" if peak is None else f"  peak {peak:.2f} MiB"
    return (f"{name:<16} median {statistics.median(times):.4f} s  "
            f"min {min(times):.4f}  max {max(times):.4f}{mem}  -> {result}")


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="kernel_time.py", description=__doc__.splitlines()[0])
    p.add_argument("x", type=_bound, metavar="X")
    p.add_argument("--lt", default="2:+1,3:-1", metavar="P:S,...")
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be >= 1")
    try:
        pattern = experiments.check_pattern(t.partition(":")[::2] for t in args.lt.split(","))
    except ValueError as exc:
        p.error(f"--lt {args.lt}: {exc}")

    ctx, times = _timed(lambda: experiments.build_context(args.x), args.repeat)
    whole = (0, len(ctx.entries))
    print(f"x {args.x}  N {len(ctx.entries)}  repeat {args.repeat}")
    print(_line("build_context", times, f"{int(ctx.prefix.sum())} pairs"))
    scan_kernel = partial(experiments._scan_chunk, ctx, whole)
    scan, times = _timed(scan_kernel, args.repeat)
    print(_line("scan kernel", times, f"sum eta {scan[2]}", _peak_mib(scan_kernel)))
    lt_kernel = partial(experiments._lt_chunk, ctx, pattern, whole)
    lt, times = _timed(lt_kernel, args.repeat)
    print(_line("pattern kernel", times, f"{lt[1]} matched, {len(pattern)} pattern primes",
                _peak_mib(lt_kernel)))
    split = ctx.table.count_upto(isqrt(args.x))
    big = ctx.qmask[split:]
    high = big[big >= experiments._DIRECT_ROWS]
    print(f"scan paths       below r' {split}  direct {len(big) - len(high)}  "
          f"high {len(high)} ({len(set(high.tolist()))} signatures)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
