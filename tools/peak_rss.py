"""Wall time and peak RSS of one eta-lab command in a fresh interpreter.

    python tools/peak_rss.py ARGS...

Runs `eta-lab ARGS...` in a new interpreter that imports `eta_lab` from the
`src` directory of the checkout holding this file. The command's stdout and
stderr pass through; then one line goes to stderr with its exit code, its
wall time and its peak RSS: `ru_maxrss` from `os.wait4`, given both in MiB
(2^20 bytes) and in MB (10^6 bytes), since the two are easy to mix up. This
interpreter stays near 10 MiB, below any eta-lab command, so the child's
figure is its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
RUN = "import sys; sys.path.insert(0, sys.argv[1]); from eta_lab.cli import main; sys.exit(main(sys.argv[2:]))"


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/peak_rss.py ARGS...", file=sys.stderr)
        return 1
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", RUN, str(SRC), *argv])
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4
    kib = usage.ru_maxrss  # KiB on Linux
    print(
        f"exit {code}  wall {wall:.2f} s  peak RSS {kib / 1024:.1f} MiB ({kib * 1024 / 1e6:.1f} MB)",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
