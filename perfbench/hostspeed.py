"""Host-speed calibration: a fixed kernel timed between the measured operations.

    python perfbench/hostspeed.py      one kernel: import numpy, run kernel(), exit

On a shared host the machine itself runs slower for seconds to minutes at a
time, and a new process's start-up (exec, shared libraries, page faults)
varies more still: a fixed pure-Python loop's 10-second medians range over
1.5x with its CPU time rising with its wall time, and fresh
`import eta_lab.cli` probes spread by a quarter of their median. A longer
run or CPU time does not remove that. The benchmark therefore times a
kernel of its own between the operations and set-up probes, at least every
INTERVAL_S and after the last one, and scales each operation's time by

    REFERENCE_S / (mean of the kernel samples taken within WINDOW_S of it)

The kernel is a fresh interpreter that imports numpy and runs `kernel()`, so
it has both a command's start-up and compute in it; its time tracks a
fresh `import eta_lab.cli` with a correlation of 0.87. It shares no code
with eta_lab, so a change under src/ moves a scaled time by the same share
as the raw one. A scaled time reads as the seconds the operation takes on
the host at the speed where the kernel takes REFERENCE_S. The raw seconds
are kept in the record.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# About the kernel's time on a quiet 2-vCPU "Intel(R) Xeon(R) Processor"
# shared host, Python 3.11, numpy 2.4. Any fixed value would do: it only sets
# the unit of a scaled time.
REFERENCE_S = 0.190
# A sample is taken before an operation when the last one is older than
# INTERVAL_S, and host speed is averaged over the samples within WINDOW_S
# before and after the operation: short enough to follow the host's slow
# phases, long enough to hold several samples.
INTERVAL_S = 1.0
WINDOW_S = 2.5


def kernel() -> None:
    """A fixed mix of work: interpreter loop, big rationals, numpy sort.

    The parts follow the workloads' own mix: command start-up and argument
    handling, the exact constants, and the array pair kernels.
    """
    import numpy as np

    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    total = Fraction(0)
    for k in range(1, 1100):
        total += Fraction(1, k * k)
    values = np.arange(100_000, dtype=np.int64) * 7919 % 100_003
    for _ in range(10):  # small arrays: the kernel's peak RSS stays below any command's
        np.sort(values)
    if acc < 0 or total <= 0:  # keeps the work observable
        raise AssertionError("calibration kernel")


class HostSpeed:
    """Kernel samples of one run: `due()` before every operation, `sample()` at the end."""

    def __init__(self, env: dict):
        self.env = env
        self.samples: list[float] = []
        self._at: list[float] = []  # the midpoint of each sample

    def sample(self) -> None:
        # no timeout: with one, Popen.wait polls and rounds the time up to 50 ms
        t0 = perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__)], env=self.env,
                       stdout=subprocess.DEVNULL, check=True)
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._at.append((t0 + t1) / 2)

    def due(self) -> None:
        """Sample unless the last sample is more recent than INTERVAL_S."""
        if not self._at or perf_counter() - self._at[-1] > INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor for an operation timed from `start` to `end` (perf_counter)."""
        near = [s for s, at in zip(self.samples, self._at) if start - WINDOW_S <= at <= end + WINDOW_S]
        return REFERENCE_S / (sum(near) / len(near))


if __name__ == "__main__":
    kernel()
