"""How fast the machine is right now, so timings can be put on one footing.

This class of machine (two vCPUs of a shared host) flips between a
faster and a slower state every few tens of seconds, so the same
instructions run 10-30 % apart from one run to the next, which is
wider than the bound a regression has to be caught within.  The drift
is the machine's, not the program's: a fixed piece of interpreter work
timed in the process that serves the answers, before the first and
after every segment, slows down and speeds up with the workload.  The
runner therefore multiplies a run's wall-clock and CPU numbers by
``REFERENCE_S / median reading``.  Counts, bytes and simulated-clock
numbers are never touched.

The calibration is interpreter work of the kind the stack under test
is made of (dict and tuple churn, string formatting, method calls,
arithmetic) and nothing from ``src/``, so no change to the program can
move it.  The median reading is itself reported
(``harness.calibration_ms``), which lets a reader undo the rescaling.
"""

from __future__ import annotations

import resource
import time

#: what one calibration costs on the machine class the bounds were sized on
REFERENCE_S = 0.030


class _Cell:
    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0.0

    def add(self, x: float) -> None:
        self.total += x


def calibration_s() -> float:
    """Seconds the fixed calibration work takes now, in this process."""
    t0 = time.perf_counter()
    table: dict[int, tuple[int, str]] = {}
    cell = _Cell()
    for i in range(40_000):
        table[i & 1023] = (i, f"{i & 255:03d}")
        if not i & 7:
            table.pop((i >> 3) & 1023, None)
        cell.add(i * 0.5)
    acc = 0
    for i in range(120_000):
        acc += i * i
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
