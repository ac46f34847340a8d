"""Clock abstraction for the observability layer.

The paper's evaluation measures everything — collector query latency,
polling staleness, probe cost — in *simulated* time, while model-fit
cost (Fig. 7) is *wall-clock* CPU time.  A :class:`Timebase` lets the
metrics registry stamp spans and gauges against whichever clock the
experiment cares about: spans always capture wall-clock duration via
``perf_counter`` in addition to the registry timebase, so both numbers
are available from one instrumentation point.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Timebase(Protocol):
    """Anything that can report the current time in seconds."""

    def now(self) -> float: ...


def wall_now() -> float:
    """Monotonic wall-clock seconds (``time.perf_counter``).

    The sanctioned wall-clock read: under ``src/repro`` only
    ``repro.obs`` may import ``time`` or ``datetime``
    (``tests/invariants/test_layers.py::clock_imports``), so every
    wall-clock dependency is greppable here.  Only use it for *duration
    measurement* (cost accounting, span timing) — anything that
    influences simulation behaviour must read the Engine clock instead.
    """
    return time.perf_counter()


def cpu_now() -> float:
    """Process CPU seconds (``time.process_time``).

    Counterpart of :func:`wall_now` for CPU-cost accounting (the
    paper's Fig. 6/7 measurements), held to the same test.
    """
    return time.process_time()


class WallTimebase:
    """Monotonic wall-clock time (``time.perf_counter``)."""

    def now(self) -> float:
        return time.perf_counter()


class SimTimebase:
    """The simulated clock of an engine (or anything with a ``now``).

    Accepts any object exposing a ``now`` attribute or property —
    :class:`repro.netsim.engine.Engine` and
    :class:`repro.netsim.topology.Network` both qualify — without the
    obs layer importing netsim (which would invert the layering).
    """

    def __init__(self, source: object) -> None:
        if not hasattr(source, "now"):
            raise TypeError(f"{source!r} has no 'now' attribute")
        self._source = source
        # resolve once whether `now` is a method or a property; this
        # clock is read twice per span, so the per-call callable()
        # check is worth hoisting
        self._is_method = callable(source.now)  # type: ignore[attr-defined]

    def now(self) -> float:
        value = self._source.now  # type: ignore[attr-defined]
        return float(value()) if self._is_method else float(value)


class FixedTimebase:
    """Manually advanced clock for deterministic tests."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance backwards")
        self._now += dt
