"""Discrete-event simulation kernel.

The whole Remos stack — traffic sources, SNMP agents, collectors,
modelers — runs inside one simulated timeline owned by an
:class:`Engine`.  The kernel is deliberately small: a binary heap of
timestamped callbacks plus a current-time cursor.

Execution model
---------------
Callbacks are **atomic in simulated time** but may *consume* simulated
time themselves by calling :meth:`Engine.advance` (this is how a
blocking SNMP round-trip or an inter-component RPC charges its latency).
The dispatch rule is::

    pop the earliest event (time t)
    now = max(now, t)          # advances normally; never goes backward
    run the callback           # may call advance() internally

If a callback advances the clock past the scheduled time of the next
event, that event simply runs late — exactly what happens to a
single-threaded poller that is busy answering a long query.  Fluid
traffic state (see :mod:`repro.netsim.flows`) is integrated lazily from
rates, so reads at any ``now`` remain consistent even when events slip.

Periodic timers keep a fixed cadence (next tick at ``t0 + k*interval``);
ticks that would land in the past after a long callback are skipped,
matching how a real periodic monitor catches up after a stall.
"""

from __future__ import annotations

import heapq
import itertools
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

from repro import obs

if TYPE_CHECKING:
    from repro.obs.metrics import Counter, Gauge, NullCounter, NullGauge
    from repro.obs.registry import MetricsRegistry, NullRegistry

    _Handles = tuple[
        MetricsRegistry | NullRegistry,
        int,
        Counter | NullCounter,
        Counter | NullCounter,
        Gauge | NullGauge,
        Gauge | NullGauge,
        Counter | NullCounter,
    ]


class _Event:
    """One scheduled callback.

    Heap entries are ``(time, seq, event)`` tuples rather than rich
    comparisons on the event object: tuple ordering runs native C
    float/int comparisons on every sift, which is the hottest code in a
    dense simulation (the seq tiebreaker is unique, so the event object
    itself is never compared).
    """

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False


def _entry(ev: _Event) -> "tuple[float, int, _Event]":
    return (ev.time, ev.seq, ev)


class Timer:
    """Handle to a scheduled (possibly periodic) event.

    ``cancel()`` prevents any further firing.  For periodic timers the
    handle stays valid across ticks.
    """

    def __init__(self) -> None:
        self._event: _Event | None = None
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        if self._event is not None:
            self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class OverlapScope:
    """Accounting for a group of logically concurrent blocking calls.

    Sequential code that models parallel fan-out (a Master delegating
    sub-queries to several collectors at once) runs its calls one after
    another, but the *simulated* cost should be the makespan of the
    parallel schedule, not the sum.  Each call is wrapped in
    :meth:`task`; the clock advances the task consumes are measured and
    rolled back, and when the scope closes the engine charges the
    makespan of scheduling the measured durations onto ``width``
    workers (greedy, in submission order).  ``width=0`` means
    unbounded parallelism (makespan = max task duration).

    Tasks must not dispatch engine events (``step``/``run``); plain
    ``advance`` consumers — SNMP exchanges, RPCs — are fine, which is
    exactly what a collector sub-query does.
    """

    def __init__(self, engine: "Engine", width: int = 0) -> None:
        if width < 0:
            raise ValueError("overlap width must be >= 0")
        self._engine = engine
        self._width = width
        #: measured duration of each task, in submission order
        self.durations: list[float] = []

    @contextmanager
    def task(self) -> Iterator[None]:
        """Run one concurrent task; its clock advances are captured."""
        t0 = self._engine._now
        try:
            yield
        finally:
            self.durations.append(self._engine._now - t0)
            # Concurrent siblings all start together: rewind so the
            # next task is measured from the same origin.  The scope
            # exit charges the combined (overlapped) cost once.
            self._engine._now = t0

    @property
    def serial_s(self) -> float:
        """What the tasks would have cost run back to back."""
        return sum(self.durations)

    @property
    def overlapped_s(self) -> float:
        """Makespan of the tasks on ``width`` workers (greedy)."""
        if not self.durations:
            return 0.0
        width = self._width if self._width > 0 else len(self.durations)
        if width >= len(self.durations):
            return max(self.durations)
        workers = [0.0] * width
        for d in self.durations:
            i = min(range(width), key=workers.__getitem__)
            workers[i] += d
        return max(workers)

    @property
    def saved_s(self) -> float:
        """Simulated time the overlap saved versus serial execution."""
        return self.serial_s - self.overlapped_s


class Engine:
    """Event queue + simulated clock.

    Typical driver loop::

        eng = Engine()
        eng.every(5.0, poller.tick)
        eng.at(10.0, lambda: traffic.start(...))
        eng.run_until(300.0)
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list[tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        #: number of callbacks dispatched (diagnostics / tests)
        self.dispatched = 0
        #: periodic ticks skipped because a callback pushed the clock
        #: past them (see :meth:`every`)
        self.ticks_skipped = 0
        #: cached (registry, handles...) for _observe — the engine
        #: advances on every simulated RPC, so re-resolving five metric
        #: handles per advance would dominate live-registry overhead
        self._obs_handles: _Handles | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling ---------------------------------------------------

    def at(self, time: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        timer = Timer()
        ev = _Event(time, next(self._seq), fn)
        timer._event = ev
        heapq.heappush(self._queue, _entry(ev))
        return timer

    def after(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.at(self._now + delay, fn)

    def every(
        self,
        interval: float,
        fn: Callable[[], object],
        *,
        start: float | None = None,
    ) -> Timer:
        """Run ``fn`` periodically with a fixed cadence.

        The first tick is at ``start`` (default: now + interval).  If a
        long callback pushes the clock past one or more scheduled
        ticks, those ticks are skipped rather than fired in a burst, and
        counted in ``ticks_skipped``.
        """
        if interval <= 0:
            raise ValueError("interval must be > 0")
        timer = Timer()
        first = self._now + interval if start is None else start

        def tick_wrapper(scheduled: float) -> None:
            if timer._cancelled:
                return
            fn()
            if timer._cancelled:
                return
            nxt = scheduled + interval
            while nxt <= self._now:  # catch up without a tick burst
                nxt += interval
                self.ticks_skipped += 1
            ev = _Event(nxt, next(self._seq), lambda: tick_wrapper(nxt))
            timer._event = ev
            heapq.heappush(self._queue, _entry(ev))

        ev = _Event(first, next(self._seq), lambda: tick_wrapper(first))
        timer._event = ev
        heapq.heappush(self._queue, _entry(ev))
        return timer

    # -- time consumption inside callbacks -----------------------------

    def advance(self, dt: float) -> None:
        """Consume ``dt`` seconds of simulated time inside a callback.

        Used by blocking operations (SNMP round trips, RPCs, benchmark
        transfers) to charge their duration to the simulation clock.
        """
        if dt < 0:
            raise ValueError("cannot advance backwards")
        self._now += dt

    def cap_since(self, t0: float, cap_s: float) -> bool:
        """Clamp time consumed since ``t0`` to at most ``cap_s``.

        Models a deadline on a blocking call: the caller stops waiting
        at ``t0 + cap_s`` even if the callee would have kept burning
        time.  Returns True when the clamp fired (the call overran its
        deadline).  Only valid for plain ``advance`` consumers — the
        same restriction as :class:`OverlapScope` tasks.
        """
        if cap_s < 0:
            raise ValueError("cap must be >= 0")
        if self._now - t0 <= cap_s:
            return False
        self._now = t0 + cap_s
        return True

    @contextmanager
    def overlap(self, width: int = 0) -> Iterator[OverlapScope]:
        """Charge a group of blocking calls as if run concurrently.

        ::

            with engine.overlap(width=8) as ov:
                for frag in fragments:
                    with ov.task():
                        responses.append(collector.topology(frag))

        On exit the clock has advanced by the makespan of the tasks on
        ``width`` workers instead of their sum (``width=0`` =
        unbounded).  Scopes nest: an inner overlap's makespan simply
        counts toward the enclosing task's duration.
        """
        scope = OverlapScope(self, width)
        try:
            yield scope
        finally:
            self._now += scope.overlapped_s

    # -- running --------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next event.  Returns False if the queue is empty."""
        while self._queue:
            ev = heapq.heappop(self._queue)[2]
            if ev.cancelled:
                continue
            if ev.time > self._now:
                self._now = ev.time
            self.dispatched += 1
            ev.fn()
            return True
        return False

    def run_until(self, t_end: float) -> None:
        """Dispatch events until the clock would pass ``t_end``.

        The clock finishes exactly at ``t_end`` unless a callback
        overshot it by advancing internally.
        """
        t0, d0, s0 = self._now, self.dispatched, self.ticks_skipped
        while self._queue:
            ev = self._queue[0][2]
            if ev.cancelled:
                heapq.heappop(self._queue)
                continue
            if ev.time > t_end:
                break
            self.step()
        if self._now < t_end:
            self._now = t_end
        self._observe(t0, d0, s0)

    def run(self, max_events: int = 1_000_000) -> None:
        """Run until the queue drains (bounded by ``max_events``)."""
        t0, d0, s0 = self._now, self.dispatched, self.ticks_skipped
        for _ in range(max_events):
            if not self.step():
                self._observe(t0, d0, s0)
                return
        raise RuntimeError(f"engine did not quiesce within {max_events} events")

    def _observe(self, t0: float, d0: int, s0: int) -> None:
        """Report one run's aggregates to the metrics registry.

        Aggregated per run rather than per event so the dispatch loop
        itself carries no instrumentation overhead.  The five handles
        are cached per registry and its generation (a reset drops them):
        name-based resolution on every advance would cost more than the
        rest of the advance itself.
        """
        reg = obs.get_registry()
        handles = self._obs_handles
        if handles is None or handles[0] is not reg or handles[1] != reg.generation:
            handles = self._obs_handles = (
                reg,
                reg.generation,
                reg.counter("netsim.engine.events"),
                reg.counter("netsim.engine.sim_advance_s"),
                reg.gauge("netsim.engine.sim_time_s"),
                reg.gauge("netsim.engine.queue_depth"),
                reg.counter("netsim.engine.ticks_skipped"),
            )
        handles[2].inc(self.dispatched - d0)
        handles[3].inc(self._now - t0)
        handles[4].set(self._now)
        handles[5].set(len(self._queue))
        handles[6].inc(self.ticks_skipped - s0)

    def pending(self) -> int:
        """Number of live events still queued."""
        return sum(1 for _, _, ev in self._queue if not ev.cancelled)
