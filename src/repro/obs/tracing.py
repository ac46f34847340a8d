"""Causal span tracing: explicit trace/span/parent identifiers.

A span brackets one logical operation — a collector topology query, a
polling sweep, one SNMP PDU exchange — and records how long it took on
*both* clocks: the registry's timebase (the simulator clock in deployed
stacks, matching how the paper measures query latency) and the process
wall clock (how much real CPU the reproduction itself burned).

Causality is explicit.  Every span carries three identifiers:

* ``trace_id`` — the query it belongs to, a string (``"t0007"``).  A
  span entered while no other span is open starts a fresh trace;
  descendants inherit it.
* ``span_id`` — unique per span within the registry.  A plain integer:
  span entry is the hottest obs path and formatting an id string per
  span costs more than the rest of the bookkeeping combined.
* ``parent_id`` — the ``span_id`` of the enclosing span (None for
  roots).

Parentage is captured *at entry time* from the registry's span stack,
not reconstructed later from names, depths, or timestamps.  That
distinction matters under :meth:`Engine.overlap <repro.netsim.engine.
Engine.overlap>`: logically concurrent fragment delegations are
rewound to a common start time, so sibling spans have *overlapping*
sim-clock intervals and any time-ordered reconstruction would attach a
child to whichever sibling happens to surround it.  The explicit
``parent_id`` survives that (see ``tests/obs/test_trace_causality.py``).

Identifiers are deterministic — per-registry sequence counters, no
randomness — so two runs of a seeded experiment against fresh
registries produce identical traces, and answers stay reproducible.

Every completed span feeds a histogram named ``<span name>.duration_s``
(registry-clock seconds) in the same registry, so latency quantiles
come for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.metrics import LabelsKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.registry import MetricsRegistry


@dataclass(slots=True)
class SpanRecord:
    """One completed span.

    Not frozen: a frozen dataclass routes ``__init__`` through
    ``object.__setattr__`` per field, and span completion is a hot path
    (six spans per warm query in the query-rate benchmark).  Treat
    instances as immutable anyway.
    """

    name: str
    labels: LabelsKey
    #: start/end on the registry timebase (sim time in deployed stacks)
    start_s: float
    end_s: float
    #: wall-clock duration, always measured with perf_counter
    wall_s: float
    #: causal identifiers (see module docstring)
    trace_id: str = ""
    span_id: int = 0
    parent_id: int | None = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class Span(SpanRecord):
    """Context manager produced by ``registry.span(name, **labels)``.

    A Span *is* its own completed :class:`SpanRecord` — on exit it
    fills in ``end_s``/``wall_s`` and appends itself to the registry's
    span ring, instead of copying eight fields into a second object on
    the hot path.  ``end_s``/``wall_s`` are unset until exit.
    """

    __slots__ = ("_registry", "_wall0")

    def __init__(
        self, registry: "MetricsRegistry", name: str, labels: LabelsKey
    ) -> None:
        self._registry = registry
        self.name = name
        self.labels = labels

    def __enter__(self) -> "Span":
        reg = self._registry
        stack = reg._span_stack
        if stack:
            top = stack[-1]
            self.trace_id = top.trace_id
            self.parent_id = top.span_id
        else:
            self.trace_id = reg._next_trace_id()
            self.parent_id = None
        self.span_id = reg._next_span_id()
        stack.append(self)
        self.start_s = reg.clock.now()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.wall_s = time.perf_counter() - self._wall0
        reg = self._registry
        self.end_s = reg.clock.now()
        stack = reg._span_stack
        # Normally we are the top of the stack; an out-of-order exit
        # (a generator torn down late, an exception unwinding several
        # spans) must still remove *this* span, not whatever sits on
        # top, or every later span would inherit a bogus parent.
        if stack:
            if stack[-1] is self:
                stack.pop()
            else:
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is self:
                        del stack[i]
                        break
        reg._record_span(self)


class NullSpan:
    """Reusable no-op context manager (safe to re-enter: it has no state).

    Carries the same identifier surface as :class:`Span` — all None-ish
    — so call sites can stamp ``span.trace_id`` unconditionally.
    """

    __slots__ = ()

    #: the no-op trace has no identity
    trace_id: str | None = None
    span_id: int | None = None
    parent_id: int | None = None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        pass


NULL_SPAN = NullSpan()
