"""The metrics registry: process-global, swappable, no-op by default.

Instrumented code never holds configuration — it asks the current
registry for a handle each time::

    from repro import obs
    obs.counter("snmp.client.pdus", op="get").inc()
    with obs.span("collectors.snmp.topology"):
        ...

The default registry is a :class:`NullRegistry` whose handles are
shared no-op singletons, so an uninstrumented run pays one function
call per metric touch and allocates nothing.  Experiments install a
live :class:`MetricsRegistry` — usually through the
:func:`scoped_registry` context manager, which restores the previous
registry on exit so tests and benchmarks capture metrics hermetically.

Trace identifiers (see :mod:`repro.obs.tracing`) are allocated here,
from plain per-registry sequence counters: deterministic, so seeded
experiments replay identical traces.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    LabelsKey,
    NullCounter,
    NullGauge,
    NullHistogram,
    labels_key,
)
from repro.obs.timebase import SimTimebase, Timebase, WallTimebase
from repro.obs.tracing import NULL_SPAN, NullSpan, Span, SpanRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.flightrec import FlightRecorder


class MetricsRegistry:
    """A live store of counters, gauges, histograms, and spans.

    ``clock`` is the timebase spans and staleness gauges are stamped
    against — wall clock unless :meth:`use_sim_clock` points it at a
    simulation engine.
    """

    def __init__(
        self,
        clock: Timebase | None = None,
        max_spans: int = 4096,
    ) -> None:
        self.clock: Timebase = clock or WallTimebase()
        self._counters: dict[tuple[str, LabelsKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelsKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelsKey], Histogram] = {}
        #: span (name, labels) -> its duration histogram, so recording
        #: a span skips the "<name>.duration_s" string concat
        self._span_hists: dict[tuple[str, LabelsKey], Histogram] = {}
        #: completed spans, most recent last (bounded ring)
        self.spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self._span_stack: list[Span] = []
        #: deterministic identifier sequences (see repro.obs.tracing)
        self._trace_seq = 0
        self._span_seq = 0
        #: optional flight recorder; the session and fault injector
        #: discover it here at dump time (see repro.obs.flightrec)
        self.flight_recorder: "FlightRecorder | None" = None
        #: bumped by :meth:`reset`: a caller that caches handles keys them
        #: by (registry, generation), since a reset drops every handle
        self.generation = 0

    # -- clock ---------------------------------------------------------

    def use_sim_clock(self, source: object) -> None:
        """Stamp spans against a simulation clock (engine or network)."""
        self.clock = SimTimebase(source)

    # -- handles -------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, labels_key(labels))
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter(name, key[1])
        return c

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, labels_key(labels))
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge(name, key[1])
        return g

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = (name, labels_key(labels))
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(name, key[1])
        return h

    def span(self, name: str, **labels: object) -> Span:
        return Span(self, name, labels_key(labels) if labels else ())

    # -- trace identity ------------------------------------------------

    def _next_trace_id(self) -> str:
        self._trace_seq += 1
        return f"t{self._trace_seq:04d}"

    def _next_span_id(self) -> int:
        self._span_seq += 1
        return self._span_seq

    def _record_span(self, record: SpanRecord) -> None:
        self.spans.append(record)
        # hot path: record.labels is already a canonical LabelsKey and
        # the duration histogram is memoized per (name, labels), so the
        # steady state is one dict hit — no labels re-sort, no
        # "<name>.duration_s" concat
        key = (record.name, record.labels)
        h = self._span_hists.get(key)
        if h is None:
            h = Histogram(record.name + ".duration_s", record.labels)
            self._histograms[(h.name, record.labels)] = h
            self._span_hists[key] = h
        h.observe(record.end_s - record.start_s)

    # -- introspection -------------------------------------------------

    def counters(self) -> list[Counter]:
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> list[Gauge]:
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> list[Histogram]:
        return [self._histograms[k] for k in sorted(self._histograms)]

    def metric_names(self) -> set[str]:
        """Distinct metric names (without labels) of every kind."""
        return (
            {n for n, _ in self._counters}
            | {n for n, _ in self._gauges}
            | {n for n, _ in self._histograms}
        )

    def reset(self) -> None:
        """Drop every metric and span (the clock is kept)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._span_hists.clear()
        self.spans.clear()
        self._span_stack.clear()
        self._trace_seq = 0
        self._span_seq = 0
        self.generation += 1


class NullRegistry:
    """The default: every handle is a shared no-op singleton."""

    clock: Timebase = WallTimebase()
    flight_recorder: None = None
    generation = 0

    def use_sim_clock(self, source: object) -> None:
        pass

    def counter(self, name: str, **labels: object) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, **labels: object) -> NullHistogram:
        return NULL_HISTOGRAM

    def span(self, name: str, **labels: object) -> NullSpan:
        return NULL_SPAN

    def counters(self) -> list[Counter]:
        return []

    def gauges(self) -> list[Gauge]:
        return []

    def histograms(self) -> list[Histogram]:
        return []

    def metric_names(self) -> set[str]:
        return set()

    @property
    def spans(self) -> "deque[SpanRecord]":
        return deque()

    def reset(self) -> None:
        pass


_NULL = NullRegistry()
_current: "MetricsRegistry | NullRegistry" = _NULL


def get_registry() -> "MetricsRegistry | NullRegistry":
    """The registry instrumented code is currently writing to."""
    return _current


def set_registry(registry: "MetricsRegistry | NullRegistry | None") -> None:
    """Install a registry globally (None restores the no-op default)."""
    global _current
    _current = registry if registry is not None else _NULL


@contextmanager
def scoped_registry(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of a ``with`` block.

    Creates a fresh live :class:`MetricsRegistry` when none is given.
    The previous registry is restored on exit, so nested scopes and
    test isolation just work::

        with scoped_registry() as reg:
            run_experiment()
            snapshot = export.snapshot(reg)
    """
    reg = registry if registry is not None else MetricsRegistry()
    global _current
    prev = _current
    _current = reg
    try:
        yield reg
    finally:
        _current = prev
