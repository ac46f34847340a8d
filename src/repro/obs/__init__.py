"""repro.obs — metrics, spans, and logging for the Remos stack.

The paper's whole evaluation rests on measured quantities (query
latency, SNMP message counts, staleness, fit cost); this package makes
a running stack report them itself.  See ``docs/observability.md`` for
the metric name catalogue.

Instrumented code calls the module-level helpers, which delegate to the
current process-global registry::

    from repro import obs

    obs.counter("snmp.client.pdus", op="get").inc()
    obs.gauge("collectors.snmp.poll.staleness_s").set(age)
    obs.histogram("rps.fit.wall_s", spec="AR(16)").observe(dt)
    with obs.span("modeler.flow_query"):
        ...

By default the registry is a no-op (:class:`NullRegistry`): handles are
shared singletons and every call above costs one function call.
Experiments opt in::

    with obs.scoped_registry() as reg:
        reg.use_sim_clock(net.engine)      # spans in simulated seconds
        run()
        print(obs.export.to_json(reg))
"""

from __future__ import annotations

from repro.obs import export, log, metrics, timebase, tracing  # noqa: F401
from repro.obs.log import get_logger
from repro.obs.flightrec import FlightRecorder, load_dump
from repro.obs.metrics import Counter, Gauge, Histogram, render_name
from repro.obs.registry import (
    MetricsRegistry,
    NullRegistry,
    get_registry,
    scoped_registry,
    set_registry,
)
from repro.obs.timebase import (
    FixedTimebase,
    SimTimebase,
    WallTimebase,
    cpu_now,
    wall_now,
)
from repro.obs.tracing import SpanRecord
from repro.obs import flightrec, traceview  # noqa: F401

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "SpanRecord",
    "FixedTimebase",
    "SimTimebase",
    "WallTimebase",
    "counter",
    "cpu_now",
    "wall_now",
    "gauge",
    "histogram",
    "span",
    "get_logger",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "render_name",
    "load_dump",
    "export",
    "flightrec",
    "log",
    "metrics",
    "timebase",
    "traceview",
    "tracing",
]


def counter(name: str, **labels: object) -> "metrics.Counter | metrics.NullCounter":
    """Counter handle from the current registry."""
    return get_registry().counter(name, **labels)


def gauge(name: str, **labels: object) -> "metrics.Gauge | metrics.NullGauge":
    """Gauge handle from the current registry."""
    return get_registry().gauge(name, **labels)


def histogram(
    name: str, **labels: object
) -> "metrics.Histogram | metrics.NullHistogram":
    """Histogram handle from the current registry."""
    return get_registry().histogram(name, **labels)


def span(name: str, **labels: object) -> "tracing.Span | tracing.NullSpan":
    """Span context manager from the current registry."""
    return get_registry().span(name, **labels)
