"""Registry exporters: JSON snapshots and Prometheus text format.

Two consumers, two formats:

* :func:`snapshot` / :func:`to_json` — a plain dict / JSON document for
  benchmark scripts and EXPERIMENTS.md tooling (registry reads replace
  hand-rolled counters).  Span entries carry the causal identifiers
  (``trace_id``/``span_id``/``parent_id``, see :mod:`repro.obs.tracing`)
  so the tree is reconstructible offline (``repro trace`` renders it).
* :func:`to_prometheus` — the Prometheus text exposition format
  (``# TYPE`` comments, ``name{label="v"} value`` samples; histograms
  as summaries with ``quantile`` labels plus ``_sum``/``_count``), so a
  real scrape endpoint is one HTTP handler away.  Label values are
  escaped per the exposition spec (backslash, double quote, newline).
  ``tests/obs/test_obs_export.py`` reads that format back to prove the
  export round-trips.

Metric names are dotted internally (``snmp.client.pdus``) and
sanitised to Prometheus conventions (``repro_snmp_client_pdus``) on
export.
"""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING

from repro.obs.metrics import Histogram, LabelsKey, render_name
from repro.obs.traceview import record_to_dict

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.obs.registry import MetricsRegistry, NullRegistry

    AnyRegistry = MetricsRegistry | NullRegistry

#: prefix for every exported Prometheus metric
PROM_PREFIX = "repro_"


def prom_name(name: str) -> str:
    """``snmp.client.pdus`` -> ``repro_snmp_client_pdus``."""
    return PROM_PREFIX + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _finite(v: float) -> float | None:
    """JSON-safe number (inf/nan become None)."""
    return v if math.isfinite(v) else None


def _histogram_summary(h: Histogram) -> dict[str, object]:
    return {
        "count": h.count,
        "sum": _finite(h.sum),
        "min": _finite(h.min) if h.count else None,
        "max": _finite(h.max) if h.count else None,
        "mean": _finite(h.mean),
        "quantiles": {
            str(q): _finite(v) for q, v in h.quantiles().items()
        },
    }


def snapshot(registry: "AnyRegistry", max_spans: int = 256) -> dict[str, object]:
    """The registry's state as a plain dict (JSON-serialisable)."""
    return {
        "counters": {
            render_name(c.name, c.labels): c.value for c in registry.counters()
        },
        "gauges": {
            render_name(g.name, g.labels): _finite(g.value)
            for g in registry.gauges()
        },
        "histograms": {
            render_name(h.name, h.labels): _histogram_summary(h)
            for h in registry.histograms()
        },
        "spans": [record_to_dict(s) for s in list(registry.spans)[-max_spans:]],
    }


def to_json(
    registry: "AnyRegistry", indent: int | None = 2, max_spans: int = 256
) -> str:
    return json.dumps(snapshot(registry, max_spans=max_spans), indent=indent)


def escape_label_value(v: str) -> str:
    """Escape a label value per the Prometheus exposition format."""
    return v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_labels(
    labels: LabelsKey, extra: tuple[tuple[str, str], ...] = ()
) -> str:
    items = tuple(labels) + extra
    if not items:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{escape_label_value(v)}"' for k, v in items)
        + "}"
    )


def _prom_value(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    return repr(float(v))


def to_prometheus(registry: "AnyRegistry") -> str:
    """Prometheus text exposition of every counter, gauge, histogram."""
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for c in registry.counters():
        name = prom_name(c.name)
        type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(c.labels)} {_prom_value(c.value)}")
    for g in registry.gauges():
        name = prom_name(g.name)
        type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(g.labels)} {_prom_value(g.value)}")
    for h in registry.histograms():
        name = prom_name(h.name)
        type_line(name, "summary")
        for q, v in h.quantiles().items():
            lines.append(
                f"{name}{_prom_labels(h.labels, (('quantile', str(q)),))} "
                f"{_prom_value(v)}"
            )
        lines.append(f"{name}_sum{_prom_labels(h.labels)} {_prom_value(h.sum)}")
        lines.append(f"{name}_count{_prom_labels(h.labels)} {h.count}")
    return "\n".join(lines) + "\n"
