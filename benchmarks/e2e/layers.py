"""Per-layer numbers a traced segment yields, read from outside the program.

Everything here is derived from the traced registry (``Tracer.reg``):
the program's own ``obs.catalog`` counters and spans plus the harness
spans recorded around public calls.  Times are wall-clock unless the
name says ``sim``; a ``*_per_query`` count divides by the answers the
traced segments received.
"""

from __future__ import annotations

from typing import Any

from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.obs import MetricsRegistry, traceview

from workloads import Segment

#: the layers whose share of a workload's traced time is reported
LAYERS = (
    "service",
    "session",
    "modeler",
    "collectors.master",
    "collectors.snmp",
    "snmp.client",
    "netsim",
)


def _shares(by_layer: dict[str, float]) -> dict[str, float]:
    total = sum(by_layer.values())
    return {layer: (by_layer.get(layer, 0.0) / total if total else 0.0) for layer in LAYERS}


def layer_shares(spans: list[dict[str, object]]) -> dict[str, float]:
    """``layer.wall_share.X`` and ``layer.sim_share.X``: self time per layer.

    The registry stamps spans on the simulated clock and also keeps
    each span's wall duration, so one recording gives both accounts.
    """
    sim = _shares(traceview.time_by_layer(spans))
    wall = _shares(traceview.time_by_layer([{**s, "duration_s": s["wall_s"]} for s in spans]))
    out = {f"layer.wall_share.{layer}": wall[layer] for layer in LAYERS}
    out.update({f"layer.sim_share.{layer}": sim[layer] for layer in LAYERS})
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Registry:
    """Sums over the traced registry by base name."""

    def __init__(self, reg: MetricsRegistry) -> None:
        self.reg = reg
        self.span_wall: dict[str, tuple[int, float]] = {}
        for s in self.reg.spans:
            n, wall = self.span_wall.get(s.name, (0, 0.0))
            self.span_wall[s.name] = (n + 1, wall + s.wall_s)

    def counter(self, name: str, **labels: str) -> float:
        want = set(labels.items())
        return sum(
            c.value for c in self.reg.counters() if c.name == name and want <= set(c.labels)
        )

    def histogram(self, name: str) -> tuple[int, float]:
        hs = [h for h in self.reg.histograms() if h.name == name]
        return sum(h.count for h in hs), sum(h.sum for h in hs)

    def mean_span_wall_s(self, name: str) -> float:
        n, wall = self.span_wall.get(name, (0, 0.0))
        return _ratio(wall, n)


def workload_layers(
    reg: MetricsRegistry,
    spans: list[dict[str, object]],
    traced: list[Segment],
    stats_delta: dict[str, int],
) -> dict[str, float]:
    """Every per-layer metric that is a property of the workload itself."""
    r = _Registry(reg)
    ops = sum(s.ops for s in traced)
    sim_s = sum(s.sim_total_s for s in traced)
    out = layer_shares(spans)

    def hit_ratio(name: str) -> float:
        hit = r.counter(name, result="hit")
        return _ratio(hit, hit + r.counter(name, result="miss"))

    out["modeler.query_cache.hit_ratio"] = hit_ratio("modeler.query_cache")
    out["modeler.graph.path_cache.hit_ratio"] = hit_ratio("modeler.graph.path_cache")
    fanouts, fanout_sum = r.histogram("collectors.master.fanout")
    out["collectors.master.fanout"] = _ratio(fanout_sum, fanouts)
    out["collectors.snmp.poll_ms"] = r.mean_span_wall_s("collectors.snmp.poll") * 1e3
    out["collectors.snmp.polls_per_sim_s"] = _ratio(r.counter("collectors.snmp.polls"), sim_s)
    probes = r.counter("collectors.benchmark.probes")
    out["collectors.benchmark.probes_per_query"] = _ratio(probes, ops)
    out["collectors.benchmark.probe_mb_per_query"] = _ratio(
        probes * BenchmarkConfig().probe_bytes / 1e6, ops
    )
    out["snmp.client.pdus_per_query"] = _ratio(r.counter("snmp.client.pdus"), ops)
    out["snmp.client.pdu_us"] = r.mean_span_wall_s("snmp.client.pdu") * 1e6
    out["snmp.client.retries"] = r.counter("snmp.retries")
    out["snmp.client.timeouts"] = r.counter("snmp.client.timeouts")
    events = r.counter("netsim.engine.events")
    out["netsim.engine.events_per_sim_s"] = _ratio(events, sim_s)
    out["netsim.engine.event_us"] = _ratio(
        r.span_wall.get("netsim.engine.run_until", (0, 0.0))[1] * 1e6, events
    )
    out["netsim.flows.recomputes_per_sim_s"] = _ratio(
        r.histogram("netsim.maxmin.rounds")[0], sim_s
    )
    out["netsim.maxmin.kernel_us"] = r.mean_span_wall_s("netsim.maxmin.kernel") * 1e6
    for key in ("live", "shed_lkg", "rate_limited", "overloaded"):
        out[f"service.app.{key}"] = float(stats_delta.get(key, 0))
    return out


def validity_failures(workload: str, layers: dict[str, Any]) -> int:
    """Workload-validity bands that only a traced registry can show."""
    hit = layers["modeler.query_cache.hit_ratio"]
    if workload == "http_flow_cached":
        return int(hit < 0.95)
    if workload == "session_monitor_churn":
        return int(hit > 0.5)
    return 0
