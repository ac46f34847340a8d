"""Deployment introspection: a status report for a running Remos stack.

A monitoring system needs monitoring: operators of the real Remos
debugged it by eyeballing collector state.  :func:`deployment_report`
renders everything observable about a
:class:`~repro.deploy.RemosDeployment` — per-collector cache and
monitor statistics, SNMP traffic spent, benchmark histories, directory
contents — as text; :func:`deployment_stats` returns the same data
structured, for programmatic health checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.units import fmt_rate
from repro.deploy import RemosDeployment


@dataclass
class CollectorStats:
    name: str
    queries_served: int
    pdu_count: int
    timeout_count: int
    cached_paths: int
    cached_route_tables: int
    #: gateway interfaces read from ipAddrTable rows, no route table walked
    cached_gateway_ifaces: int
    monitors: int
    monitors_ready: int
    polls_done: int


@dataclass
class BenchmarkStats:
    site: str
    probes_run: int
    bytes_injected: float
    peers: dict[str, tuple[float, float, int]] = field(default_factory=dict)


@dataclass
class DeploymentStats:
    now: float
    collectors: list[CollectorStats]
    benchmarks: list[BenchmarkStats]
    bridge_stations: dict[str, int]
    bridge_moves: dict[str, int]
    directory_sites: list[str]
    #: live entries in the deployment's SLP directory agent
    directory_services: int
    modeler_queries: int


def deployment_stats(dep: RemosDeployment) -> DeploymentStats:
    """Collect structured statistics from every component."""
    collectors = []
    for site, coll in sorted(dep.snmp_collectors.items()):
        ready = sum(1 for m in coll.monitors.values() if m.ready)
        collectors.append(
            CollectorStats(
                name=coll.name,
                queries_served=coll.queries_served,
                pdu_count=coll.client.pdu_count,
                timeout_count=coll.client.timeout_count,
                cached_paths=len(coll.discovery.state.paths),
                cached_route_tables=len(coll.discovery.state.route_tables),
                cached_gateway_ifaces=len(coll.discovery.state.subnet_ifaces),
                monitors=len(coll.monitors),
                monitors_ready=ready,
                polls_done=coll.polls_done,
            )
        )
    benchmarks = []
    for site, bench in sorted(dep.benchmarks.items()):
        bs = BenchmarkStats(site, bench.probes_run, bench.bytes_injected)
        for peer in sorted(bench.peers):
            hist = bench.history.get(peer)
            if hist:
                vals = [m.throughput_bps for m in hist]
                mean = sum(vals) / len(vals)
                var = sum((v - mean) ** 2 for v in vals) / len(vals)
                bs.peers[peer] = (mean, var**0.5, len(vals))
        benchmarks.append(bs)
    bridge_stations = {}
    bridge_moves = {}
    for site, bc in sorted(dep.bridge_collectors.items()):
        bridge_stations[site] = len(bc.db.station_attach) if bc.db else 0
        bridge_moves[site] = bc.moves_seen
    return DeploymentStats(
        now=dep.net.now,
        collectors=collectors,
        benchmarks=benchmarks,
        bridge_stations=bridge_stations,
        bridge_moves=bridge_moves,
        directory_sites=dep.directory.sites(),
        directory_services=len(dep.directory.agent),
        modeler_queries=dep.modeler.queries_made,
    )


def deployment_report(dep: RemosDeployment) -> str:
    """Render the statistics as an operator-facing text report."""
    s = deployment_stats(dep)
    lines = [
        f"Remos deployment status at t={s.now:.1f}s",
        f"directory sites: {', '.join(s.directory_sites) or '(none)'}"
        f" ({s.directory_services} services in the SLP directory agent)",
        f"modeler queries served: {s.modeler_queries}",
        "",
        "SNMP collectors:",
    ]
    for c in s.collectors:
        lines.append(
            f"  {c.name}: {c.queries_served} queries, "
            f"{c.pdu_count} PDUs ({c.timeout_count} timeouts), "
            f"{c.cached_paths} cached paths, "
            f"{c.cached_route_tables} route tables, "
            f"{c.cached_gateway_ifaces} gateway interfaces, "
            f"{c.monitors_ready}/{c.monitors} monitors ready, "
            f"{c.polls_done} poll sweeps"
        )
    if s.bridge_stations:
        lines.append("")
        lines.append("bridge collectors:")
        for site in s.bridge_stations:
            lines.append(
                f"  {site}: {s.bridge_stations[site]} stations tracked, "
                f"{s.bridge_moves[site]} moves seen"
            )
    if s.benchmarks:
        lines.append("")
        lines.append("benchmark collectors:")
        for b in s.benchmarks:
            lines.append(
                f"  {b.site}: {b.probes_run} probes, "
                f"{b.bytes_injected / 1e6:.2f} MB injected"
            )
            for peer, (mean, sd, n) in b.peers.items():
                lines.append(
                    f"    -> {peer}: {fmt_rate(mean)} +-{fmt_rate(sd)} (n={n})"
                )
    return "\n".join(lines)
