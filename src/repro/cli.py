"""Command-line interface: poke at Remos on canned simulated worlds.

Because the network under observation is simulated, the CLI operates on
named scenarios rather than live devices::

    python -m repro scenarios
    python -m repro topology wan cmu-h0 eth-h0
    python -m repro flow wan cmu-h0 eth-h0 --predict
    python -m repro nodes lan h0 h1
    python -m repro models
    python -m repro forecast --spec "AR(16)" --horizon 10

Each command builds the world, deploys the collector stack, runs long
enough for measurements to exist, and prints what an application would
see through the Remos API.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import obs
from repro.common.errors import RemosError
from repro.common.units import MBPS, fmt_rate

#: scenario name -> description (builders resolved lazily; deployments
#: take a second or two each)
SCENARIOS = {
    "lan": "a 32-host switched LAN behind one router (hosts h0..h31)",
    "hub": "a shared-Ethernet LAN with a hub (hosts hub_h0.., sw_h0..)",
    "campus": "3 routed subnets, each a switched LAN (hosts c0h0..c2h3)",
    "wan": "3 sites joined by a WAN: cmu (10 Mbps), eth (60 Mbps), "
           "coimbra (0.3 Mbps) (hosts cmu-h0.. etc.)",
    "wireless": "3 basestations, 6 roaming hosts (wh0..), 2 wired (h0..)",
}


def _build(scenario: str):
    from repro import deploy
    from repro.netsim import builders

    if scenario.endswith(".json"):
        from pathlib import Path

        from repro.netsim.spec import network_from_json

        net = network_from_json(Path(scenario).read_text())
        return net, deploy.auto_deploy(net)
    if scenario == "lan":
        world = builders.build_switched_lan(32, fanout=8)
        return world.net, deploy.deploy_lan(world)
    if scenario == "hub":
        world = builders.build_hub_lan()
        return world.net, deploy.deploy_lan(world)
    if scenario == "campus":
        world = builders.build_campus(3, 4)
        return world.net, deploy.deploy_campus(world)
    if scenario == "wan":
        world = builders.build_multisite_wan(
            [
                builders.SiteSpec("cmu", access_bps=10 * MBPS, n_hosts=3),
                builders.SiteSpec("eth", access_bps=60 * MBPS, n_hosts=3),
                builders.SiteSpec("coimbra", access_bps=0.3 * MBPS, n_hosts=3),
            ]
        )
        return world.net, deploy.deploy_wan(world)
    if scenario == "wireless":
        wl = builders.build_wireless_lan()
        return wl.net, deploy.deploy_wireless(wl)
    raise SystemExit(f"unknown scenario {scenario!r} (see `scenarios`)")


def _host(net, name: str):
    from repro.netsim.topology import Host

    node = net.nodes.get(name)
    if not isinstance(node, Host):
        raise SystemExit(
            f"no host named {name!r}; hosts: "
            + ", ".join(sorted(n for n, d in net.nodes.items() if d.kind == "host"))
        )
    return node


def cmd_scenarios(args) -> int:
    for name, desc in SCENARIOS.items():
        print(f"{name:>9}  {desc}")
    return 0


def cmd_topology(args) -> int:
    net, dep = _build(args.scenario)
    hosts = [_host(net, h) for h in args.hosts]
    net.engine.run_until(net.now + 10.0)
    ans = dep.session().topology(
        hosts, detail="raw" if args.raw else "simplified"
    )
    graph = ans.graph
    print(f"# topology spanning {', '.join(args.hosts)}"
          f" ({'raw' if args.raw else 'simplified'})")
    if ans.degraded:
        print(f"# status: {ans.status} (data age {ans.data_age_s:.1f}s)")
        for site, st in sorted(ans.site_status.items()):
            if st.status is not None:
                print(f"#   {site}: {st.status} {st.detail}".rstrip())
    for n in graph.nodes():
        ips = f"  [{', '.join(n.ips)}]" if n.ips else ""
        print(f"node  {n.id:<28} {n.kind}{ips}")
    for e in graph.edges():
        print(
            f"edge  {e.a} -- {e.b}: {fmt_rate(e.capacity_bps)}"
            f", util {fmt_rate(e.util_ab_bps)}/{fmt_rate(e.util_ba_bps)}"
            f", {e.latency_s * 1000:.1f} ms"
        )
    return 0


def cmd_flow(args) -> int:
    net, dep = _build(args.scenario)
    session = dep.session()
    src, dst = _host(net, args.src), _host(net, args.dst)
    if args.predict:
        from repro.rps.service import RpsPredictionService

        dep.modeler.prediction_service = RpsPredictionService(args.spec)
        # build history first
        session.flow_info(src, dst)
        dep.start_monitoring()
        net.engine.run_until(net.now + 120.0)
    ans = session.flow_info(src, dst, predict=args.predict)
    print(f"flow {ans.src} -> {ans.dst}")
    if ans.degraded:
        print(f"  status    : {ans.status} (data age {ans.data_age_s:.1f}s)")
    print(f"  available : {fmt_rate(ans.available_bps)}")
    print(f"  capacity  : {fmt_rate(ans.capacity_bps)}")
    print(f"  latency   : {ans.latency_s * 1000:.1f} ms")
    print(f"  jitter    : {ans.jitter_s * 1000:.3f} ms")
    print(f"  path      : {' -> '.join(ans.path)}")
    if ans.predicted_bps is not None:
        sd = np.sqrt(max(ans.predicted_var or 0.0, 0.0))
        print(f"  forecast  : {fmt_rate(ans.predicted_bps)} (+-{fmt_rate(sd)})")
    return 0


def cmd_nodes(args) -> int:
    from repro.netsim.agents import attach_trace
    from repro.rps.hostload import host_load_trace

    net, dep = _build(args.scenario)
    hosts = [_host(net, h) for h in args.hosts]
    for i, h in enumerate(hosts):
        if h.load_source is None:
            attach_trace(h, host_load_trace(2000, seed=i), dt=1.0)
        dep.attach_host_sensor(h, args.spec)
    net.engine.run_until(net.now + 120.0)
    for ans in dep.session().node_info(hosts, predict=True):
        if ans.load is None:
            print(f"{ans.ip:>16}  no sensor ({ans.status})")
            continue
        pred = (
            f", forecast {ans.predicted_load:.2f}"
            if ans.predicted_load is not None
            else ""
        )
        print(f"{ans.ip:>16}  load {ans.load:.2f}{pred}")
    return 0


def cmd_models(args) -> int:
    from repro.rps.hostload import host_load_trace
    from repro.rps.models import parse_model

    trace = host_load_trace(1200, seed=0)
    specs = ["MEAN", "LAST", "BM(32)", "AR(16)", "MA(8)",
             "ARMA(4,4)", "ARIMA(2,1,2)", "ARFIMA(2,0)",
             "REFIT(AR(16),300)", "EXPERTS(AR(8)+BM(8)+LAST)"]
    print(f"{'spec':>26}  {'fit[us]':>9}  {'1-step forecast':>15}")
    for spec in specs:
        model = parse_model(spec)
        t0 = obs.wall_now()
        fitted = model.fit(trace[:600])
        fit_us = 1e6 * (obs.wall_now() - t0)
        fc = fitted.forecast(1)
        print(f"{spec:>26}  {fit_us:>9.0f}  {fc.values[0]:>10.3f} +-"
              f"{np.sqrt(fc.variances[0]):.3f}")
    return 0


def cmd_forecast(args) -> int:
    from repro.rps.hostload import host_load_trace
    from repro.rps.models import parse_model

    trace = host_load_trace(args.samples + args.horizon, seed=args.seed)
    fitted = parse_model(args.spec).fit(trace[: args.samples])
    fc = fitted.forecast(args.horizon)
    print(f"# {args.spec} fitted to {args.samples} synthetic load samples")
    print(f"{'h':>3}  {'forecast':>9}  {'sd':>7}  {'actual':>7}")
    for k in range(args.horizon):
        print(
            f"{k + 1:>3}  {fc.values[k]:>9.3f}  {np.sqrt(fc.variances[k]):>7.3f}"
            f"  {trace[args.samples + k]:>7.3f}"
        )
    return 0


def cmd_trace(args) -> int:
    """Render a recorded trace: waterfall, attribution, Chrome export.

    Reads any JSON file that carries spans — a flight-recorder dump, an
    ``obs.export.snapshot`` / ``to_json`` payload, or a document that
    nests one under an ``obs`` key.
    """
    import json
    from pathlib import Path

    from repro.obs import traceview

    try:
        data = json.loads(Path(args.file).read_text())
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: {args.file} is not JSON: {exc}", file=sys.stderr)
        return 1
    try:
        spans = traceview.normalize_spans(data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace_id is not None:
        spans = [s for s in spans if s.get("trace_id") == args.trace_id]
        if not spans:
            print(f"error: no spans for trace {args.trace_id!r}", file=sys.stderr)
            return 1
    if args.chrome is not None:
        Path(args.chrome).write_text(
            json.dumps(traceview.to_chrome_trace(spans), indent=2) + "\n"
        )
        print(f"wrote {len(spans)} spans to {args.chrome} (chrome://tracing)")
        return 0
    if isinstance(data, dict) and data.get("reason"):
        print(f"# flight-recorder dump: {data['reason']}"
              + (f" (trace {data.get('trace_id')})" if data.get("trace_id") else ""))
    for line in traceview.waterfall_lines(spans, trace_id=args.trace_id):
        print(line)
    counters = data.get("counters", {}) if isinstance(data, dict) else {}
    if not counters and isinstance(data, dict):
        obs_part = data.get("obs")
        if isinstance(obs_part, dict):
            counters = obs_part.get("counters", {})
    print()
    print("time by layer (self time, registry clock):")
    for layer, t in traceview.time_by_layer(spans).items():
        print(f"  {layer:<24} {t * 1e3:10.3f} ms")
    by_site = traceview.time_by_site(spans)
    if by_site:
        print("time by site (fragment delegation):")
        for site, t in by_site.items():
            print(f"  {site:<24} {t * 1e3:10.3f} ms")
    counts = traceview.retry_timeout_counts(counters)
    if any(counts.values()):
        print("retries/timeouts:")
        for name, v in counts.items():
            if v:
                print(f"  {name:<32} {v:g}")
    if args.summary:
        events = data.get("events") if isinstance(data, dict) else None
        if events:
            print(f"log tail ({len(events)} events):")
            for ev in events[-args.summary_events:]:
                print(f"  [{ev.get('t_s', 0):10.3f}] {ev.get('level', '?'):<7}"
                      f" {ev.get('logger', '?')}: {ev.get('message', '')}")
    return 0


def cmd_serve(args) -> int:
    """Boot a scenario and serve the Remos query plane over HTTP."""
    import asyncio

    from repro.service import RemosService, ServiceConfig
    from repro.service.http import serve_forever

    # a live registry so GET /v1/metrics actually reports
    with obs.scoped_registry() as reg:
        net, dep = _build(args.scenario)
        reg.use_sim_clock(net.engine)
        # run the world long enough that collectors have measurements
        net.engine.run_until(net.now + args.warmup)
        config = ServiceConfig(
            rate=args.rate,
            burst=args.rate * 2,
            max_inflight=args.max_inflight,
        )
        service = RemosService.from_deployment(dep, config)
        print(
            f"# remos service: scenario={args.scenario} "
            f"http://{args.host}:{args.port}/v1 "
            f"(rate={args.rate:g}/s/tenant, max_inflight={args.max_inflight})"
        )
        try:
            asyncio.run(
                serve_forever(
                    service, args.host, args.port, tick_interval_s=args.tick
                )
            )
        except KeyboardInterrupt:
            print("# interrupted; shutting down")
    return 0


def cmd_stats(args) -> int:
    """Exercise every layer of a scenario and dump the obs registry."""
    from repro.netsim.agents import attach_trace
    from repro.rps.hostload import host_load_trace
    from repro.rps.service import RpsPredictionService

    with obs.scoped_registry() as reg:
        net, dep = _build(args.scenario)
        reg.use_sim_clock(net.engine)
        hosts = sorted(
            (h for h in net.hosts() if any(i.ip for i in h.interfaces)),
            key=lambda h: h.name,
        )
        if len(hosts) < 2:
            raise SystemExit("stats needs a scenario with at least two hosts")
        src, dst = hosts[0], hosts[1]
        for i, h in enumerate((src, dst)):
            if h.load_source is None:
                attach_trace(h, host_load_trace(2000, seed=i), dt=1.0)
            dep.attach_host_sensor(h, args.spec)
        dep.modeler.prediction_service = RpsPredictionService(args.spec)
        dep.modeler.query_cache_ttl_s = 5.0  # staleness window: one poll period
        dep.enable_streaming_prediction(args.spec)
        dep.start_monitoring()
        dep.start_benchmarks()
        net.engine.run_until(net.now + args.runtime)
        session = dep.session()
        session.topology([src, dst])
        session.topology([src, dst], detail="summary")
        session.flow_info(src, dst, predict=True)
        session.flow_info(src, dst)  # repeat inside the window: cache hit
        session.node_info([src, dst], predict=True)
        if args.format in ("json", "both"):
            print(obs.export.to_json(reg))
        if args.format in ("prom", "both"):
            print(obs.export.to_prometheus(reg))
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Remos (HPDC 2001) reproduction: query simulated worlds",
    )
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="enable debug logging on the repro logger",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list canned simulated worlds")

    tp = sub.add_parser("topology", help="virtual topology between hosts")
    tp.add_argument("scenario", help="scenario name or a topology .json spec")
    tp.add_argument("hosts", nargs="+")
    tp.add_argument("--raw", action="store_true", help="skip simplification")

    fp = sub.add_parser("flow", help="bandwidth a new flow can expect")
    fp.add_argument("scenario", help="scenario name or a topology .json spec")
    fp.add_argument("src")
    fp.add_argument("dst")
    fp.add_argument("--predict", action="store_true", help="add an RPS forecast")
    fp.add_argument("--spec", default="AR(16)", help="RPS model spec")

    np_ = sub.add_parser("nodes", help="host load (current + forecast)")
    np_.add_argument("scenario", help="scenario name or a topology .json spec")
    np_.add_argument("hosts", nargs="+")
    np_.add_argument("--spec", default="AR(16)")

    sub.add_parser("models", help="RPS model zoo with fit costs")

    fo = sub.add_parser("forecast", help="fit a model to a synthetic trace")
    fo.add_argument("--spec", default="AR(16)")
    fo.add_argument("--samples", type=int, default=600)
    fo.add_argument("--horizon", type=int, default=10)
    fo.add_argument("--seed", type=int, default=0)

    st = sub.add_parser(
        "stats", help="run a demo scenario and dump the metrics registry"
    )
    st.add_argument(
        "scenario", nargs="?", default="hub",
        help="scenario name or a topology .json spec (default: hub)",
    )
    st.add_argument(
        "--runtime", type=float, default=120.0,
        help="simulated seconds to run before dumping (default: 120)",
    )
    st.add_argument(
        "--format", choices=("json", "prom", "both"), default="both",
        help="output format (default: both)",
    )
    st.add_argument("--spec", default="AR(16)", help="RPS model spec")

    tr = sub.add_parser(
        "trace",
        help="render a recorded trace (flight-recorder dump or "
             "snapshot): waterfall + latency attribution",
    )
    tr.add_argument("file", help="JSON file carrying spans")
    tr.add_argument(
        "--trace-id", default=None,
        help="restrict to one trace (e.g. t0003)",
    )
    tr.add_argument(
        "--chrome", metavar="OUT", default=None,
        help="write Chrome trace-event JSON to OUT instead of rendering",
    )
    tr.add_argument(
        "--summary", action="store_true",
        help="also print the dump's log-event tail",
    )
    tr.add_argument(
        "--summary-events", type=int, default=20,
        help="log events shown with --summary (default: 20)",
    )

    sv = sub.add_parser(
        "serve",
        help="serve the Remos query plane over HTTP (see docs/service.md)",
    )
    sv.add_argument(
        "scenario", nargs="?", default="wan",
        help="scenario name or a topology .json spec (default: wan)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8077)
    sv.add_argument(
        "--warmup", type=float, default=30.0,
        help="simulated seconds to run before serving (default: 30)",
    )
    sv.add_argument(
        "--rate", type=float, default=200.0,
        help="per-tenant request rate limit per second (default: 200)",
    )
    sv.add_argument(
        "--max-inflight", type=int, default=64,
        help="concurrent backend calls before shedding to LKG (default: 64)",
    )
    sv.add_argument(
        "--tick", type=float, default=0.5,
        help="subscription poll interval in seconds, 0 disables (default: 0.5)",
    )
    return p


COMMANDS = {
    "scenarios": cmd_scenarios,
    "topology": cmd_topology,
    "flow": cmd_flow,
    "nodes": cmd_nodes,
    "models": cmd_models,
    "forecast": cmd_forecast,
    "stats": cmd_stats,
    "trace": cmd_trace,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if args.verbose:
        obs.log.configure(verbose=True)
    try:
        return COMMANDS[args.command](args)
    except RemosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
