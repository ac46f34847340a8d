"""Layer probes: direct calls into one layer's public function at a time.

Each number is the median cost of calling a layer's public entry point
with inputs recorded from a workload's world, or the difference of two
such medians where one call nests the other (HTTP round trip minus
``dispatch``, ``dispatch`` minus the session call, the session call
minus the Master fetch).  The probes build their own worlds from the
seed with the same recipe the workloads use, so they cost the same
whichever workload the traced run is for.

A probe whose entry point has gone reports ``None`` and a warning; it
never fails the run.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Callable

import httpload
import recipe
import stats
import workloads

# Each probe imports the entry points it calls itself: one that has
# moved then costs that probe's numbers, not the whole traced run.


def _median_s(fn: Callable[[], Any], calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` batches of the mean cost of one call."""
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append((time.perf_counter() - t0) / calls)
    return stats.median(costs)


def _service_edge(n_sites: int, endpoint: str, body: dict[str, Any], calls: int) -> dict[str, Any]:
    """Round trip, dispatch and the envelope for one body on a fresh stack."""
    loop = asyncio.new_event_loop()
    server = httpload.InProcessServer(loop, n_sites)
    try:
        conns = httpload.Connections(loop, server.port, 1)
        tenants = recipe.TENANTS
        plan = [
            httpload.encode_request(endpoint, body, tenants[i % len(tenants)])
            for i in range(calls)
        ]
        service = server.service

        async def dispatch_all() -> dict[str, Any]:
            env: dict[str, Any] = {}
            for i in range(calls):
                env = await service.dispatch(endpoint, dict(body), tenant=tenants[i % len(tenants)])
            return env

        conns.run([plan])  # first call misses the cache; the rest of the probe hits
        rtt, disp = [], []
        for _ in range(5):
            rtt.append(conns.run([plan]).wall_s / calls)
            t0 = time.perf_counter()
            env = loop.run_until_complete(dispatch_all())
            disp.append((time.perf_counter() - t0) / calls)
        conns.close()
        return {
            "rtt_s": stats.median(rtt),
            "dispatch_s": stats.median(disp),
            "envelope": env,
            "session": service.backend.session,
            "master": service.backend.master,
        }
    finally:
        server.close()
        loop.close()


def _small(seed: int) -> dict[str, float]:
    from repro.service.admission import LastKnownGoodStore
    from repro.service.ratelimit import TenantRateLimiter
    from repro.service.wire import canonical_json, decode_body

    world = recipe.multisite_world(recipe.SMALL_SITES)
    body = recipe.flow_bodies(world, seed)[0]
    edge = _service_edge(recipe.SMALL_SITES, "flow_info", body, calls=200)
    session, env = edge["session"], edge["envelope"]
    raw_request = canonical_json(body).encode()
    hit_s = _median_s(lambda: session.flow_info(body["src"], body["dst"]).status, 200)
    limiter = TenantRateLimiter()
    for tenant in recipe.TENANTS:
        limiter.admit(tenant)
    tenants = iter(recipe.TENANTS * 5)
    lkg = LastKnownGoodStore()
    key = f"flow_info:{canonical_json(body)}"
    return {
        "service.http.edge_us_small": (edge["rtt_s"] - edge["dispatch_s"]) * 1e6,
        "service.app.pipeline_us": (edge["dispatch_s"] - hit_s) * 1e6,
        "service.wire.encode_us_small": _median_s(lambda: canonical_json(env), 200) * 1e6,
        "service.wire.decode_us_small": _median_s(lambda: decode_body(raw_request), 200) * 1e6,
        "service.ratelimit.admit_us": _median_s(lambda: limiter.admit(next(tenants)), 256) * 1e6,
        "service.admission.lkg_store_us": _median_s(lambda: lkg.store(key, env["result"]), 200)
        * 1e6,
        "service.admission.lkg_serve_us": _median_s(lambda: lkg.serve_stale(key), 200) * 1e6,
        "session.flow_info_us_hit": hit_s * 1e6,
    }


def _large(seed: int) -> dict[str, float]:
    from repro.collectors.base import TopologyRequest
    from repro.modeler.simplify import simplify
    from repro.service.wire import canonical_json, parse_result

    world = recipe.multisite_world(recipe.LARGE_SITES)
    body = recipe.topology_bodies(world, seed)[0]
    hosts = body["hosts"]
    edge = _service_edge(recipe.LARGE_SITES, "topology", body, calls=20)
    session, master, env = edge["session"], edge["master"], edge["envelope"]
    encoded = canonical_json(env)
    answer = session.topology(hosts)
    raw = session.topology(hosts, detail="raw")
    if not (answer.ok and raw.ok):
        raise RuntimeError("large-world topology answer is degraded")
    hit_s = _median_s(lambda: session.topology(hosts).status, 10)

    def miss() -> None:
        session.invalidate_cache()
        session.topology(hosts).status

    request = TopologyRequest.of(hosts)
    miss_s = _median_s(miss, 1, repeats=3)
    fetch_s = _median_s(lambda: master.topology(request), 1, repeats=3)
    return {
        "service.http.edge_us_large": (edge["rtt_s"] - edge["dispatch_s"]) * 1e6,
        "service.wire.encode_us_large": _median_s(lambda: canonical_json(env), 10) * 1e6,
        "service.wire.parse_result_us_large": _median_s(
            lambda: parse_result(json.loads(encoded)), 5
        )
        * 1e6,
        "service.wire.to_dict_us_large": _median_s(answer.to_dict, 10) * 1e6,
        "service.wire.bytes_large": float(len(encoded)),
        "session.topology_ms_hit": hit_s * 1e3,
        "modeler.self_ms_topology": (miss_s - fetch_s) * 1e3,
        "modeler.simplify_ms": _median_s(lambda: simplify(raw.graph, protect=set(hosts)), 5) * 1e3,
    }


def _cold(seed: int) -> dict[str, float]:
    from repro import obs
    from repro.collectors.base import TopologyRequest
    from repro.collectors.sharding import ShardingConfig
    from repro.modeler.planner import plan_flow_pairs
    from repro.netsim.builders import build_random_wan

    def build() -> Any:
        return build_random_wan(16, seed=seed, hosts_per_site=(2, 4))

    out = {
        "netsim.build_ms": _median_s(build, 1, repeats=3) * 1e3,
        "deploy.deploy_ms": _median_s(lambda: recipe.deploy(build()), 1, repeats=3) * 1e3,
    }
    out["deploy.deploy_ms"] -= out["netsim.build_ms"]

    world = build()
    dep = recipe.deploy(world)
    hosts = recipe.first_hosts(world)
    pairs = [(hosts[0], dst) for dst in hosts[1:]]
    with obs.scoped_registry() as reg:
        answers = dep.session().flow_info_many(pairs)
    if not all(a.ok for a in answers):
        raise RuntimeError("cold first answer is degraded")

    def counted(name: str) -> float:
        return sum(c.value for c in reg.counters() if c.name == name)

    out["collectors.benchmark.probes_first_answer"] = counted("collectors.benchmark.probes")
    out["snmp.client.pdus_first_answer"] = counted("snmp.client.pdus")
    out["modeler.planner_us"] = _median_s(lambda: plan_flow_pairs(pairs, []), 100) * 1e6

    request = TopologyRequest.of(hosts)
    for prefix, sharding in (
        ("collectors.master", None),
        ("collectors.sharding", ShardingConfig(n_shards=4)),
    ):
        twin = build()
        master = recipe.deploy(twin, sharding=sharding).master
        sim0, t0 = twin.net.now, time.perf_counter()
        master.topology(request)
        out[f"{prefix}.topology_ms"] = (time.perf_counter() - t0) * 1e3
        out[f"{prefix}.topology_sim_ms"] = (twin.net.now - sim0) * 1e3

    site = sorted(world.sites)[0]
    site_request = TopologyRequest.of([str(h.ip) for h in world.sites[site].hosts])
    collector = recipe.deploy(build()).snmp_collectors[site]
    t0 = time.perf_counter()
    collector.topology(site_request)
    out["collectors.snmp.topology_ms"] = (time.perf_counter() - t0) * 1e3
    return out


def _churn(seed: int) -> dict[str, float]:
    from repro.collectors.base import TopologyRequest
    from repro.modeler.maxmin import predict_flows

    w = workloads.SessionMonitorChurn(seed)
    w.setup()
    try:
        session, master = w.session, w.dep.master
        src, dst = w.hosts[0], w.hosts[1]

        def miss() -> None:
            session.invalidate_cache()
            session.flow_info(src, dst).status

        request = TopologyRequest.of([src, dst])
        miss_s = _median_s(miss, 1, repeats=9)
        fetch_s = _median_s(lambda: master.topology(request), 1, repeats=9)
        raw = session.topology([src, dst], detail="raw")
        if not raw.ok:
            raise RuntimeError("churn-world topology answer is degraded")
        plain_s = _median_s(lambda: session.flow_info(src, dst).status, 20)
        predict_s = _median_s(lambda: session.flow_info(src, dst, predict=True).status, 20)
        return {
            "session.flow_info_ms_miss": miss_s * 1e3,
            "modeler.self_ms_flow": (miss_s - fetch_s) * 1e3,
            "modeler.maxmin_us": _median_s(lambda: predict_flows(raw.graph, [(src, dst)]), 50)
            * 1e6,
            "rps.predict_overhead_ms": (predict_s - plain_s) * 1e3,
        }
    finally:
        w.close()


def _shed(seed: int) -> dict[str, float]:
    w = workloads.DirectOverloadShed(seed, scale=0.25)
    w.setup()
    try:
        seg = w.segment()
    finally:
        w.close()
    return {
        "service.app.shed_us_p50": stats.median(seg.lat_shed_s) * 1e6,
        "service.app.live_ms_p50": stats.median(seg.lat_live_s) * 1e3,
    }


def _rps(seed: int) -> dict[str, float]:
    from repro.common.rng import make_rng
    from repro.rps.predictor import StreamingPredictor

    rng = make_rng(seed)
    history = rng.normal(size=600).cumsum()
    steps = iter(rng.normal(size=5 * 200).cumsum())
    predictor = StreamingPredictor(recipe.PREDICTOR_SPEC, history)
    return {
        "rps.fit_ms": _median_s(lambda: StreamingPredictor(recipe.PREDICTOR_SPEC, history), 1)
        * 1e3,
        "rps.step_us": _median_s(lambda: predictor.observe(next(steps)), 200) * 1e6,
    }


#: probe -> the names it reports, so a probe that cannot run still names its gaps
PROBES: dict[Callable[[int], dict[str, float]], tuple[str, ...]] = {
    _small: (
        "service.http.edge_us_small",
        "service.app.pipeline_us",
        "service.wire.encode_us_small",
        "service.wire.decode_us_small",
        "service.ratelimit.admit_us",
        "service.admission.lkg_store_us",
        "service.admission.lkg_serve_us",
        "session.flow_info_us_hit",
    ),
    _large: (
        "service.http.edge_us_large",
        "service.wire.encode_us_large",
        "service.wire.parse_result_us_large",
        "service.wire.to_dict_us_large",
        "service.wire.bytes_large",
        "session.topology_ms_hit",
        "modeler.self_ms_topology",
        "modeler.simplify_ms",
    ),
    _cold: (
        "netsim.build_ms",
        "deploy.deploy_ms",
        "collectors.benchmark.probes_first_answer",
        "snmp.client.pdus_first_answer",
        "modeler.planner_us",
        "collectors.master.topology_ms",
        "collectors.master.topology_sim_ms",
        "collectors.sharding.topology_ms",
        "collectors.sharding.topology_sim_ms",
        "collectors.snmp.topology_ms",
    ),
    _churn: (
        "session.flow_info_ms_miss",
        "modeler.self_ms_flow",
        "modeler.maxmin_us",
        "rps.predict_overhead_ms",
    ),
    _shed: ("service.app.shed_us_p50", "service.app.live_ms_p50"),
    _rps: ("rps.fit_ms", "rps.step_us"),
}


def run(seed: int) -> dict[str, float | None]:
    out: dict[str, float | None] = {}
    for probe, names in PROBES.items():
        try:
            out.update(probe(seed))
        except (AttributeError, ImportError, LookupError, TypeError, RuntimeError) as exc:
            sys.stderr.write(f"warning: layer probe {probe.__name__} could not run: {exc!r}\n")
            out.update(dict.fromkeys(names))
    return out
