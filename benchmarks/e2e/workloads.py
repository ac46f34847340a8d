"""The five workloads: same stack, same recipe, different traffic.

Each workload is closed-loop (a Remos application calls and waits) and
runs in *segments* of a fixed operation count, so a rate is a median
over segments and a count per query repeats exactly for a seed.  A
workload knows how to set itself up (timed as ``setup_s``), run one
segment, and tear itself down; the runner in ``run.py`` decides how
many segments and whether spans are being recorded.

Why these five (one line each also sits in ``BENCHMARK.json``):

* ``http_flow_cached`` — smallest message, cache hit on nearly every
  request: the HTTP edge, wire codec and dispatch pipeline do the work.
* ``http_topology_large`` — largest message: answer serialisation,
  graph simplification and socket writes dominate, per-request edge
  cost is diluted.
* ``session_cold_discovery`` — service bypassed; collectors, SNMP and
  WAN probes do everything and the simulated clock carries the cost.
* ``session_monitor_churn`` — the simulated clock outruns the cache
  TTL, so the cache stores, expires and evicts while polling sweeps,
  periodic probes and predictions run underneath.
* ``direct_overload_shed`` — 4x the admission limit in flight: the
  shed path, last-known-good store and rate-limit table do the work
  and the socket none.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass, field
from typing import Any

import checks
import httpload
import machine
import recipe
from repro.common.rng import make_rng
from repro.netsim.builders import build_random_wan
from repro.netsim.traffic import RandomWalkTraffic
from repro.service import DirectClient, RemosService, ServiceConfig, ServiceError
from tracer import Tracer


@dataclass
class Segment:
    """What one segment measured; counts are exact, times are wall unless named sim."""

    ops: int = 0  # answers received
    wall_s: float = 0.0
    cpu_s: float = 0.0
    lat_s: list[float] = field(default_factory=list)
    failed: int = 0
    degraded: int = 0
    wire_bytes: int = 0
    sim_query_s: float = 0.0  # simulated time spent inside query calls
    sim_total_s: float = 0.0  # simulated time the segment advanced in all
    monitor_wall_s: float = 0.0  # wall time spent advancing the simulation
    first_sim_s: list[float] = field(default_factory=list)
    refresh_sim_s: list[float] = field(default_factory=list)
    lat_live_s: list[float] = field(default_factory=list)
    lat_shed_s: list[float] = field(default_factory=list)


class Workload:
    name = ""
    #: the percentile ``lat_tail_ms`` reports: high enough to be a tail, low
    #: enough that a segment leaves it well over ten samples and runs agree
    tail_pct = 95.0

    def __init__(
        self, seed: int, scale: float = 1.0, traced: bool = False, corrupt: bool = False
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.traced = traced
        self.tracer = Tracer()
        self.gate = checks.Gate(corrupt)

    def sized(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def segment(self) -> Segment:
        raise NotImplementedError

    def setup_mismatches(self) -> int:
        """Twin-world check on what :meth:`setup` saw (HTTP workloads)."""
        return 0

    def rss_mb(self) -> float:
        return machine.peak_rss_mb()

    def calibration_s(self) -> float:
        """The calibration work, timed in the process that serves the answers."""
        return machine.calibration_s()

    def service_stats(self) -> dict[str, int]:
        return {}


# -- HTTP ---------------------------------------------------------------


class _HttpWorkload(Workload):
    n_sites = 0
    endpoint = ""
    per_connection = 0  # requests per connection per segment
    connections = 2  # nproc is 2: one core for the server, one for the client

    def __init__(self, *args: Any, **kw: Any) -> None:
        super().__init__(*args, **kw)
        world = recipe.multisite_world(self.n_sites)
        self.caps = recipe.access_caps(world)
        self.bodies = self.make_bodies(world)
        # one connection when traced, so spans of two requests never interleave
        n_conns = 1 if self.traced else self.connections
        n = self.sized(self.per_connection)
        tenants = recipe.TENANTS
        self.plans = [
            [
                httpload.encode_request(
                    self.endpoint,
                    self.bodies[(c * n + i) % len(self.bodies)],
                    tenants[(c * n + i) % len(tenants)],
                )
                for i in range(n)
            ]
            for c in range(n_conns)
        ]
        self.primer = [
            httpload.encode_request(self.endpoint, body, tenants[0]) for body in self.bodies
        ]
        self.primed: list[bytes] = []
        self.server: Any = None

    def make_bodies(self, world: Any) -> list[dict[str, Any]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        if self.traced:
            self.server = httpload.InProcessServer(self.loop, self.n_sites)
            self.tracer.use_clock(self.server.world.net)
        else:
            self.server = httpload.ServerChild(self.n_sites)
        try:
            self.conns = httpload.Connections(self.loop, self.server.port, len(self.plans))
            # every distinct body once, in order, on one connection: fills the
            # caches and the LKG store, and is the sequence the twin check replays
            idle: list[list[bytes]] = [[] for _ in self.plans[1:]]
            self.primed = self.conns.run([self.primer] + idle).bodies
        except BaseException:
            self.server.close()
            raise

    def close(self) -> None:
        if self.server is None:
            return
        try:
            self.conns.close()
        finally:
            self.server.close()
            self.server = None
            self.loop.close()

    def setup_mismatches(self) -> int:
        return checks.twin_mismatches(self.n_sites, self.endpoint, self.bodies, self.primed)

    def _request_span(self) -> Any:
        return self.tracer.span("service.http.request", endpoint=self.endpoint)

    def segment(self) -> Segment:
        self.gate.begin_segment()
        cpu0 = self.server.cpu_s()
        res = self.conns.run(self.plans, self._request_span if self.tracer.active else None)
        cpu_s = self.server.cpu_s() - cpu0
        self.gate.http_bodies(res.bodies, self.caps)
        return Segment(
            ops=len(res.bodies),
            wall_s=res.wall_s,
            cpu_s=cpu_s,
            lat_s=res.lat_s,
            failed=self.gate.failed + res.non_200,
            degraded=self.gate.degraded,
            wire_bytes=sum(len(b) for b in res.bodies),
        )

    def rss_mb(self) -> float:
        return self.server.rss_mb()

    def calibration_s(self) -> float:
        return self.server.calibration_s()

    def service_stats(self) -> dict[str, int]:
        return dict(self.server.service.stats) if self.traced else {}


class HttpFlowCached(_HttpWorkload):
    name = "http_flow_cached"
    n_sites = recipe.SMALL_SITES
    endpoint = "flow_info"
    per_connection = 2000

    def make_bodies(self, world: Any) -> list[dict[str, Any]]:
        return recipe.flow_bodies(world, self.seed)


class HttpTopologyLarge(_HttpWorkload):
    name = "http_topology_large"
    tail_pct = 90.0
    n_sites = recipe.LARGE_SITES
    endpoint = "topology"
    per_connection = 150

    def make_bodies(self, world: Any) -> list[dict[str, Any]]:
        return recipe.topology_bodies(world, self.seed)


# -- in-process sessions ------------------------------------------------


class SessionColdDiscovery(Workload):
    """Every iteration meets a freshly deployed 16-site random WAN."""

    name = "session_cold_discovery"
    tail_pct = 75.0
    iterations = 4  # per segment
    n_sites = 16

    def __init__(self, *args: Any, **kw: Any) -> None:
        super().__init__(*args, **kw)
        self.next_world = 0

    def setup(self) -> None:
        self._iteration(Segment())

    def segment(self) -> Segment:
        self.gate.begin_segment()
        seg = Segment()
        for _ in range(self.sized(self.iterations)):
            self._iteration(seg)
        seg.failed, seg.degraded = self.gate.failed, self.gate.degraded
        return seg

    def _iteration(self, seg: Segment) -> None:
        world_seed = self.seed * 100_003 + self.next_world
        self.next_world += 1
        span = self.tracer.span
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with span("netsim.build"):
            world = build_random_wan(self.n_sites, seed=world_seed, hosts_per_site=(2, 4))
        self.tracer.use_clock(world.net)
        with span("deploy.deploy_wan"):
            session = recipe.deploy(world).session()
        hosts = recipe.first_hosts(world)
        pairs = [(hosts[0], dst) for dst in hosts[1:]]
        engine = world.net.engine
        sim0, t0 = engine.now, time.perf_counter()
        first = session.flow_info_many(pairs)
        seg.lat_s.append(time.perf_counter() - t0)
        sim1 = engine.now
        with span("netsim.engine.run_until"):
            engine.run_until(sim1 + 10.0)
        sim2 = engine.now
        refresh = session.flow_info_many(pairs)
        sim3 = engine.now
        seg.wall_s += time.perf_counter() - wall0
        seg.cpu_s += time.process_time() - cpu0
        seg.first_sim_s.append(sim1 - sim0)
        seg.refresh_sim_s.append(sim3 - sim2)
        seg.sim_query_s += (sim1 - sim0) + (sim3 - sim2)
        seg.sim_total_s += sim3 - sim0
        seg.ops += len(first) + len(refresh)
        caps = recipe.access_caps(world)
        for ans in first + refresh:
            self.gate.flow(str(ans.status), ans.available_bps, ans.src, ans.dst, caps)


class SessionMonitorChurn(Workload):
    """Queries against a monitored, loaded WAN whose clock outruns the cache."""

    name = "session_monitor_churn"
    tail_pct = 90.0
    rounds = 20  # per segment
    n_sites = 8
    flows_per_round = 8
    #: one world for every seed, with each access tier from 1.5 to 100 Mbps in
    #: it: what a probe and a polling sweep cost follows link speed, and a
    #: world drawn per seed moved throughput 3x between seeds.  The seed drives
    #: the cross traffic, which pairs are asked and which sites are invalidated.
    world_seed = 2

    def setup(self) -> None:
        world = build_random_wan(self.n_sites, seed=self.world_seed, hosts_per_site=(3, 3))
        self.dep = recipe.deploy(world)
        self.session = self.dep.session()
        self.engine = world.net.engine
        self.tracer.use_clock(world.net)
        self.sites = sorted(world.sites)
        self.hosts = recipe.first_hosts(world)
        self.caps = recipe.access_caps(world)
        # every seed asks the same mix in another order: all ordered pairs, all
        # 4-site subsets and all sites, each cycled through a seeded shuffle, so
        # one seed cannot draw mostly slow-link pairs and another mostly fast
        rng = make_rng(self.seed)
        n = len(self.sites)

        def shuffled_cycle(items: list[Any]) -> Any:
            return itertools.cycle([items[i] for i in rng.permutation(len(items))])

        self.pairs = shuffled_cycle(list(itertools.permutations(range(n), 2)))
        self.quads = shuffled_cycle(list(itertools.combinations(range(n), 4)))
        self.evictions = shuffled_cycle(self.sites)
        self.round = 0
        self.traffic = []
        for i, name in enumerate(self.sites):
            peer = self.sites[(i + 1) % len(self.sites)]
            cap = min(world.sites[name].spec.access_bps, world.sites[peer].spec.access_bps)
            gen = RandomWalkTraffic(
                world.net, world.host(name, 1), world.host(peer, 1),
                # a narrow band: what a probe costs on the simulated clock (and so
                # how much polling the harness then has to catch up on) follows the
                # bandwidth the cross traffic leaves, and a wide walk made seeds
                # differ by 40 % in simulated time advanced
                lo_bps=0.30 * cap, hi_bps=0.40 * cap, sigma_bps=0.02 * cap,
                seed=self.seed * 1000 + i,
            )
            gen.start()
            self.traffic.append(gen)
        self.dep.start_monitoring()
        self.dep.start_benchmarks()
        self.engine.run_until(self.engine.now + 120.0)

    def close(self) -> None:
        self.dep.stop()
        for gen in self.traffic:
            gen.stop()

    def segment(self) -> Segment:
        self.gate.begin_segment()
        seg = Segment()
        engine, session = self.engine, self.session
        flows: list[Any] = []
        topologies: list[Any] = []
        sim_start = engine.now
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(self.sized(self.rounds)):
            t0 = time.perf_counter()
            with self.tracer.span("netsim.engine.run_until"):
                engine.run_until(engine.now + 5.0)
            seg.monitor_wall_s += time.perf_counter() - t0
            for q in range(self.flows_per_round):
                a, b = next(self.pairs)
                sim0, t0 = engine.now, time.perf_counter()
                ans = session.flow_info(self.hosts[a], self.hosts[b], predict=(q % 4 == 3))
                seg.lat_s.append(time.perf_counter() - t0)
                seg.sim_query_s += engine.now - sim0
                flows.append(ans)
            picked = [self.hosts[k] for k in next(self.quads)]
            sim0, t0 = engine.now, time.perf_counter()
            topo = session.topology(picked)
            seg.lat_s.append(time.perf_counter() - t0)
            seg.sim_query_s += engine.now - sim0
            topologies.append(topo)
            self.round += 1
            if self.round % 5 == 0:
                session.invalidate_cache(sites=[next(self.evictions)])
        seg.wall_s = time.perf_counter() - wall0
        seg.cpu_s = time.process_time() - cpu0
        seg.sim_total_s = engine.now - sim_start
        seg.ops = len(flows) + len(topologies)
        for ans in flows:
            self.gate.flow(str(ans.status), ans.available_bps, ans.src, ans.dst, self.caps)
        for topo in topologies:
            self.gate.topology(str(topo.status), topo.unresolved)
        seg.failed, seg.degraded = self.gate.failed, self.gate.degraded
        return seg


class DirectOverloadShed(Workload):
    """256 in-process clients against ``max_inflight=64``, in lockstep waves.

    Each wave is one request from every client, gathered: the first 64
    are admitted and answer live, the other 192 are shed to their
    last-known-good answer, so the shed share is 0.75 by construction
    and live and shed are two populations, never one average.
    """

    name = "direct_overload_shed"
    waves = 40  # per segment

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        world = recipe.multisite_world(recipe.SMALL_SITES)
        self.caps = recipe.access_caps(world)
        self.bodies = recipe.flow_bodies(world, self.seed)
        self.service = RemosService.from_deployment(recipe.deploy(world), ServiceConfig())
        self.engine = world.net.engine
        self.tracer.use_clock(world.net)
        self.clients = [DirectClient(self.service, tenant=t) for t in recipe.TENANTS]
        self.wave = 0
        warm = DirectClient(self.service, tenant="warm-up")

        async def fill_lkg() -> None:
            for body in self.bodies:
                await warm.call("flow_info", body)

        self.loop.run_until_complete(fill_lkg())

    def close(self) -> None:
        self.loop.close()

    def service_stats(self) -> dict[str, int]:
        return dict(self.service.stats)

    def segment(self) -> Segment:
        self.gate.begin_segment()
        seg = Segment()
        envelopes: list[dict[str, Any]] = []
        bodies = self.bodies

        async def one(client: DirectClient, body: dict[str, Any]) -> None:
            t0 = time.perf_counter()
            try:
                env = await client.call("flow_info", body)
            except ServiceError:  # rate-limited or overloaded: the gate counts it
                env = {"ok": False, "served": "error"}
            dt = time.perf_counter() - t0
            seg.lat_s.append(dt)
            (seg.lat_shed_s if env["served"] == "shed_lkg" else seg.lat_live_s).append(dt)
            envelopes.append(env)

        async def run_waves() -> None:
            for _ in range(self.sized(self.waves)):
                w = self.wave
                self.wave += 1
                await asyncio.gather(
                    *(
                        one(client, bodies[(w + k) % len(bodies)])
                        for k, client in enumerate(self.clients)
                    )
                )

        sim0 = self.engine.now
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.loop.run_until_complete(run_waves())
        seg.wall_s = time.perf_counter() - wall0
        seg.cpu_s = time.process_time() - cpu0
        seg.sim_query_s = seg.sim_total_s = self.engine.now - sim0
        seg.ops = len(envelopes)
        for env in envelopes:
            self.gate.envelope(env, self.caps)
        # validity: exactly max_inflight of every wave answer live, the rest are shed
        skewed = len(seg.lat_shed_s) * 4 != seg.ops * 3
        seg.failed, seg.degraded = self.gate.failed + skewed, self.gate.degraded
        return seg


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        HttpFlowCached,
        HttpTopologyLarge,
        SessionColdDiscovery,
        SessionMonitorChurn,
        DirectOverloadShed,
    )
}
