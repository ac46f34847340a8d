"""Over-the-wire answers are canonically identical to in-process calls.

The acceptance contract of the service plane: for the same world state,
a query through the service (in-process dispatch or real HTTP) returns
*the same Answer* as calling :class:`RemosSession` directly — same
status, same bandwidths, same provenance — compared on canonical JSON
bytes, not approximate fields.  Because a query advances the sim clock
(RPC latencies), "same world state" means *twin worlds*: two
deployments built from identical specs, one queried in-process, one
through the service, step for step.

The degraded cases matter most — STALE/PARTIAL answers under a crashed
collector must survive serialization with their site_status breakdown
and grown data_age_s intact.
"""

import asyncio
import json
import time

from repro import faults
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.service import DirectClient, RemosService, ServiceConfig
from repro.service.http import start_server
from repro.service.client import HttpServiceClient
from repro.service.wire import canonical_json


def build_world():
    """One deterministic 3-site WAN, warmed so measurements exist."""
    w = build_multisite_wan(
        [
            SiteSpec("cmu", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("eth", access_bps=60 * MBPS, n_hosts=3),
            SiteSpec("coi", access_bps=0.3 * MBPS, n_hosts=3),
        ]
    )
    dep = deploy_wan(w)
    w.net.engine.run_until(w.net.now + 30.0)
    return w, dep


def hosts(w):
    return {
        "src": str(w.host("cmu", 0).ip),
        "dst": str(w.host("eth", 0).ip),
        "far": str(w.host("coi", 0).ip),
    }


def wire_bytes(ans) -> str:
    if isinstance(ans, list):
        return canonical_json([a.to_dict() for a in ans])
    return canonical_json(ans.to_dict())


def via_service(coro_fn):
    """Run a client interaction against a fresh twin-world service.

    The twin world is built *before* the event loop starts: deploying
    and warming a WAN is seconds of synchronous sim work, and doing it
    inside a coroutine would block the loop, which the loop trap every
    service test runs under (see conftest) fails.  Only the client
    interaction itself runs under the loop.
    """
    w, dep = build_world()
    service = RemosService.from_deployment(dep, ServiceConfig())

    async def run():
        return await coro_fn(DirectClient(service), w)

    return asyncio.run(run())


class TestHealthyEquivalence:
    def test_flow_info(self):
        w, dep = build_world()
        h = hosts(w)
        direct = dep.session().flow_info(h["src"], h["dst"])

        remote = via_service(
            lambda c, w2: c.flow_info(hosts(w2)["src"], hosts(w2)["dst"])
        )
        assert remote.ok
        assert wire_bytes(remote) == wire_bytes(direct)

    def test_flow_info_many(self):
        w, dep = build_world()
        h = hosts(w)
        pairs = [(h["src"], h["dst"]), (h["dst"], h["far"])]
        direct = dep.session().flow_info_many(pairs)

        def pairs_of(w2):
            h2 = hosts(w2)
            return [(h2["src"], h2["dst"]), (h2["dst"], h2["far"])]

        remote = via_service(lambda c, w2: c.flow_info_many(pairs_of(w2)))
        assert wire_bytes(remote) == wire_bytes(direct)

    def test_topology(self):
        w, dep = build_world()
        h = hosts(w)
        direct = dep.session().topology([h["src"], h["dst"], h["far"]])

        remote = via_service(
            lambda c, w2: c.topology(list(hosts(w2).values()))
        )
        assert remote.status == direct.status
        assert wire_bytes(remote) == wire_bytes(direct)

    def test_node_info(self):
        w, dep = build_world()
        h = hosts(w)
        direct = dep.session().node_info([h["src"], h["far"]])

        remote = via_service(
            lambda c, w2: c.node_info([hosts(w2)["src"], hosts(w2)["far"]])
        )
        assert wire_bytes(remote) == wire_bytes(direct)


class TestDegradedEquivalence:
    """STALE/PARTIAL answers cross the wire unchanged."""

    PLAN = faults.FaultPlan(seed=7)

    def degrade(self, w, dep):
        """Warm the Master's LKG, then crash the eth site's collector."""
        faults.install(dep, self.PLAN)
        h = hosts(w)
        warm = dep.session().topology([h["src"], h["dst"]])
        assert warm.status == QueryStatus.OK
        faults.crash_collector(dep.snmp_collectors["eth"], 300.0)

    def test_stale_flow_crosses_the_wire(self):
        w, dep = build_world()
        self.degrade(w, dep)
        h = hosts(w)
        direct = dep.session().flow_info(h["src"], h["dst"])
        assert direct.degraded  # the crashed site forces LKG data

        # twin world, same degradation, queried through the service
        # (world built and degraded before the loop starts)
        w2, dep2 = build_world()
        self.degrade(w2, dep2)
        service = RemosService.from_deployment(dep2, ServiceConfig())
        h2 = hosts(w2)

        async def twin():
            return await DirectClient(service).flow_info(h2["src"], h2["dst"])

        remote = asyncio.run(twin())
        assert remote.status == direct.status
        assert remote.status in (QueryStatus.STALE, QueryStatus.PARTIAL)
        assert wire_bytes(remote) == wire_bytes(direct)

    def test_degraded_topology_site_status_survives(self):
        w, dep = build_world()
        self.degrade(w, dep)
        h = hosts(w)
        direct = dep.session().topology([h["src"], h["dst"]])
        assert direct.degraded

        w2, dep2 = build_world()
        self.degrade(w2, dep2)
        service = RemosService.from_deployment(dep2, ServiceConfig())
        h2 = hosts(w2)

        async def twin():
            return await DirectClient(service).topology([h2["src"], h2["dst"]])

        remote = asyncio.run(twin())
        assert remote.site_status == direct.site_status
        assert wire_bytes(remote) == wire_bytes(direct)


class TestHttpEquivalence:
    """The same bytes arrive over a real TCP connection."""

    def test_flow_info_over_http(self):
        w, dep = build_world()
        h = hosts(w)
        direct = dep.session().flow_info(h["src"], h["dst"])

        w2, dep2 = build_world()
        service = RemosService.from_deployment(dep2, ServiceConfig())

        async def over_http():
            server = await start_server(service, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with HttpServiceClient("127.0.0.1", port) as client:
                    h2 = hosts(w2)
                    return await client.flow_info(h2["src"], h2["dst"])
            finally:
                server.close()
                await server.wait_closed()

        remote = asyncio.run(over_http())
        assert remote.ok
        assert wire_bytes(remote) == wire_bytes(direct)


class TestShedTopologyEquivalence:
    """A topology answer shed to last-known-good shares its graph record
    (and that record's kept encoding) with the live answer it came
    from; its status and age are its own."""

    def test_lkg_shed_topology_is_stale_with_a_truthful_age(self):
        w, dep = build_world()
        dep.modeler.query_cache_ttl_s = 600.0
        direct = dep.session().topology(list(hosts(w).values()))
        assert direct.ok and direct.graph.frozen

        w2, dep2 = build_world()
        dep2.modeler.query_cache_ttl_s = 600.0
        service = RemosService.from_deployment(dep2, ServiceConfig(max_inflight=1))
        body = {"hosts": list(hosts(w2).values())}

        async def overload():
            warm = await service.dispatch("topology", dict(body))
            wave = await asyncio.gather(
                *(service.dispatch("topology", dict(body)) for _ in range(3))
            )
            return warm, wave

        t0 = time.monotonic()
        warm, wave = asyncio.run(overload())
        elapsed = time.monotonic() - t0

        live = warm["result"]
        assert warm["served"] == "live"
        assert canonical_json(live) == wire_bytes(direct)
        assert [env["served"] for env in wave] == ["live", "shed_lkg", "shed_lkg"]
        for env in wave[1:]:
            shed = env["result"]
            assert shed["status"] == QueryStatus.STALE.to_dict()
            assert live["data_age_s"] <= shed["data_age_s"] <= live["data_age_s"] + elapsed
            assert shed["graph"] is live["graph"]
            # the spliced bytes are the plain encoding ...
            assert canonical_json(env) == json.dumps(
                env, sort_keys=True, separators=(",", ":")
            )
            # ... and, status and age apart, the in-process answer's
            restored = dict(shed, status=live["status"], data_age_s=live["data_age_s"])
            assert canonical_json(restored) == wire_bytes(direct)
