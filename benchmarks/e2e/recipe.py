"""The one deployment recipe and the seeded inputs every workload shares.

Workloads differ by traffic, not by knobs: every stack here is
``deploy_wan(world)`` with library defaults, a 5 s Modeler query cache
(the value ``docs/performance.md`` recommends) and the AR(16)
prediction service; every service is ``ServiceConfig()`` defaults.
Only public entry points are used, so a refactor under ``src/`` that
keeps them keeps the benchmark running.
"""

from __future__ import annotations

from typing import Any

from repro.common.rng import make_rng
from repro.common.units import MBPS
from repro.deploy import RemosDeployment, deploy_wan
from repro.netsim.builders import SiteSpec, WanWorld, build_multisite_wan
from repro.rps.service import RpsPredictionService

QUERY_CACHE_TTL_S = 5.0
PREDICTOR_SPEC = "AR(16)"

#: enough tenants that the default 200/s/tenant limiter is exercised on
#: every request and never trips at the rates one process can offer
TENANTS = [f"tenant-{i:03d}" for i in range(256)]

SMALL_SITES = 8
LARGE_SITES = 16


def deploy(world: WanWorld, sharding: Any = None) -> RemosDeployment:
    dep = deploy_wan(world, sharding=sharding)
    dep.modeler.query_cache_ttl_s = QUERY_CACHE_TTL_S
    dep.modeler.prediction_service = RpsPredictionService(PREDICTOR_SPEC)
    return dep


def multisite_world(n_sites: int) -> WanWorld:
    """Star WAN, access 10/20/30/40 Mbps by site, 3 hosts a site."""
    return build_multisite_wan(
        [
            SiteSpec(f"s{i:02d}", access_bps=(10 + 10 * (i % 4)) * MBPS, n_hosts=3)
            for i in range(n_sites)
        ]
    )


def first_hosts(world: WanWorld) -> list[str]:
    """IP of the first host of every site, in site order."""
    return [str(world.host(name, 0).ip) for name in sorted(world.sites)]


def access_caps(world: WanWorld) -> dict[str, float]:
    """Host IP -> its site's access capacity (the flow-answer ceiling)."""
    return {
        str(h.ip): site.spec.access_bps
        for site in world.sites.values()
        for h in site.hosts
    }


def flow_bodies(world: WanWorld, seed: int) -> list[dict[str, Any]]:
    """``flow_info`` bodies for every ordered site pair, seed-shuffled."""
    hosts = first_hosts(world)
    pairs = [(s, d) for s in hosts for d in hosts if s != d]
    order = make_rng(seed).permutation(len(pairs))
    return [{"src": pairs[i][0], "dst": pairs[i][1]} for i in order]


def topology_bodies(world: WanWorld, seed: int, n: int = 8) -> list[dict[str, Any]]:
    """``topology`` bodies spanning every site, hosts in ``n`` seeded orders."""
    hosts = first_hosts(world)
    rng = make_rng(seed)
    return [
        {"hosts": [hosts[i] for i in rng.permutation(len(hosts))], "detail": "simplified"}
        for _ in range(n)
    ]
