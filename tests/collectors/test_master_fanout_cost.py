"""Master fan-out cost on the simulated clock, flat against sharded.

The paper leaves open "how high a rate of requests could be satisfied"
(§6.2).  The end-to-end benchmark answers it in wall-clock terms; this
file pins the shape of the Master's own cost, which the simulated clock
makes exact on any host:

* **fan-out** — an all-sites topology query over ``build_multisite_wan``
  at 4 and 16 sites.  Each site pair needs a stitched WAN measurement,
  so the cold query grows faster than the site count; the warm repeat
  reuses them.  The 4-shard plane returns the same graph and never costs
  meaningfully more than the flat Master (the absolute slack covers the
  per-shard hop RPCs, which dominate only at toy site counts).  The
  16-site costs are pinned as literals: a change to the RPC cost model,
  the overlap accounting or the sharded delegation path moves them, and
  a change that means to re-records them (``python
  tests/collectors/test_master_fanout_cost.py`` prints the block).
* **directory size** — one fixed 12-site query against 32- and 128-site
  ``build_random_wan(seed=5)`` directories: its cost depends on the
  query's scope, not on how many sites the directory holds.
"""

import functools

import pytest

from repro.collectors.base import TopologyRequest
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.collectors.sharding import ShardingConfig
from repro.common.units import MBPS
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_random_wan

BENCH_CONFIG = BenchmarkConfig(probe_bytes=50_000, max_age_s=600.0)
#: shards of the sharded plane in the fan-out and the directory-size runs
FANOUT_SHARDS = 4
DIRECTORY_SHARDS = 8
QUERY_SITES = 12
PLANES = ("flat", "sharded")

#: (cold, warm) sim-s of the 16-site all-sites query, per plane
GOLDEN_16_SITES = {
    "flat": (11.931603999999894, 0.24920399999986742),
    "sharded": (10.886901999999928, 0.2457019999998682),
}


def _cold_warm(world, dep, ips) -> tuple[float, float, int]:
    """(cold sim-s, warm sim-s, edges) of one topology query asked twice."""
    t0 = world.net.now
    resp = dep.master.topology(TopologyRequest.of(ips))
    cold_s = world.net.now - t0
    t1 = world.net.now
    dep.master.topology(TopologyRequest.of(ips))
    return cold_s, world.net.now - t1, resp.graph.num_edges()


@functools.cache
def fanout(n_sites: int, plane: str) -> tuple[float, float, int]:
    """The all-sites query over an ``n_sites`` multi-site WAN."""
    world = build_multisite_wan(
        [SiteSpec(f"s{i:02d}", access_bps=10 * MBPS, n_hosts=2) for i in range(n_sites)]
    )
    sharding = ShardingConfig(n_shards=FANOUT_SHARDS) if plane == "sharded" else None
    dep = deploy_wan(world, bench_config=BENCH_CONFIG, sharding=sharding)
    return _cold_warm(world, dep, [world.host(f"s{i:02d}", 0).ip for i in range(n_sites)])


@functools.cache
def fixed_query(n_sites: int, plane: str) -> tuple[float, float, int]:
    """A 12-site query, sites spread evenly, against an ``n_sites`` directory."""
    world = build_random_wan(n_sites, seed=5, hosts_per_site=(2, 2))
    sharding = ShardingConfig(n_shards=DIRECTORY_SHARDS) if plane == "sharded" else None
    dep = deploy_wan(world, bench_config=BENCH_CONFIG, sharding=sharding)
    chosen = sorted(world.sites)[:: max(1, n_sites // QUERY_SITES)][:QUERY_SITES]
    return _cold_warm(world, dep, [world.host(s, 0).ip for s in chosen])


class TestAllSitesFanout:
    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("n_sites", [4, 16])
    def test_warm_costs_under_a_third_of_cold(self, n_sites, plane):
        cold_s, warm_s, _ = fanout(n_sites, plane)
        assert warm_s < cold_s / 3

    @pytest.mark.parametrize("n_sites", [4, 16])
    def test_every_site_pair_is_stitched_on_both_planes(self, n_sites):
        flat_edges = fanout(n_sites, "flat")[2]
        assert flat_edges >= n_sites * (n_sites - 1) / 2
        assert fanout(n_sites, "sharded")[2] == flat_edges

    @pytest.mark.parametrize("n_sites", [4, 16])
    def test_sharded_costs_no_more_than_flat(self, n_sites):
        flat_cold, flat_warm, _ = fanout(n_sites, "flat")
        sharded_cold, sharded_warm, _ = fanout(n_sites, "sharded")
        assert sharded_cold <= flat_cold * 1.05 + 0.01
        assert sharded_warm <= flat_warm * 1.05 + 0.01

    def test_flat_cold_cost_grows_faster_than_the_sites(self):
        assert fanout(16, "flat")[0] > 4 * fanout(4, "flat")[0]

    @pytest.mark.parametrize("plane", PLANES)
    def test_sixteen_site_costs_match_the_recording(self, plane):
        cold_s, warm_s, _ = fanout(16, plane)
        assert (repr(cold_s), repr(warm_s)) == tuple(map(repr, GOLDEN_16_SITES[plane]))


class TestFixedQueryAgainstDirectorySize:
    @pytest.mark.parametrize("plane", PLANES)
    def test_warm_cost_is_flat_in_directory_size(self, plane):
        assert fixed_query(128, plane)[1] < fixed_query(32, plane)[1] * 1.5

    @pytest.mark.parametrize("plane", PLANES)
    def test_cold_cost_stays_bounded(self, plane):
        # 4x the sites, under 2x the cost
        assert fixed_query(128, plane)[0] < fixed_query(32, plane)[0] * 2

    @pytest.mark.parametrize("n_sites", [32, 128])
    def test_sharded_costs_no_more_than_flat(self, n_sites):
        flat_cold, flat_warm, _ = fixed_query(n_sites, "flat")
        sharded_cold, sharded_warm, _ = fixed_query(n_sites, "sharded")
        assert sharded_cold <= flat_cold * 1.05
        assert sharded_warm <= flat_warm * 1.05


if __name__ == "__main__":
    print("GOLDEN_16_SITES = {")
    for plane in PLANES:
        print(f"    {plane!r}: {fanout(16, plane)[:2]!r},")
    print("}")
