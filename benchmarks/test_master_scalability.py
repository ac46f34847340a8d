"""§6.2 extension — Master Collector fan-out scalability, flat vs sharded.

"An issue that has not yet been explored is how far this architecture
scales in the performance domain — how high a rate of requests could be
satisfied."  We measure the dimensions the paper leaves open, on both
Master planes:

* **fan-out mode** — all-sites query response time vs number of sites
  involved, flat Master against a 4-shard :class:`ShardedMaster` over
  identical worlds (each site pair needs a stitched benchmark
  measurement, so all-pairs queries grow quadratically; per-site
  delegation grows linearly and is where sharding overlaps work);
* **large-topology mode** — a fixed 12-site query against seeded
  random WANs of 64/128/256 sites: query cost must depend on the
  query's scope, not on how many sites the directory holds (sublinear
  — in fact near-constant — in total site count);
* sustained warm query throughput against each plane (wall-clock).

The differential suite (``tests/collectors/test_sharding_equivalence``)
pins the two planes to byte-identical answers; this file pins their
*costs*, and ``check_perf_regression.py`` gates on the JSON emitted
here.
"""

from __future__ import annotations

import time

from repro import obs
from repro.common.units import MBPS
from repro.collectors.base import TopologyRequest
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.collectors.sharding import ShardingConfig
from repro.deploy import deploy_wan
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_random_wan

from _util import emit, emit_json, fmt_row, trace_breakdown

SITE_COUNTS = [2, 4, 8, 12, 16]
FANOUT_SHARDS = 4
LARGE_COUNTS = [64, 128, 256]
LARGE_SHARDS = 8
LARGE_QUERY_SITES = 12

BENCH_CONFIG = BenchmarkConfig(probe_bytes=50_000, max_age_s=600.0)


def _cold_warm(w, dep, ips):
    t0 = w.net.now
    resp = dep.master.topology(TopologyRequest.of(ips))
    cold_s = w.net.now - t0
    t1 = w.net.now
    dep.master.topology(TopologyRequest.of(ips))
    warm_s = w.net.now - t1
    return cold_s, warm_s, resp.graph.num_edges()


def _one_pair_hz(dep, a, b):
    session = dep.session()
    t_wall = time.perf_counter()
    k = 0
    while time.perf_counter() - t_wall < 0.2:
        session.flow_info(a, b)
        k += 1
    return k / (time.perf_counter() - t_wall)


def run_fanout():
    """All-sites queries at growing site counts, flat vs sharded."""
    results = {}
    for n in SITE_COUNTS:
        row = {}
        for plane, sharding in (
            ("flat", None),
            ("sharded", ShardingConfig(n_shards=FANOUT_SHARDS)),
        ):
            w = build_multisite_wan(
                [SiteSpec(f"s{i:02d}", access_bps=10 * MBPS, n_hosts=2)
                 for i in range(n)]
            )
            dep = deploy_wan(w, bench_config=BENCH_CONFIG, sharding=sharding)
            ips = [w.host(f"s{i:02d}", 0).ip for i in range(n)]
            cold_s, warm_s, edges = _cold_warm(w, dep, ips)
            row[plane] = {
                "cold_s": cold_s,
                "warm_s": warm_s,
                "edges": edges,
                "one_pair_hz": _one_pair_hz(
                    dep, w.host("s00", 0), w.host("s01", 0)
                ),
            }
        results[n] = row
    return results


def run_large_topology():
    """A fixed 12-site query against 64..256-site random WANs."""
    results = {}
    for n_sites in LARGE_COUNTS:
        row = {}
        for plane, sharding in (
            ("flat", None),
            ("sharded", ShardingConfig(n_shards=LARGE_SHARDS)),
        ):
            w = build_random_wan(n_sites, seed=5, hosts_per_site=(2, 2))
            dep = deploy_wan(w, bench_config=BENCH_CONFIG, sharding=sharding)
            names = sorted(w.sites)
            step = max(1, n_sites // LARGE_QUERY_SITES)
            chosen = names[::step][:LARGE_QUERY_SITES]
            ips = [str(w.sites[s].hosts[0].interfaces[0].ip) for s in chosen]
            cold_s, warm_s, edges = _cold_warm(w, dep, ips)
            row[plane] = {"cold_s": cold_s, "warm_s": warm_s, "edges": edges}
        results[n_sites] = row
    return results


def test_master_fanout_scalability(benchmark):
    with obs.scoped_registry() as reg:
        fanout, large = benchmark.pedantic(
            lambda: (run_fanout(), run_large_topology()), rounds=1, iterations=1
        )
        breakdown = trace_breakdown(reg)

    widths = [6, 10, 10, 10, 10, 8, 12, 12]
    lines = [
        "all-sites topology query vs site count (flat vs 4-shard master)",
        fmt_row(
            ["sites", "cold[s]", "sh cold", "warm[s]", "sh warm",
             "edges", "flat 1p Hz", "sh 1p Hz"],
            widths,
        ),
    ]
    for n in SITE_COUNTS:
        f, s = fanout[n]["flat"], fanout[n]["sharded"]
        lines.append(
            fmt_row(
                [n, f"{f['cold_s']:.2f}", f"{s['cold_s']:.2f}",
                 f"{f['warm_s']:.3f}", f"{s['warm_s']:.3f}", f["edges"],
                 f"{f['one_pair_hz']:,.0f}", f"{s['one_pair_hz']:,.0f}"],
                widths,
            )
        )
    lines += [
        "",
        f"fixed {LARGE_QUERY_SITES}-site query vs directory size "
        f"(flat vs {LARGE_SHARDS}-shard master)",
        fmt_row(["sites", "cold[s]", "sh cold", "warm[s]", "sh warm"], widths[:5]),
    ]
    for n in LARGE_COUNTS:
        f, s = large[n]["flat"], large[n]["sharded"]
        lines.append(
            fmt_row(
                [n, f"{f['cold_s']:.2f}", f"{s['cold_s']:.2f}",
                 f"{f['warm_s']:.3f}", f"{s['warm_s']:.3f}"],
                widths[:5],
            )
        )
    lines += [
        "",
        "cold cost is dominated by all-pairs benchmark probing (n(n-1)/2 "
        "WAN edges), which exactly one tier runs serially for "
        "byte-identity; sharding overlaps the per-site fan-out, and a "
        "fixed-scope query costs the same against a 256-site directory "
        "as against a 64-site one",
    ]
    emit("master_scalability", lines)
    emit_json(
        "master_scalability",
        {
            "by_sites": {
                str(n): {
                    "cold_s": fanout[n]["flat"]["cold_s"],
                    "warm_s": fanout[n]["flat"]["warm_s"],
                    "edges": fanout[n]["flat"]["edges"],
                    "one_pair_hz": fanout[n]["flat"]["one_pair_hz"],
                    "sharded_cold_s": fanout[n]["sharded"]["cold_s"],
                    "sharded_warm_s": fanout[n]["sharded"]["warm_s"],
                    "sharded_edges": fanout[n]["sharded"]["edges"],
                    "sharded_one_pair_hz": fanout[n]["sharded"]["one_pair_hz"],
                }
                for n in SITE_COUNTS
            },
            "large_topology": {
                str(n): {
                    "query_sites": LARGE_QUERY_SITES,
                    "n_shards": LARGE_SHARDS,
                    "flat": large[n]["flat"],
                    "sharded": large[n]["sharded"],
                }
                for n in LARGE_COUNTS
            },
            "breakdown": breakdown,
        },
    )

    # --- shape assertions ------------------------------------------------
    for n in SITE_COUNTS:
        f, s = fanout[n]["flat"], fanout[n]["sharded"]
        # warm is much cheaper than cold at every scale, on both planes
        assert f["warm_s"] < f["cold_s"] / 3
        assert s["warm_s"] < s["cold_s"] / 3
        # the stitched mesh has n(n-1)/2 logical WAN edges plus site
        # detail, and sharding must not change the answer's shape
        assert f["edges"] >= n * (n - 1) / 2
        assert s["edges"] == f["edges"]
        # the sharded plane never costs meaningfully more than flat;
        # the absolute slack covers the per-shard hop RPCs, which
        # dominate relative cost only at toy site counts
        assert s["cold_s"] <= f["cold_s"] * 1.05 + 0.01
        assert s["warm_s"] <= f["warm_s"] * 1.05 + 0.01
    # flat cold grows super-linearly: 16 sites cost >4x of 4 sites
    assert fanout[16]["flat"]["cold_s"] > 4 * fanout[4]["flat"]["cold_s"]
    # single-pair queries stay fast regardless of deployment size
    assert fanout[16]["flat"]["one_pair_hz"] > 100
    assert fanout[16]["sharded"]["one_pair_hz"] > 100

    # large-topology mode: a fixed-scope query's cost is sublinear —
    # near-constant — in the directory's total site count
    for plane in ("flat", "sharded"):
        warm64 = large[64][plane]["warm_s"]
        warm256 = large[256][plane]["warm_s"]
        assert warm256 < warm64 * 1.5
        cold64 = large[64][plane]["cold_s"]
        cold256 = large[256][plane]["cold_s"]
        assert cold256 < cold64 * 2  # 4x the sites, <2x the cost
    for n in LARGE_COUNTS:
        assert (
            large[n]["sharded"]["cold_s"] <= large[n]["flat"]["cold_s"] * 1.05
        )
