"""Table 1 — per-site available bandwidth and standard deviation
measured by Remos.

Paper setup (§5.5): the video client at ETH measures available
bandwidth to five servers.  Reported (Mbps):

    ETH Zurich (local)   63.1   +- 5.61
    EPFL Lausanne         3.03  +- 0.17
    CMU                   0.50  +- 0.28
    U. Valladolid         0.37  +- 0.28
    U. Coimbra            0.18  +- 0.07

Each bandwidth tier is an order of magnitude below the previous —
that separation, and the much larger *relative* spread of the distant
sites, is what we reproduce.  The local ETH server is measured through
the SNMP-collector LAN path; the remote ones through benchmark
measurements, all via ordinary Remos flow queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.netsim.traffic import RandomWalkTraffic
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.deploy import deploy_wan

from _util import emit, emit_json, fmt_row

PAPER = {
    "eth-local": (63.1, 5.61),
    "epfl": (3.03, 0.17),
    "cmu": (0.50, 0.28),
    "valladolid": (0.37, 0.28),
    "coimbra": (0.18, 0.07),
}

N_SAMPLES = 80
SAMPLE_GAP_S = 30.0


def run_table1():
    world = build_multisite_wan(
        [
            SiteSpec("eth", access_bps=100 * MBPS, n_hosts=5, lan_bps=100 * MBPS),
            SiteSpec("epfl", access_bps=3.2 * MBPS, n_hosts=3),
            SiteSpec("cmu", access_bps=1.0 * MBPS, n_hosts=3),
            SiteSpec("valladolid", access_bps=0.9 * MBPS, n_hosts=3),
            SiteSpec("coimbra", access_bps=0.28 * MBPS, n_hosts=3),
        ]
    )
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(
            probe_bytes=100_000, max_age_s=20.0, max_probe_s=10.0
        ),
    )
    client = world.host("eth", 0)
    # the "local server" is another ETH host on the same LAN
    servers = {
        "eth-local": world.host("eth", 1),
        "epfl": world.host("epfl", 0),
        "cmu": world.host("cmu", 0),
        "valladolid": world.host("valladolid", 0),
        "coimbra": world.host("coimbra", 0),
    }
    # cross traffic: the ETH LAN carries local load (-> 63 not 100);
    # distant sites carry heavy relative load.
    gens = [
        # local load leaving the ETH server host: the measured LAN path
        # shares its uplink, giving the 63 +- 5.6 Mbps local figure
        RandomWalkTraffic(
            world.net, world.host("eth", 1), world.host("eth", 3),
            lo_bps=25 * MBPS, hi_bps=48 * MBPS, sigma_bps=8 * MBPS,
            step_s=2.0, seed=1, label="x:ethlan",
        ),
        RandomWalkTraffic(
            world.net, world.host("epfl", 1), world.host("eth", 4),
            lo_bps=0.05 * MBPS, hi_bps=0.35 * MBPS, sigma_bps=0.1 * MBPS,
            step_s=2.0, seed=2, label="x:epfl",
        ),
        RandomWalkTraffic(
            world.net, world.host("cmu", 1), world.host("eth", 4),
            lo_bps=0.05 * MBPS, hi_bps=0.95 * MBPS, sigma_bps=0.35 * MBPS,
            step_s=2.0, seed=3, label="x:cmu",
        ),
        RandomWalkTraffic(
            world.net, world.host("valladolid", 1), world.host("eth", 4),
            lo_bps=0.1 * MBPS, hi_bps=0.85 * MBPS, sigma_bps=0.35 * MBPS,
            step_s=2.0, seed=4, label="x:valladolid",
        ),
        RandomWalkTraffic(
            world.net, world.host("coimbra", 1), world.host("eth", 4),
            lo_bps=0.02 * MBPS, hi_bps=0.18 * MBPS, sigma_bps=0.06 * MBPS,
            step_s=2.0, seed=5, label="x:coimbra",
        ),
    ]
    for g in gens:
        g.start()
    world.net.engine.run_until(60.0)

    samples: dict[str, list[float]] = {s: [] for s in servers}
    for _ in range(N_SAMPLES):
        for site, server in servers.items():
            ans = dep.session().flow_info(server, client)
            samples[site].append(ans.available_bps)
        world.net.engine.run_until(world.net.now + SAMPLE_GAP_S)
    for g in gens:
        g.stop()
    return {s: (float(np.mean(v)), float(np.std(v))) for s, v in samples.items()}


def test_table1_site_bandwidth(benchmark):
    stats = benchmark.pedantic(run_table1, rounds=1, iterations=1)

    widths = [12, 12, 10, 13, 11]
    lines = [
        "Server location, available bandwidth and std-dev measured by Remos",
        "",
        fmt_row(["site", "mean[Mbps]", "sd[Mbps]", "paper[Mbps]", "paper sd"], widths),
    ]
    for site, (p_mean, p_sd) in PAPER.items():
        mean, sd = stats[site]
        lines.append(
            fmt_row(
                [site, f"{mean / MBPS:.2f}", f"{sd / MBPS:.2f}", p_mean, p_sd],
                widths,
            )
        )
    emit("table1_site_bandwidth", lines)
    emit_json(
        "table1_site_bandwidth",
        {
            "samples_per_site": N_SAMPLES,
            "sites": {
                site: {
                    "mean_mbps": mean / MBPS,
                    "sd_mbps": sd / MBPS,
                    "paper_mean_mbps": PAPER[site][0],
                    "paper_sd_mbps": PAPER[site][1],
                }
                for site, (mean, sd) in stats.items()
            },
        },
    )

    means = {s: stats[s][0] for s in stats}
    # --- shape assertions -------------------------------------------------
    # strict ordering, matching the paper's tiers
    assert (
        means["eth-local"] > means["epfl"] > means["cmu"]
        > means["valladolid"] > means["coimbra"]
    )
    # the local server is an order of magnitude above EPFL, which is an
    # order of magnitude above the rest (the paper's observation)
    assert means["eth-local"] / means["epfl"] > 8
    assert means["epfl"] / means["cmu"] > 3
    # magnitudes in the paper's ballpark (generous factor: our WAN is
    # synthetic)
    for site, (p_mean, _) in PAPER.items():
        assert means[site] / MBPS == pytest.approx(p_mean, rel=0.8), site
    # distant sites fluctuate much more, relatively, than EPFL
    rel_epfl = stats["epfl"][1] / means["epfl"]
    rel_cmu = stats["cmu"][1] / means["cmu"]
    assert rel_cmu > 2 * rel_epfl
