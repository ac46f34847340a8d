"""Fig. 10 — video server selection vs correctly received frames.

Paper setup (§5.5): a video client at ETH picks the server with the
best Remos-measured bandwidth, then downloads the same movie from all
servers in decreasing bandwidth order; the adaptive server drops
low-priority frames to fit the available bandwidth, so the
correctly-received frame count is the application-level quality metric.

Paper results, with the two fast servers (ETH, EPFL) excluded because
they never drop frames: "the client-perceived quality corresponds to
the reported bandwidth in 90% of the cases"; in the 2 misses out of 21,
"the server only sent about half of the packets, probably due to a
high load on the server".

We run 21 experiments against the three distant-server analogues
(CMU / Valladolid / Coimbra tiers) and inject a 50%-efficiency server
overload into two experiments, exactly the paper's failure mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.netsim.traffic import RandomWalkTraffic
from repro.apps.video import VideoSpec, choose_and_stream
from repro.collectors.benchmark_collector import BenchmarkConfig
from repro.deploy import deploy_wan

from _util import emit, emit_json, fmt_row

N_EXPERIMENTS = 21
OVERLOADED_RUNS = {7, 15}  # two experiments hit an overloaded server


def run_fig10(consider_load: bool = False):
    world = build_multisite_wan(
        [
            SiteSpec("eth", access_bps=100 * MBPS, n_hosts=4),
            SiteSpec("cmu", access_bps=1.1 * MBPS, n_hosts=3),
            SiteSpec("valladolid", access_bps=0.75 * MBPS, n_hosts=3),
            SiteSpec("coimbra", access_bps=0.28 * MBPS, n_hosts=3),
        ]
    )
    dep = deploy_wan(
        world,
        bench_config=BenchmarkConfig(
            probe_bytes=60_000, max_age_s=30.0, max_probe_s=8.0
        ),
    )
    client = world.host("eth", 0)
    servers = {
        "cmu": world.host("cmu", 0),
        "valladolid": world.host("valladolid", 0),
        "coimbra": world.host("coimbra", 0),
    }
    gens = []
    for i, (site, (lo, hi, sg)) in enumerate(
        {
            "cmu": (0.05 * MBPS, 0.7 * MBPS, 0.2 * MBPS),
            "valladolid": (0.1 * MBPS, 0.6 * MBPS, 0.2 * MBPS),
            "coimbra": (0.02 * MBPS, 0.18 * MBPS, 0.05 * MBPS),
        }.items()
    ):
        g = RandomWalkTraffic(
            world.net, world.host(site, 1), world.host("eth", 2),
            lo_bps=lo, hi_bps=hi, sigma_bps=sg, step_s=2.0, seed=10 + i,
            label=f"x:{site}",
        )
        g.start()
        gens.append(g)
    world.net.engine.run_until(60.0)

    # a movie that needs more than any distant server can deliver
    spec = VideoSpec(duration_s=30.0, fps=24.0, i_frame_bytes=11000.0)
    rows = []  # (picked, {site: frames})
    for k in range(N_EXPERIMENTS):
        # pre-rank to decide which server would be "overloaded"
        efficiencies = {}
        overloaded = None
        if k in OVERLOADED_RUNS:
            reported = {
                s: dep.session().flow_info(h, client).available_bps
                for s, h in servers.items()
            }
            overloaded = max(reported, key=lambda s: reported[s])
            efficiencies[overloaded] = 0.5
            servers[overloaded].load_source = lambda t: 8.0
        picked, results = choose_and_stream(
            dep.modeler, world.net, client, servers,
            VideoSpec(duration_s=30.0, fps=24.0, i_frame_bytes=11000.0, seed=k),
            efficiencies=efficiencies,
            consider_load=consider_load,
        )
        if overloaded is not None:
            servers[overloaded].load_source = None
        rows.append((picked, {s: r.frames_received for s, r in results.items()},
                     results[picked].total_frames))
        world.net.engine.run_until(world.net.now + 30.0)
    for g in gens:
        g.stop()
    return rows


def test_fig10_video_frames(benchmark):
    rows = benchmark.pedantic(run_fig10, rounds=1, iterations=1)

    widths = [5, 12, 8, 12, 9, 7]
    lines = [
        "Correctly received frames per experiment; * marks the picked server",
        "paper: picked server receives the most frames in ~90% of cases;",
        "       2 of 21 misses due to an overloaded server sending half its packets",
        "",
        fmt_row(["exp", "cmu", "vallad", "coimbra", "best?", "total"], widths),
    ]
    hits = 0
    normal_hits = 0
    n_normal = len(rows) - len(OVERLOADED_RUNS)
    for k, (picked, frames, total) in enumerate(rows):
        best = max(frames, key=lambda s: frames[s])
        hit = picked == best
        hits += hit
        if k not in OVERLOADED_RUNS:
            normal_hits += hit
        cells = []
        for s in ("cmu", "valladolid", "coimbra"):
            mark = "*" if s == picked else " "
            cells.append(f"{frames[s]}{mark}")
        note = "ok" if hit else ("ovld" if k in OVERLOADED_RUNS else "MISS")
        lines.append(fmt_row([k + 1, cells[0], cells[1], cells[2], note, total], widths))
    rate = hits / len(rows)
    normal_rate = normal_hits / n_normal
    lines.append("")
    lines.append(
        f"picked server had the most frames in {100 * rate:.0f}% of runs "
        f"({100 * normal_rate:.0f}% excluding the {len(OVERLOADED_RUNS)} "
        f"overload runs; paper: ~90% with 2 overload misses)"
    )
    emit("fig10_video_frames", lines)
    emit_json(
        "fig10_video_frames",
        {
            "experiments": len(rows),
            "overload_runs": sorted(OVERLOADED_RUNS),
            "hit_rate": rate,
            "normal_hit_rate": normal_rate,
            "frames": [
                {"picked": picked, "received": frames, "total": total}
                for picked, frames, total in rows
            ],
        },
    )

    # --- shape assertions -------------------------------------------------
    assert normal_rate >= 0.75, "bandwidth must predict frame quality"
    # the metric is discriminative: the narrowest server always drops
    # frames, and nearly every stream drops something
    streams = [(f, total) for _, frames, total in rows for f in [frames]]
    for frames, total in streams:
        assert frames["coimbra"] < 0.5 * total
    dropped = sum(
        1 for frames, total in streams for s, n in frames.items() if n < total
    )
    assert dropped >= 0.8 * 3 * len(rows)
    # overloaded experiments must show degradation on the picked server
    for k in OVERLOADED_RUNS:
        picked, frames, total = rows[k]
        assert frames[picked] < 0.85 * total


def test_fig10_load_aware_extension(benchmark):
    """§5.5's own diagnosis, applied: with node-load queries in the
    selection ('other parameters … must be taken into account'), the
    two overload misses disappear — the client dodges the swamped
    server and lands on the best healthy one."""
    rows = benchmark.pedantic(
        lambda: run_fig10(consider_load=True), rounds=1, iterations=1
    )
    hits = 0
    overload_hits = 0
    for k, (picked, frames, total) in enumerate(rows):
        best = max(frames, key=lambda s: frames[s])
        hit = picked == best
        hits += hit
        if k in OVERLOADED_RUNS:
            overload_hits += hit
    rate = hits / len(rows)
    emit(
        "fig10_load_aware",
        [
            "Fig. 10 rerun with load-aware selection (node queries included)",
            f"picked server had the most frames in {100 * rate:.0f}% of runs",
            f"overload runs hit: {overload_hits}/{len(OVERLOADED_RUNS)} "
            "(bandwidth-only selection missed both)",
        ],
    )
    emit_json(
        "fig10_load_aware",
        {
            "experiments": len(rows),
            "hit_rate": rate,
            "overload_hits": overload_hits,
        },
    )
    assert overload_hits == len(OVERLOADED_RUNS), (
        "load-aware selection must dodge the overloaded servers"
    )
    assert rate >= 0.75
