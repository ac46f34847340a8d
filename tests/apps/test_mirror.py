"""Tests for the mirror-server selection application."""

import pytest

from repro import faults
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.deploy import deploy_wan
from repro.apps.mirror import MirrorClient


@pytest.fixture
def world():
    w = build_multisite_wan(
        [
            SiteSpec("client", access_bps=100 * MBPS, n_hosts=3),
            SiteSpec("fast", access_bps=8 * MBPS, n_hosts=3),
            SiteSpec("slow", access_bps=1 * MBPS, n_hosts=3),
        ]
    )
    return w, deploy_wan(w)


class TestMirrorClient:
    def test_ranking_orders_by_bandwidth(self, world):
        w, dep = world
        mc = MirrorClient(
            dep.modeler, w.net, w.host("client", 0),
            {"fast": w.host("fast", 0), "slow": w.host("slow", 0)},
        )
        reported, query_s = mc.rank_servers()
        assert reported["fast"] > reported["slow"]
        assert query_s > 0

    def test_a_crashed_site_is_listed_as_degraded(self, world):
        w, dep = world
        mc = MirrorClient(
            dep.modeler, w.net, w.host("client", 0),
            {"fast": w.host("fast", 0), "slow": w.host("slow", 0)},
        )
        faults.crash_collector(dep.snmp_collectors["slow"], 1000.0)
        mc.rank_servers()
        assert mc.degraded_sites == {"slow": "failed"}

    def test_trial_downloads_all(self, world):
        w, dep = world
        mc = MirrorClient(
            dep.modeler, w.net, w.host("client", 0),
            {"fast": w.host("fast", 0), "slow": w.host("slow", 0)},
            file_bytes=500_000,
        )
        r = mc.run_trial()
        assert r.chosen == "fast"
        assert r.chose_best
        assert r.achieved_bps["fast"] == pytest.approx(8 * MBPS, rel=0.05)
        assert r.achieved_bps["slow"] == pytest.approx(1 * MBPS, rel=0.05)

    def test_effective_bandwidth_below_raw(self, world):
        w, dep = world
        mc = MirrorClient(
            dep.modeler, w.net, w.host("client", 0),
            {"fast": w.host("fast", 0), "slow": w.host("slow", 0)},
            file_bytes=500_000,
        )
        r = mc.run_trial()
        eff = mc.effective_bandwidth(r)
        assert 0 < eff < r.achieved_bps[r.chosen]

    def test_aggregates(self, world):
        w, dep = world
        mc = MirrorClient(
            dep.modeler, w.net, w.host("client", 0),
            {"fast": w.host("fast", 0), "slow": w.host("slow", 0)},
            file_bytes=250_000,
        )
        for _ in range(3):
            mc.run_trial()
            w.net.engine.run_until(w.net.now + 2.0)
        assert mc.best_pick_rate() == 1.0
        avgs = mc.rank_averages()
        assert len(avgs) == 2
        assert avgs[0] > avgs[1]

    def test_no_servers_rejected(self, world):
        w, dep = world
        with pytest.raises(ValueError):
            MirrorClient(dep.modeler, w.net, w.host("client", 0), {})
