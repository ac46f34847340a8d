"""Tests for the lightweight benchmark probe methods (§6.2)."""

import os
import subprocess
import sys

import pytest

from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan
from repro.collectors.benchmark_collector import BenchmarkCollector, BenchmarkConfig


@pytest.fixture
def wan():
    w = build_multisite_wan(
        [
            SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("b", access_bps=50 * MBPS, n_hosts=3),
        ]
    )
    return w


def _pair(w, method, **kw):
    cfg = BenchmarkConfig(method=method, **kw)
    a = BenchmarkCollector("a", w.net, w.host("a", 2), cfg)
    b = BenchmarkCollector("b", w.net, w.host("b", 2))
    a.add_peer(b)
    return a


class TestMethods:
    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(method="telepathy")

    def test_bulk_accurate(self, wan):
        a = _pair(wan, "bulk", probe_bytes=250_000)
        m = a.probe("b")
        assert m.throughput_bps == pytest.approx(10 * MBPS, rel=0.01)
        assert a.bytes_injected == pytest.approx(250_000, rel=0.01)

    def test_packet_pair_cheap_but_noisy(self, wan):
        a = _pair(wan, "packet_pair")
        samples = [a.probe("b").throughput_bps for _ in range(30)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(10 * MBPS, rel=0.15)
        spread = max(samples) - min(samples)
        assert spread > 0.05 * mean, "packet pair must be noisy"
        # ~3 KB per probe vs 250 KB for bulk: ~80x less intrusive
        per_probe = a.bytes_injected / 30
        assert per_probe < 0.02 * 250_000

    def test_packet_pair_fast(self, wan):
        a = _pair(wan, "packet_pair")
        t0 = wan.net.now
        a.probe("b")
        assert wan.net.now - t0 < 1.0

    def test_one_way_blind_to_cross_traffic(self, wan):
        # saturate half the bottleneck
        wan.net.flows.start_flow(wan.host("a", 1), wan.host("b", 1),
                                 demand_bps=5 * MBPS)
        one_way = _pair(wan, "one_way")
        bulk = _pair(wan, "bulk", probe_bytes=125_000)
        m1 = one_way.probe("b")
        m2 = bulk.probe("b")
        # single-ended sees raw capacity; bulk sees what's left
        assert m1.throughput_bps == pytest.approx(10 * MBPS, rel=0.01)
        assert m2.throughput_bps == pytest.approx(5 * MBPS, rel=0.05)

    def test_one_way_injects_least(self, wan):
        a = _pair(wan, "one_way")
        a.probe("b")
        assert a.bytes_injected <= 1_500

    def test_one_way_costs_four_round_trips_whatever_the_hop_count(self, wan):
        """A short in-site path is charged the 10 ms floor, a WAN path
        four of its round trips: the charge does not grow with hops."""
        from repro.netsim.paths import compute_path, path_latency

        def charged(collector, peer, host):
            path = compute_path(wan.net, collector.host, host)
            t0 = wan.net.now
            collector.probe(peer)
            return len(path), wan.net.now - t0, path_latency(path)

        near = BenchmarkCollector("a", wan.net, wan.host("a", 2), BenchmarkConfig(method="one_way"))
        near.add_peer(BenchmarkCollector("a1", wan.net, wan.host("a", 1)))
        near_hops, near_s, _ = charged(near, "a1", wan.host("a", 1))
        far_hops, far_s, far_latency = charged(_pair(wan, "one_way"), "b", wan.host("b", 2))
        assert near_hops < far_hops
        assert near_s == pytest.approx(0.01)
        assert far_s == pytest.approx(4 * (2 * far_latency)) and far_s > 0.01

    def test_histories_shared_across_methods(self, wan):
        a = _pair(wan, "packet_pair")
        for _ in range(4):
            a.probe("b")
        mean, std, n = a.statistics("b")
        assert n == 4
        assert mean > 0


def _three_sites(method):
    """Sites a/b/c on a star WAN, a probing b and c periodically."""
    w = build_multisite_wan(
        [SiteSpec(s, access_bps=10 * MBPS, n_hosts=3) for s in "abc"]
    )
    cfg = BenchmarkConfig(method=method, probe_bytes=125_000, period_s=60.0)
    a = BenchmarkCollector("a", w.net, w.host("a", 2), cfg)
    for s in "bc":
        a.add_peer(BenchmarkCollector(s, w.net, w.host(s, 2)))
    return w, a


def _wan_link(w, site):
    """The link between ``site``'s gateway and the WAN core."""
    gw = w.sites[site].router
    [link] = [
        l for l in w.net.links
        if {l.a.device, l.b.device} == {gw, w.core}
    ]
    return link


class TestPartitionedPeer:
    """A peer that lost its route costs one skipped probe, never the
    periodic timer (and with it the whole simulation)."""

    @pytest.mark.parametrize("method", ["bulk", "packet_pair", "one_way"])
    def test_probe_all_skips_the_partitioned_peer(self, method):
        from repro.netsim.failures import fail_link

        w, a = _three_sites(method)
        fail_link(w.net, _wan_link(w, "b"))
        measured = a.probe_all()
        assert [m.dst_site for m in measured] == ["c"]
        assert not w.net.flows.active_flows()

    def test_probe_maps_routing_failure_to_query_error(self):
        from repro.common.errors import QueryError
        from repro.netsim.failures import fail_link

        w, a = _three_sites("bulk")
        fail_link(w.net, _wan_link(w, "b"))
        with pytest.raises(QueryError, match="no route"):
            a.probe("b")

    def test_measurement_falls_back_to_last_known_good(self):
        from repro.netsim.failures import fail_link

        w, a = _three_sites("bulk")
        good = a.probe("b")
        fail_link(w.net, _wan_link(w, "b"))
        w.net.engine.run_until(w.net.now + 2 * a.config.max_age_s)
        stale = a.measurement("b")
        assert stale.stale
        assert stale.throughput_bps == good.throughput_bps
        assert stale.measured_at == good.measured_at

    def test_periodic_run_survives_and_resumes_after_repair(self):
        from repro.netsim.failures import fail_link, repair_link

        w, a = _three_sites("bulk")
        link = _wan_link(w, "b")
        a.start_periodic()
        w.net.engine.run_until(w.net.now + 61.0)
        assert len(a.history["b"]) == 1 and len(a.history["c"]) == 1
        fail_link(w.net, link)
        w.net.engine.run_until(w.net.now + 120.0)  # two rounds, b unreachable
        assert len(a.history["b"]) == 1
        assert len(a.history["c"]) == 3
        repair_link(w.net, link)
        w.net.engine.run_until(w.net.now + 60.0)
        assert len(a.history["b"]) == 2
        assert a.history["b"][-1].throughput_bps == pytest.approx(10 * MBPS, rel=0.01)
        a.stop_periodic()
        assert not w.net.flows.active_flows()

    @pytest.mark.parametrize("method", ["bulk", "packet_pair"])
    def test_interrupted_probe_leaves_no_flow_behind(self, method):
        """An exception while the probe holds the clock must not strand
        the infinite-demand probe flow with a max-min share."""
        from unittest import mock

        w, a = _three_sites(method)
        with mock.patch.object(
            w.net.engine, "advance", side_effect=RuntimeError("interrupted")
        ):
            with pytest.raises(RuntimeError):
                a.probe("b")
        assert not w.net.flows.active_flows()


_PACKET_PAIR_SCRIPT = """
from repro.collectors.benchmark_collector import BenchmarkCollector, BenchmarkConfig
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan

w = build_multisite_wan([
    SiteSpec("a", access_bps=10 * MBPS, n_hosts=3),
    SiteSpec("b", access_bps=50 * MBPS, n_hosts=3),
])
a = BenchmarkCollector("a", w.net, w.host("a", 2), BenchmarkConfig(method="packet_pair"))
a.add_peer(BenchmarkCollector("b", w.net, w.host("b", 2)))
for _ in range(8):
    a.probe("b")
print([m.throughput_bps.hex() for m in a.history["b"]])
"""


class TestPacketPairDeterminism:
    def test_history_independent_of_hash_seed(self):
        """The noise seed must not come from ``hash(str)``, which is
        salted per interpreter: two interpreters with different
        PYTHONHASHSEED read identical packet-pair histories."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.path.abspath(src))
            done = subprocess.run(
                [sys.executable, "-c", _PACKET_PAIR_SCRIPT],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("0x") == 8
