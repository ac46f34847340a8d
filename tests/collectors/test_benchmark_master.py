"""Tests for Benchmark Collector, directory, and Master Collector."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import QueryError, UnknownHostError
from repro.common.status import QueryStatus
from repro.common.units import MBPS
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_random_wan
from repro.netsim.traffic import RandomWalkTraffic
from repro.netsim.address import IPv4Address
from repro.collectors.base import TopologyRequest
from repro.collectors.benchmark_collector import BenchmarkCollector, BenchmarkConfig
from repro.collectors.directory import CollectorDirectory
from repro.deploy import deploy_wan


@pytest.fixture
def wan():
    return build_multisite_wan(
        [
            SiteSpec("cmu", access_bps=10 * MBPS, n_hosts=3),
            SiteSpec("eth", access_bps=60 * MBPS, n_hosts=3),
            SiteSpec("dsl", access_bps=0.08 * MBPS, n_hosts=3),
        ]
    )


class TestBenchmarkCollector:
    def test_probe_measures_bottleneck(self, wan):
        a = BenchmarkCollector("cmu", wan.net, wan.host("cmu", 2))
        b = BenchmarkCollector("eth", wan.net, wan.host("eth", 2))
        a.add_peer(b)
        m = a.probe("eth")
        assert m.throughput_bps == pytest.approx(10 * MBPS, rel=0.01)
        assert m.src_site == "cmu" and m.dst_site == "eth"

    @pytest.mark.parametrize("method", ["bulk", "packet_pair", "one_way"])
    def test_rtt_is_twice_the_probed_path_latency(self, wan, method):
        from repro.netsim.paths import compute_path, path_latency

        a = BenchmarkCollector(
            "cmu", wan.net, wan.host("cmu", 2), BenchmarkConfig(method=method)
        )
        b = BenchmarkCollector("eth", wan.net, wan.host("eth", 2))
        a.add_peer(b)
        path = compute_path(wan.net, a.host, b.host)
        assert a.probe("eth").rtt_s == 2.0 * path_latency(path) > 0.0

    def test_probe_takes_simulated_time(self, wan):
        a = BenchmarkCollector(
            "cmu", wan.net, wan.host("cmu", 2), BenchmarkConfig(probe_bytes=1_250_000)
        )
        b = BenchmarkCollector("eth", wan.net, wan.host("eth", 2))
        a.add_peer(b)
        t0 = wan.net.now
        a.probe("eth")
        # 1.25 MB at 10 Mbps = 1 s
        assert wan.net.now - t0 == pytest.approx(1.0, rel=0.01)

    def test_slow_link_probe_capped(self, wan):
        cfg = BenchmarkConfig(probe_bytes=10_000_000, max_probe_s=5.0)
        a = BenchmarkCollector("cmu", wan.net, wan.host("cmu", 2), cfg)
        b = BenchmarkCollector("dsl", wan.net, wan.host("dsl", 2))
        a.add_peer(b)
        t0 = wan.net.now
        m = a.probe("dsl")
        assert wan.net.now - t0 == pytest.approx(5.0, rel=0.01)
        assert m.throughput_bps == pytest.approx(0.08 * MBPS, rel=0.02)

    def test_measurement_cached_until_stale(self, wan):
        cfg = BenchmarkConfig(max_age_s=100.0)
        a = BenchmarkCollector("cmu", wan.net, wan.host("cmu", 2), cfg)
        b = BenchmarkCollector("eth", wan.net, wan.host("eth", 2))
        a.add_peer(b)
        m1 = a.probe("eth")
        m2 = a.measurement("eth")
        assert m2 is m1  # served from cache
        wan.net.engine.run_until(wan.net.now + 200.0)
        m3 = a.measurement("eth")
        assert m3 is not m1  # re-probed

    def test_measurement_stale_without_probe(self, wan):
        cfg = BenchmarkConfig(max_age_s=1.0)
        a = BenchmarkCollector("cmu", wan.net, wan.host("cmu", 2), cfg)
        b = BenchmarkCollector("eth", wan.net, wan.host("eth", 2))
        a.add_peer(b)
        a.probe("eth")
        wan.net.engine.run_until(wan.net.now + 10.0)
        m = a.measurement("eth", allow_probe=False)
        assert m.stale

    def test_statistics(self, wan):
        a = BenchmarkCollector("cmu", wan.net, wan.host("cmu", 2))
        b = BenchmarkCollector("eth", wan.net, wan.host("eth", 2))
        a.add_peer(b)
        for _ in range(4):
            a.probe("eth")
        mean, std, n = a.statistics("eth")
        assert n == 4
        assert mean == pytest.approx(10 * MBPS, rel=0.02)
        assert std < 0.1 * MBPS

    def test_unknown_peer_raises(self, wan):
        a = BenchmarkCollector("cmu", wan.net, wan.host("cmu", 2))
        with pytest.raises(QueryError):
            a.probe("nowhere")
        with pytest.raises(QueryError):
            a.statistics("nowhere")

    def test_self_peer_rejected(self, wan):
        a = BenchmarkCollector("cmu", wan.net, wan.host("cmu", 2))
        with pytest.raises(ValueError):
            a.add_peer(a)

    def test_periodic_probing(self, wan):
        cfg = BenchmarkConfig(period_s=30.0)
        a = BenchmarkCollector("cmu", wan.net, wan.host("cmu", 2), cfg)
        b = BenchmarkCollector("eth", wan.net, wan.host("eth", 2))
        a.add_peer(b)
        a.start_periodic()
        wan.net.engine.run_until(100.0)
        a.stop_periodic()
        assert a.probes_run >= 3
        assert len(a.history["eth"]) == a.probes_run


class TestDirectory:
    def test_longest_prefix_lookup(self, wan):
        dep = deploy_wan(wan)
        reg = dep.directory.lookup("10.10.0.10")
        assert reg.site == "cmu"
        with pytest.raises(UnknownHostError):
            dep.directory.lookup("172.16.0.1")

    def test_sites_listing(self, wan):
        dep = deploy_wan(wan)
        assert dep.directory.sites() == ["cmu", "dsl", "eth"]


class TestMasterCollector:
    def test_single_site_query_delegates(self, wan):
        dep = deploy_wan(wan)
        resp = dep.master.topology(
            TopologyRequest.of([wan.host("cmu", 0).ip, wan.host("cmu", 1).ip])
        )
        ids = [n.id for n in resp.graph.nodes()]
        assert str(wan.host("cmu", 0).ip) in ids
        # no WAN stitching needed within one site
        assert not any(n.kind == "cloud" for n in resp.graph.nodes())

    def test_multi_site_query_is_stitched(self, wan):
        dep = deploy_wan(wan)
        resp = dep.master.topology(
            TopologyRequest.of([wan.host("cmu", 0).ip, wan.host("eth", 0).ip])
        )
        g = resp.graph
        path = g.path(str(wan.host("cmu", 0).ip), str(wan.host("eth", 0).ip))
        assert "cmu-gw" in path and "eth-gw" in path
        e = g.edge("cmu-gw", "eth-gw")
        assert e.capacity_bps == pytest.approx(10 * MBPS, rel=0.05)

    def test_three_site_query(self, wan):
        dep = deploy_wan(wan)
        ips = [wan.host(s, 0).ip for s in ("cmu", "eth", "dsl")]
        resp = dep.master.topology(TopologyRequest.of(ips))
        g = resp.graph
        # all three logical edges present
        assert g.has_edge("cmu-gw", "eth-gw")
        assert g.has_edge("cmu-gw", "dsl-gw")
        assert g.has_edge("dsl-gw", "eth-gw")

    def test_covers(self, wan):
        dep = deploy_wan(wan)
        assert dep.master.directory.lookup(IPv4Address("10.10.0.10")).site == "cmu"
        with pytest.raises(UnknownHostError):
            dep.master.directory.lookup(IPv4Address("172.16.0.1"))

    def test_unresolved_propagates(self, wan):
        dep = deploy_wan(wan)
        resp = dep.master.topology(
            TopologyRequest.of([wan.host("cmu", 0).ip, "172.16.0.1"])
        )
        assert "172.16.0.1" in resp.unresolved

    def test_hierarchical_master(self, wan):
        """A master registered inside another master's directory."""
        dep = deploy_wan(wan)
        from repro.collectors.directory import CollectorDirectory
        from repro.collectors.master import MasterCollector

        top_dir = CollectorDirectory()
        top_dir.register(
            dep.master,
            ["10.0.0.0/8", "192.168.0.0/16"],
            site="everything",
            remote=True,
        )
        top = MasterCollector("top", wan.net, top_dir)
        resp = top.topology(
            TopologyRequest.of([wan.host("cmu", 0).ip, wan.host("eth", 0).ip])
        )
        path = resp.graph.path(
            str(wan.host("cmu", 0).ip), str(wan.host("eth", 0).ip)
        )
        assert "cmu-gw" in path and "eth-gw" in path


def _probes_run(dep) -> int:
    return sum(b.probes_run for b in dep.benchmarks.values())


class _FullMeshMaster:
    """A Master that forgets the question: every request it forwards
    asks for every pair, which is what every request asked before
    ``TopologyRequest.pairs`` existed."""

    def __init__(self, master):
        self._master = master

    def topology(self, request):
        return self._master.topology(dataclasses.replace(request, pairs=None))

    def __getattr__(self, name):
        return getattr(self._master, name)


@st.composite
def _world_and_pairs(draw):
    """(n_sites, world seed, non-empty list of (site, host) index pairs)."""
    n_sites = draw(st.integers(4, 10))
    host = st.tuples(st.integers(0, n_sites - 1), st.integers(0, 1))
    pair = st.tuples(host, host).filter(lambda p: p[0] != p[1])
    return n_sites, draw(st.integers(0, 2**16)), draw(st.lists(pair, min_size=1, max_size=12))


def _scoped_deploy(n_sites: int, seed: int):
    world = build_random_wan(n_sites, seed=seed, hosts_per_site=(2, 3))
    dep = deploy_wan(world, bench_config=BenchmarkConfig(probe_bytes=50_000))
    names = sorted(world.sites)
    return world, dep, names


class TestScopedStitch:
    """The stitch measures the site pairs a query asks about; what it
    answers for those pairs is what the full mesh would have answered."""

    @given(_world_and_pairs())
    @settings(max_examples=25, deadline=None)
    def test_scoped_answers_equal_full_mesh_answers(self, spec):
        n_sites, seed, index_pairs = spec
        answers = []
        for full_mesh in (False, True):
            world, dep, names = _scoped_deploy(n_sites, seed)
            if full_mesh:
                dep.modeler.master = _FullMeshMaster(dep.master)
            pairs = [
                (world.host(names[a], i), world.host(names[b], j))
                for (a, i), (b, j) in index_pairs
            ]
            answers.append(dep.session().flow_info_many(pairs))
            if not full_mesh:
                site_pairs = {
                    frozenset((a, b)) for (a, _), (b, _) in index_pairs if a != b
                }
                assert _probes_run(dep) == 2 * len(site_pairs)
            assert world.net.flows.active_flows() == []
        for scoped, full in zip(*answers):
            assert scoped.available_bps == full.available_bps
            assert scoped.path == full.path
            assert scoped.status == full.status == QueryStatus.OK

    def test_unasked_pairs_are_counted_not_probed(self, wan):
        dep = deploy_wan(wan)
        a, b, c = (wan.host(s, 0) for s in ("cmu", "eth", "dsl"))
        with obs.scoped_registry() as reg:
            dep.session().flow_info_many([(a, b), (a, c)])
            first = obs.export.snapshot(reg)["counters"]
            dep.session().flow_info_many([(a, b), (a, c)])
            both = obs.export.snapshot(reg)["counters"]
        assert first["collectors.master.stitch_pairs{result=probed}"] == 2
        assert first["collectors.master.stitch_pairs{result=skipped}"] == 1
        assert both["collectors.master.stitch_pairs{result=reused}"] == 2
        assert _probes_run(dep) == 4
        assert dep.benchmarks["eth"].probes_run == 1  # eth -> cmu only

    def test_scope_reaches_a_master_behind_a_master(self, wan):
        """The tier that probes may sit below the one that was asked."""
        from repro.collectors.master import MasterCollector

        dep = deploy_wan(wan)
        top_dir = CollectorDirectory()
        top_dir.register(
            dep.master, ["10.0.0.0/8", "192.168.0.0/16"], site="everything", remote=True
        )
        top = MasterCollector("top", wan.net, top_dir)
        ips = [str(wan.host(s, 0).ip) for s in ("cmu", "eth", "dsl")]
        resp = top.topology(
            TopologyRequest(tuple(ips), pairs=frozenset({(ips[0], ips[1])}))
        )
        assert resp.graph.has_edge("cmu-gw", "eth-gw")
        assert not resp.graph.has_edge("cmu-gw", "dsl-gw")
        assert _probes_run(dep) == 2


class TestAgeJudgedWhenTheStitchStarts:
    """One stitch reads the clock once: the time its own probes take
    cannot expire the measurements it is about to read."""

    #: three sites behind links so slow that every probe runs into
    #: ``max_probe_s`` (30 s): one full stitch is 6 probes = 180 s
    MAX_AGE_S = 170.0

    @pytest.fixture
    def slow(self):
        w = build_multisite_wan(
            [SiteSpec(n, access_bps=0.08 * MBPS, n_hosts=2) for n in ("a", "b", "c")]
        )
        dep = deploy_wan(w, bench_config=BenchmarkConfig(max_age_s=self.MAX_AGE_S))
        req = TopologyRequest.of([w.host(n, 0).ip for n in ("a", "b", "c")])
        t0 = w.net.now
        dep.master.topology(req)
        assert w.net.now - t0 > self.MAX_AGE_S
        assert [dep.benchmarks[n].probes_run for n in ("a", "b", "c")] == [2, 2, 2]
        return w, dep, req

    def test_refresh_reuses_a_stitch_longer_than_max_age(self, slow):
        w, dep, req = slow
        w.net.engine.run_until(w.net.now + 10.0)
        resp = dep.master.topology(req)
        assert _probes_run(dep) == 6
        assert resp.status == QueryStatus.OK

    def test_query_after_max_age_reprobes_each_direction_once(self, slow):
        w, dep, req = slow
        w.net.engine.run_until(w.net.now + self.MAX_AGE_S + 1.0)
        dep.master.topology(req)
        assert [dep.benchmarks[n].probes_run for n in ("a", "b", "c")] == [4, 4, 4]

    def test_one_lapsed_direction_does_not_cascade(self, slow):
        """25 s on, only the first direction probed (then 175 s old) has
        lapsed.  Judged against the moving clock, re-probing it (30 s)
        would lapse the next, and so on through all six."""
        w, dep, req = slow
        w.net.engine.run_until(w.net.now + 25.0)
        dep.master.topology(req)
        assert _probes_run(dep) == 7
