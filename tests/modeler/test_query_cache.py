"""Modeler query-result caching (the staleness-window memoisation).

With ``query_cache_ttl_s > 0`` a repeated query inside the window is
answered from the memoised Master response: same answers, a fraction of
the simulated cost, and no Master RPC.  Past the window (or after
``invalidate_cache``) the Master is consulted again.
"""

import dataclasses
import itertools

import pytest

from repro import faults, obs
from repro.common.errors import TopologyError
from repro.common.status import QueryStatus
from repro.collectors.base import RPC_LOCAL_S
from repro.common.units import MBPS
from repro.modeler.graph import HOST, TopoEdge, TopoNode, TopologyGraph
from repro.netsim.builders import SiteSpec, build_multisite_wan, build_switched_lan
from repro.deploy import deploy_lan, deploy_wan
from repro.service.wire import canonical_json


@pytest.fixture
def lan_dep():
    lan = build_switched_lan(8, fanout=4)
    dep = deploy_lan(lan)
    # warm discovery so per-query costs are stable
    dep.session().flow_info(lan.hosts[0], lan.hosts[7])
    return lan, dep


def _hit_miss(snap):
    c = snap["counters"]
    return (
        c.get("modeler.query_cache{result=hit}", 0),
        c.get("modeler.query_cache{result=miss}", 0),
    )


def _small_wan(ttl_s, n_sites=4):
    """A quiet ``n_sites``-site WAN, its deployment with the query cache
    set to ``ttl_s``, and the first host of every site."""
    w = build_multisite_wan(
        [SiteSpec(f"s{i:02d}", access_bps=10 * MBPS, n_hosts=2) for i in range(n_sites)]
    )
    dep = deploy_wan(w)
    dep.modeler.query_cache_ttl_s = ttl_s
    return w, dep, [str(w.host(f"s{i:02d}", 0).ip) for i in range(n_sites)]


class TestDisabledByDefault:
    def test_no_cache_metrics_without_ttl(self, lan_dep):
        lan, dep = lan_dep
        assert dep.modeler.query_cache_ttl_s == 0.0
        with obs.scoped_registry() as reg:
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 0)


class TestCachedAnswers:
    def test_cached_equals_uncached(self, lan_dep):
        lan, dep = lan_dep
        uncached = dep.session().flow_info(lan.hosts[0], lan.hosts[7])
        dep.modeler.query_cache_ttl_s = 30.0
        first = dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # miss
        second = dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # hit

        # data_age_s is measured against the sim clock, which advances a
        # few RPC latencies between separate fetches; every measurement
        # field must match exactly, and a cache hit must replay its
        # filling miss verbatim (age included).
        def split(ans):
            d = dataclasses.asdict(ans)
            return d.pop("data_age_s"), d

        age_u, d_u = split(uncached)
        age_1, d_1 = split(first)
        age_2, d_2 = split(second)
        assert d_1 == d_u
        assert d_2 == d_u
        assert age_1 == pytest.approx(age_u, abs=0.1)
        assert age_2 == age_1

    def test_hit_skips_master_and_is_cheaper(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 30.0
        with obs.scoped_registry() as reg:
            t0 = lan.net.now
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            miss_cost = lan.net.now - t0
            t1 = lan.net.now
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            hit_cost = lan.net.now - t1
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (1, 1)
        assert hit_cost < miss_cost
        # a cache hit costs exactly the Modeler's local processing —
        # no Master RPC, no collector work
        assert hit_cost == pytest.approx(RPC_LOCAL_S)

    def test_own_flow_credit_does_not_corrupt_cache(self, lan_dep):
        """flow_queries mutates the fetched graph in place to credit the
        caller's own traffic; the memoised graph must be unaffected."""
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 30.0
        pairs = [(lan.hosts[0], lan.hosts[7])]
        own = [(lan.hosts[0], lan.hosts[7], 5e6)]
        plain = dep.session().flow_info_many(pairs)[0]  # miss: fills the cache
        credited = dep.session().flow_info_many(pairs, own_flows=own)[0]  # hit
        replay = dep.session().flow_info_many(pairs)[0]  # hit, no credit
        assert credited.available_bps >= plain.available_bps
        assert replay.available_bps == pytest.approx(plain.available_bps)


class TestStaleness:
    def test_expiry_refetches(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 2.0
        with obs.scoped_registry() as reg:
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # miss
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # hit
            lan.net.engine.advance(5.0)  # step past the window
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])  # miss again
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (1, 2)

    def test_invalidate_forces_refetch(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 30.0
        with obs.scoped_registry() as reg:
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            dep.modeler.invalidate_cache()
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 2)

    def test_distinct_queries_do_not_share_entries(self, lan_dep):
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 30.0
        with obs.scoped_registry() as reg:
            dep.session().flow_info(lan.hosts[0], lan.hosts[7])
            dep.session().flow_info(lan.hosts[0], lan.hosts[3])
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 2)


class TestSiteScopedInvalidation:
    """``invalidate_cache(sites=...)`` evicts only entries whose
    provenance intersects the named sites; other memoized answers keep
    serving hits."""

    @pytest.fixture
    def wan_dep(self):
        w, dep, hosts = _small_wan(600.0)
        pair_a, pair_b = tuple(hosts[:2]), tuple(hosts[2:])
        # fill both entries (discovery + memoisation)
        dep.session().flow_info_many([pair_a])
        dep.session().flow_info_many([pair_b])
        return dep, pair_a, pair_b

    def test_scoped_eviction_spares_other_sites(self, wan_dep):
        dep, pair_a, pair_b = wan_dep
        with obs.scoped_registry() as reg:
            dep.session().invalidate_cache(sites=["s02"])
            dep.session().flow_info_many([pair_a])  # untouched: hit
            dep.session().flow_info_many([pair_b])  # evicted: refetch
            snap = obs.export.snapshot(reg)
        c = snap["counters"]
        assert c["modeler.query_cache{result=evicted}"] == 1
        assert c["modeler.query_cache{result=survived}"] == 1
        assert _hit_miss(snap) == (1, 1)

    def test_unknown_site_evicts_nothing(self, wan_dep):
        dep, pair_a, pair_b = wan_dep
        with obs.scoped_registry() as reg:
            dep.session().invalidate_cache(sites=["nowhere"])
            dep.session().flow_info_many([pair_a])
            dep.session().flow_info_many([pair_b])
            snap = obs.export.snapshot(reg)
        c = snap["counters"]
        assert c["modeler.query_cache{result=evicted}"] == 0
        assert c["modeler.query_cache{result=survived}"] == 2
        assert _hit_miss(snap) == (2, 0)

    def test_none_still_flushes_everything(self, wan_dep):
        dep, pair_a, pair_b = wan_dep
        with obs.scoped_registry() as reg:
            dep.session().invalidate_cache()
            dep.session().flow_info_many([pair_a])
            dep.session().flow_info_many([pair_b])
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 2)


def _view_hit_miss(snap):
    c = snap["counters"]
    return (
        c.get("modeler.view_cache{result=hit}", 0),
        c.get("modeler.view_cache{result=miss}", 0),
    )


class TestDerivedViewMemo:
    """Derived topology views are computed once per cache entry, shared
    frozen between the answers served from it, and gone with it."""

    ORDERS = ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0])

    def test_host_orders_share_one_simplified_view(self):
        w, dep, hosts = _small_wan(600.0)
        s = dep.session()
        with obs.scoped_registry() as reg:
            answers = [s.topology([hosts[i] for i in order]) for order in self.ORDERS]
            snap = obs.export.snapshot(reg)
        assert all(a.graph is answers[0].graph for a in answers)
        assert _view_hit_miss(snap) == (2, 1)
        assert _hit_miss(snap) == (2, 1)
        # simplify ran for the one fetched graph, not for each query
        assert snap["histograms"]["modeler.simplify.node_reduction"]["count"] == 1

    def test_memoized_answers_match_a_cacheless_twin(self):
        """A hit replays its filling miss, so whatever order the hosts
        come in, the answer carries the bytes a cache-less Modeler on a
        twin world gives when asked that same question first."""
        w, dep, hosts = _small_wan(600.0)
        s = dep.session()
        for detail in ("simplified", "summary"):
            for order in self.ORDERS:
                query = [hosts[i] for i in order]
                twin = _small_wan(0.0)[1].session()
                assert canonical_json(
                    s.topology(query, detail=detail).to_dict()
                ) == canonical_json(twin.topology(query, detail=detail).to_dict())

    def test_summary_views_do_not_alias_across_orders(self):
        w, dep, hosts = _small_wan(600.0)
        s = dep.session()
        fwd = s.topology(hosts, detail="summary")
        rev = s.topology(hosts[::-1], detail="summary")
        assert rev.graph is not fwd.graph
        assert s.topology(hosts, detail="summary").graph is fwd.graph
        # a summary edge is oriented by request order
        assert {(e.a, e.b) for e in fwd.graph.edges()} == {
            (e.b, e.a) for e in rev.graph.edges()
        }
        assert s.topology(hosts).graph is not fwd.graph

    def test_nothing_memoized_without_ttl(self):
        w, dep, hosts = _small_wan(0.0)
        s = dep.session()
        with obs.scoped_registry() as reg:
            first, second = s.topology(hosts), s.topology(hosts)
            snap = obs.export.snapshot(reg)
        assert first.graph is not second.graph
        assert _view_hit_miss(snap) == (0, 0)
        assert dep.modeler._query_cache == {}

    def test_view_dropped_on_ttl_lapse(self):
        w, dep, hosts = _small_wan(2.0)
        s = dep.session()
        before = s.topology(hosts).graph
        assert s.topology(hosts).graph is before
        w.net.engine.advance(5.0)
        assert s.topology(hosts).graph is not before

    def test_view_dropped_on_version_bump(self):
        w, dep, hosts = _small_wan(600.0)
        s = dep.session()
        before = s.topology(hosts).graph
        (entry,) = dep.modeler._query_cache.values()
        entry.graph.add_node(TopoNode("10.250.0.1", HOST, ("10.250.0.1",)))
        assert s.topology(hosts).graph is not before

    def test_view_dropped_on_scoped_invalidation(self):
        w, dep, hosts = _small_wan(600.0)
        s = dep.session()
        near, far = hosts[:2], hosts[2:]
        near_view, far_view = s.topology(near).graph, s.topology(far).graph
        s.invalidate_cache(sites=["s00"])
        assert s.topology(near).graph is not near_view
        assert s.topology(far).graph is far_view

    def test_view_dropped_on_degraded_refetch(self):
        w, dep, hosts = _small_wan(2.0)
        faults.install(dep, faults.FaultPlan())
        s = dep.session()
        before = s.topology(hosts)
        assert before.ok
        faults.crash_collector(dep.snmp_collectors["s01"], 30.0)
        w.net.engine.advance(5.0)
        degraded = s.topology(hosts)
        assert degraded.status != QueryStatus.OK
        assert degraded.graph is not before.graph
        # the degraded fetch left no entry, so nothing was memoized for it
        assert dep.modeler._query_cache == {}
        assert s.topology(hosts).graph is not degraded.graph

    def test_derived_views_are_frozen_raw_is_private(self):
        w, dep, hosts = _small_wan(600.0)
        s = dep.session()
        node = TopoNode("10.250.0.1", HOST, ("10.250.0.1",))
        for detail in ("simplified", "summary"):
            view = s.topology(hosts, detail=detail).graph
            assert view.frozen
            with pytest.raises(TopologyError, match="frozen"):
                view.add_node(node)
            with pytest.raises(TopologyError, match="frozen"):
                view.add_edge(TopoEdge(hosts[0], hosts[1]))
            with pytest.raises(TopologyError, match="frozen"):
                view.remove_node(hosts[0])
            with pytest.raises(TopologyError, match="frozen"):
                view.merge(TopologyGraph())
            with pytest.raises(TopologyError, match="frozen"):
                dep.modeler._credit_own_flows(view, [(hosts[0], hosts[1], 1e6)])
            assert view.to_dict() is view.to_dict()
            mine = view.copy()
            assert not mine.frozen
            mine.add_node(node)
            assert mine.has_node(node.id) and not view.has_node(node.id)
        raw = s.topology(hosts, detail="raw").graph
        raw.add_node(node)
        assert not s.topology(hosts, detail="raw").graph.has_node(node.id)
        assert raw.to_dict() is not raw.to_dict()


class TestScopedFetchKeys:
    """The cache keys on what a fetch measured as well as on its hosts:
    an entry holding every WAN edge may serve a query that reads a few
    of them, never the other way round."""

    @staticmethod
    def _star(hosts):
        return [(hosts[0], h) for h in hosts[1:]]

    @staticmethod
    def _probes(dep):
        return sum(b.probes_run for b in dep.benchmarks.values())

    @staticmethod
    def _wan_edges(graph):
        return sum(1 for e in graph.edges() if e.a.endswith("-gw") and e.b.endswith("-gw"))

    def test_topology_after_scoped_flows_has_every_wan_edge(self):
        _, dep, hosts = _small_wan(ttl_s=30.0)
        s = dep.session()
        s.flow_info_many(self._star(hosts))
        assert self._probes(dep) == 2 * 3
        with obs.scoped_registry() as reg:
            top = s.topology(hosts, detail="raw")
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (0, 1)
        assert self._wan_edges(top.graph) == 6
        assert self._probes(dep) == 2 * 6

    def test_scoped_query_after_full_mesh_is_a_hit_without_probes(self):
        w, dep, hosts = _small_wan(ttl_s=30.0)
        s = dep.session()
        s.topology(hosts)
        probes = self._probes(dep)
        t0 = w.net.now
        with obs.scoped_registry() as reg:
            answers = s.flow_info_many(self._star(hosts))
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (1, 0)
        assert self._probes(dep) == probes
        assert w.net.now - t0 == pytest.approx(RPC_LOCAL_S)
        assert all(a.ok and a.available_bps > 0 for a in answers)

    def test_single_pair_and_all_pairs_use_the_unscoped_key(self):
        _, dep, hosts = _small_wan(ttl_s=30.0)
        s = dep.session()
        s.flow_info(hosts[0], hosts[1])
        s.flow_info_many(list(itertools.combinations(hosts, 2)))
        assert set(dep.modeler._query_cache) == {
            ((hosts[0], hosts[1]), True),
            (tuple(sorted(hosts)), True),
        }
        # ... so a topology over the same hosts is served by that entry
        with obs.scoped_registry() as reg:
            s.topology(hosts)
            assert _hit_miss(obs.export.snapshot(reg)) == (1, 0)

    def test_scoped_entries_replay_and_are_evicted_by_site(self):
        _, dep, hosts = _small_wan(ttl_s=30.0)
        s = dep.session()
        first = s.flow_info_many(self._star(hosts))
        (key,) = dep.modeler._query_cache
        assert len(key) == 3  # hosts, dynamics, scope
        with obs.scoped_registry() as reg:
            again = s.flow_info_many(self._star(hosts))
            assert _hit_miss(obs.export.snapshot(reg)) == (1, 0)
        assert [a.available_bps for a in again] == [a.available_bps for a in first]
        dep.modeler.invalidate_cache(sites=["s03"])
        assert not dep.modeler._query_cache


class TestBoundedQueryCache:
    def test_lru_cap_and_a_hit_entry_is_recent(self, lan_dep, monkeypatch):
        from repro.modeler import api as api_mod

        monkeypatch.setattr(api_mod, "QUERY_CACHE_MAX_ENTRIES", 3)
        lan, dep = lan_dep
        dep.modeler.query_cache_ttl_s = 3600.0
        s = dep.session()

        def ask(i: int) -> None:
            assert s.flow_info(lan.hosts[0], lan.hosts[i]).ok

        with obs.scoped_registry() as reg:
            for i in range(1, 6):  # five host sets, each its own entry
                ask(i)
            assert len(dep.modeler._query_cache) == 3  # held, oldest first: 3, 4, 5
            ask(3)  # a hit: now the newest
            ask(6)  # evicts 4
            ask(7)  # evicts 5, not the just-hit 3
            ask(3)
            snap = obs.export.snapshot(reg)
        assert _hit_miss(snap) == (2, 7)
        assert len(dep.modeler._query_cache) == 3
        assert snap["gauges"]["modeler.query_cache_entries"] == 3

    def test_an_expired_entry_is_dropped_where_it_is_found(self):
        _, dep, hosts = _small_wan(ttl_s=5.0)
        s = dep.session()
        star = [(hosts[0], dst) for dst in hosts[1:]]
        s.topology(hosts)  # the unscoped entry over these hosts
        dep.net.engine.advance(6.0)
        with obs.scoped_registry() as reg:
            # a scoped query looks the lapsed unscoped entry up as its
            # second key: it may not serve it, and does not keep it
            s.flow_info_many(star)
            snap = obs.export.snapshot(reg)
        (key,) = dep.modeler._query_cache
        assert len(key) == 3  # hosts, dynamics, scope
        assert snap["gauges"]["modeler.query_cache_entries"] == 1
