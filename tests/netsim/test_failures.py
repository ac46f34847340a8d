"""Tests for link failure, reconvergence, and repair."""

import pytest

from repro.common.errors import TopologyError
from repro.common.units import MBPS
from repro.netsim.builders import build_dumbbell, build_switched_lan
from repro.netsim.failures import fail_link, repair_link
from repro.netsim.paths import compute_path
from repro.netsim.topology import Network


class TestL2Failover:
    def _triangle(self):
        net = Network()
        s1, s2, s3 = (net.add_switch(f"s{i}") for i in range(1, 4))
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        l12 = net.link(s1, s2, 100 * MBPS)
        l23 = net.link(s2, s3, 100 * MBPS)
        l31 = net.link(s3, s1, 100 * MBPS)
        la = net.link(h1, s1, 100 * MBPS)
        lb = net.link(h2, s2, 100 * MBPS)
        net.assign_ip(la.a, "10.0.0.1", "10.0.0.0/24")
        net.assign_ip(lb.a, "10.0.0.2", "10.0.0.0/24")
        net.freeze()
        return net, h1, h2, l12, l23, l31

    def test_spanning_tree_failover(self):
        net, h1, h2, l12, l23, l31 = self._triangle()
        before = compute_path(net, h1, h2)
        # the inter-switch link the current path uses
        primary = next(
            c.link for c in before
            if c.src.device.kind == "switch" and c.dst.device.kind == "switch"
        )
        fail_link(net, primary)
        after = compute_path(net, h1, h2)
        assert after, "backup path must exist through the blocked link"
        assert primary not in {c.link for c in after}
        # longer path through the third switch
        assert len(after) > len(before)

    def test_flows_torn_and_restartable(self):
        net, h1, h2, l12, l23, l31 = self._triangle()
        f = net.flows.start_flow(h1, h2)
        primary = next(c.link for c in f.path
                       if c.src.device.kind == "switch" and c.dst.device.kind == "switch")
        broken = fail_link(net, primary)
        assert f in broken and not f.active
        f2 = net.flows.start_flow(h1, h2)
        assert f2.rate_bps == pytest.approx(100 * MBPS)

    def test_repair_restores_primary(self):
        net, h1, h2, l12, l23, l31 = self._triangle()
        before = compute_path(net, h1, h2)
        primary = next(c.link for c in before
                       if c.src.device.kind == "switch" and c.dst.device.kind == "switch")
        fail_link(net, primary)
        repair_link(net, primary)
        restored = compute_path(net, h1, h2)
        assert len(restored) == len(before)

    def test_counters_survive_failure(self):
        net, h1, h2, *_ = self._triangle()
        f = net.flows.start_flow(h1, h2, demand_bps=8 * MBPS)
        net.engine.run_until(10.0)
        first_link = f.path[0].link
        ch = f.path[0]
        ch.sync(net.now)
        bytes_before = ch.bytes_total
        assert bytes_before > 0
        fail_link(net, first_link)
        net.engine.run_until(20.0)
        repair_link(net, first_link)
        ch.sync(net.now)
        assert ch.bytes_total == pytest.approx(bytes_before)


class TestL3Failover:
    def test_partition_removes_routes(self):
        d = build_dumbbell()
        middle = next(
            ln for ln in d.net.links
            if ln.a.device.kind == "router" and ln.b.device.kind == "router"
        )
        fail_link(d.net, middle)
        # no route across the partition
        assert d.r1.lookup_route(d.h2.ip) is None
        with pytest.raises(TopologyError):
            compute_path(d.net, d.h1, d.h2)
        repair_link(d.net, middle)
        assert len(compute_path(d.net, d.h1, d.h2)) == 3

    def test_memoized_paths_track_failure_and_repair(self, check_path_memo, random_wan):
        w = random_wan(5, seed=4, hosts_per_site=(2, 2), n_cores=3)
        net = w.net
        assert check_path_memo(net) == 0
        ring = next(
            ln for ln in net.links
            if ln.a.device in w.cores and ln.b.device in w.cores
        )
        access = next(
            ln for ln in net.links
            if (ln.a.device in w.cores) != (ln.b.device in w.cores)
        )
        fail_link(net, ring)
        assert not net._path_memo, "reconvergence drops the memo whole"
        assert check_path_memo(net) == 0  # the ring routes around
        fail_link(net, access)
        cut_off = check_path_memo(net)
        assert cut_off > 0
        repair_link(net, access)
        repair_link(net, ring)
        assert check_path_memo(net) == 0

    def test_fail_link_tears_exactly_the_flows_on_it(self, random_wan):
        w = random_wan(4, seed=2, hosts_per_site=(2, 2))
        net = w.net
        hosts = net.hosts()
        flows = [
            net.flows.start_flow(a, b, demand_bps=1 * MBPS)
            for a in hosts[:4] for b in hosts[4:]
        ]
        victim = flows[0].path[2].link
        crossing = [f for f in flows if set(victim.channels()) & set(f.path)]
        assert 0 < len(crossing) < len(flows)
        assert fail_link(net, victim) == crossing
        assert all(not f.active for f in crossing)
        assert net.flows.active_flows() == [f for f in flows if f not in crossing]

    def test_double_fail_rejected(self):
        d = build_dumbbell()
        ln = d.net.links[0]
        fail_link(d.net, ln)
        with pytest.raises(TopologyError):
            fail_link(d.net, ln)

    def test_repair_idempotent(self):
        d = build_dumbbell()
        ln = d.net.links[0]
        fail_link(d.net, ln)
        repair_link(d.net, ln)
        repair_link(d.net, ln)
        assert d.net.links.count(ln) == 1


class TestCollectorConfusion:
    def test_failure_confuses_then_recovery(self):
        """The §6.2 story for failures: cached answers go stale; after
        agent refresh + cache flush the collector sees the new world."""
        from repro.deploy import deploy_lan
        from repro.collectors.base import TopologyRequest

        lan = build_switched_lan(8, fanout=4)
        dep = deploy_lan(lan)
        coll = dep.snmp_collectors["lan"]
        h0, h7 = lan.hosts[0], lan.hosts[7]
        r1 = coll.topology(TopologyRequest.of([h0.ip, h7.ip]))
        assert r1.graph.path(str(h0.ip), str(h7.ip))
        # the host's access link dies
        access = h0.interfaces[0].link
        fail_link(lan.net, access)
        for sw in lan.switches:
            dep.world.refresh_device(sw)
        dep.world.refresh_device(lan.router)
        # stale cache still "answers" (confusion)
        r2 = coll.topology(TopologyRequest.of([h0.ip, h7.ip]))
        assert r2.graph.path(str(h0.ip), str(h7.ip))
        # after a flush + bridge rescan: the bridge database no longer
        # knows the station (its evidence is gone)...
        coll.flush_caches()
        bridge = dep.bridge_collectors["lan"]
        bridge.startup()
        assert not bridge.knows(h0.interfaces[0].mac)
        # ...so rediscovery degrades: no switch-level path to h0 — the
        # collector can only assume the host sits behind a virtual
        # switch (the SNMP collector cannot prove absence)
        r3 = coll.topology(TopologyRequest.of([h0.ip, h7.ip]))
        if r3.graph.has_node(str(h0.ip)):
            path = r3.graph.path(str(h0.ip), str(h7.ip))
            assert any(p.startswith("vsw:") for p in path)
        else:
            assert str(h0.ip) in r3.unresolved
