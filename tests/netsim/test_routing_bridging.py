"""Tests for routing tables, spanning trees, FDBs, and path computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import TopologyError
from repro.common.units import MBPS
from repro.netsim.address import IPv4Address
from repro.netsim.bridging import SELF_PORT, discover_segments, l2_path, segment_of
from repro.netsim.builders import (
    SiteSpec,
    build_dumbbell,
    build_hub_lan,
    build_multisite_wan,
    build_switched_lan,
)
from repro.netsim.paths import compute_path, path_capacity, path_latency
from repro.netsim.topology import Network


class TestRouting:
    def test_dumbbell_routes(self):
        d = build_dumbbell()
        # r1 must know a route to h2's subnet via r2
        entry = d.r1.lookup_route(IPv4Address("10.2.0.10"))
        assert entry is not None
        prefix, next_ip, out = entry
        assert str(prefix) == "10.2.0.0/24"
        assert str(next_ip) == "192.168.0.2"

    def test_direct_route_preferred(self):
        d = build_dumbbell()
        entry = d.r1.lookup_route(IPv4Address("10.1.0.10"))
        assert entry is not None and entry[1] is None  # direct

    def test_gateway_auto_assignment(self):
        d = build_dumbbell()
        assert str(d.h1.gateway_ip) == "10.1.0.1"
        assert str(d.h2.gateway_ip) == "10.2.0.1"

    def test_longest_prefix_match_wins(self):
        net = Network()
        h = net.add_host("h")
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        dst = net.add_host("dst")
        l1 = net.link(h, r1, 10 * MBPS)
        l2 = net.link(r1, r2, 10 * MBPS)
        l3 = net.link(r2, dst, 10 * MBPS)
        net.assign_ip(l1.a, "10.0.0.10", "10.0.0.0/24")
        net.assign_ip(l1.b, "10.0.0.1", "10.0.0.0/24")
        net.assign_ip(l2.a, "192.168.0.1", "192.168.0.0/30")
        net.assign_ip(l2.b, "192.168.0.2", "192.168.0.0/30")
        net.assign_ip(l3.a, "10.1.0.1", "10.1.0.0/24")
        net.assign_ip(l3.b, "10.1.0.10", "10.1.0.0/24")
        net.freeze()
        p = compute_path(net, h, dst)
        assert len(p) == 3

    def test_wan_transit_routing(self):
        w = build_multisite_wan(
            [SiteSpec("a", access_bps=10 * MBPS), SiteSpec("b", access_bps=5 * MBPS)]
        )
        p = compute_path(w.net, w.host("a"), w.host("b"))
        names = [c.src.device.name for c in p]
        assert "core" in names
        assert path_capacity(p) == 5 * MBPS


class TestBridging:
    def test_segment_discovery_counts(self):
        d = build_dumbbell()
        segs = discover_segments(d.net)
        # three segments: h1-r1, r1-r2, r2-h2
        assert len(segs) == 3

    def test_lan_single_segment(self):
        lan = build_switched_lan(20, fanout=4)
        segs = discover_segments(lan.net)
        big = max(segs, key=lambda s: len(s.links))
        assert len(big.switches) == len(lan.switches)
        # all hosts + router iface attach to the big segment
        assert len(big.edge_ifaces) == 20 + 1

    def test_fdb_has_entry_per_station(self):
        lan = build_switched_lan(12, fanout=4)
        stations = 12 + 1 + len(lan.switches)  # hosts + router + switch mgmt MACs
        for sw in lan.switches:
            assert len(sw.fdb) == stations

    def test_fdb_self_entry(self):
        lan = build_switched_lan(4, fanout=4)
        sw = lan.switches[0]
        assert sw.fdb[sw.management_mac()] == SELF_PORT

    def test_fdb_consistent_direction(self):
        """The FDB port for a host's MAC must be the first hop of the
        tree path toward that host."""
        lan = build_switched_lan(16, fanout=4)
        h = lan.hosts[0]
        mac = h.interfaces[0].mac
        for sw in lan.switches:
            port = sw.fdb[mac]
            iface = sw.iface(port)
            # Walking the l2 path from sw's port should reach the host.
            path = l2_path(lan.net, sw.interfaces[0], h.interfaces[0])
            # not empty and first channel leaves sw through some port
            assert path, "switch must reach host in its segment"

    def test_l2_path_same_switch(self):
        lan = build_switched_lan(8, fanout=8)  # all hosts on one switch
        p = l2_path(lan.net, lan.hosts[0].interfaces[0], lan.hosts[1].interfaces[0])
        assert len(p) == 2  # host->switch, switch->host

    def test_l2_path_cross_segment_raises(self):
        d = build_dumbbell()
        with pytest.raises(TopologyError):
            l2_path(d.net, d.h1.interfaces[0], d.h2.interfaces[0])

    def test_attachment_index_agrees_with_a_scan(self):
        w = build_multisite_wan(
            [SiteSpec(n, access_bps=10 * MBPS, n_hosts=2) for n in "ab"]
        )
        segments = discover_segments(w.net)
        for node in w.net.nodes.values():
            for iface in node.interfaces:
                if iface.link is None:
                    continue
                (scan,) = [
                    s for s in segments
                    if any(iface in (ln.a, ln.b) for ln in s.links)
                ]
                assert segment_of(w.net, iface).id == scan.id

    def test_segment_of_unattached_interface_raises(self):
        net = Network()
        h = net.add_host("h")
        h.add_interface()
        net.freeze()
        with pytest.raises(TopologyError):
            segment_of(net, h.interfaces[0])

    def test_segment_of(self):
        lan = build_switched_lan(4)
        seg = segment_of(lan.net, lan.hosts[0].interfaces[0])
        assert lan.hosts[0].interfaces[0] in seg.edge_ifaces

    def test_redundant_switch_link_blocked(self):
        net = Network()
        s1 = net.add_switch("s1")
        s2 = net.add_switch("s2")
        s3 = net.add_switch("s3")
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        net.link(s1, s2, 100 * MBPS)
        net.link(s2, s3, 100 * MBPS)
        net.link(s3, s1, 100 * MBPS)  # loop!
        la = net.link(h1, s1, 100 * MBPS)
        lb = net.link(h2, s3, 100 * MBPS)
        net.assign_ip(la.a, "10.0.0.1", "10.0.0.0/24")
        net.assign_ip(lb.a, "10.0.0.2", "10.0.0.0/24")
        net.freeze()
        blocked = sum(len(sw.blocked_ports) for sw in (s1, s2, s3))
        assert blocked == 2  # one link blocked = 2 ports
        # connectivity preserved
        p = compute_path(net, h1, h2)
        assert p, "hosts must still reach each other"

    def test_pure_hub_loop_is_error(self):
        net = Network()
        h1 = net.add_host("h1")
        hub1 = net.add_hub("hub1")
        hub2 = net.add_hub("hub2")
        net.link(hub1, hub2, 1 * MBPS)
        net.link(hub1, hub2, 1 * MBPS)  # parallel hub-hub link: unbreakable loop
        net.link(h1, hub1, 1 * MBPS)
        with pytest.raises(TopologyError):
            net.freeze()

    def test_dual_homed_host_is_not_a_loop(self):
        """A host with two NICs on one hub does not forward between
        them, so it must not trip loop detection."""
        net = Network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        hub = net.add_hub("hub")
        net.link(h1, hub, 1 * MBPS)
        net.link(h1, hub, 1 * MBPS)
        net.link(h2, hub, 1 * MBPS)
        net.freeze()  # must not raise


class TestPaths:
    def test_same_host_empty_path(self):
        d = build_dumbbell()
        assert compute_path(d.net, d.h1, d.h1) == []

    def test_path_by_name(self):
        d = build_dumbbell()
        p = compute_path(d.net, "h1", "h2")
        assert len(p) == 3

    def test_path_through_lan_switches(self):
        lan = build_switched_lan(32, fanout=4)
        p = compute_path(lan.net, lan.hosts[0], lan.hosts[31])
        # both directions traverse same number of channels
        p_rev = compute_path(lan.net, lan.hosts[31], lan.hosts[0])
        assert len(p) == len(p_rev)

    def test_hub_lan_paths(self):
        hl = build_hub_lan()
        p = compute_path(hl.net, hl.hosts[0], hl.hosts[1])  # both on hub
        assert len(p) == 2
        p2 = compute_path(hl.net, hl.hosts[0], hl.hosts[-1])  # hub to switch host
        assert len(p2) == 3

    def test_path_latency_sums(self):
        d = build_dumbbell()
        p = compute_path(d.net, d.h1, d.h2)
        assert path_latency(p) == pytest.approx(3 * 0.0005)

    def test_memo_hits_return_fresh_equal_lists(self):
        w = build_multisite_wan(
            [SiteSpec(n, access_bps=10 * MBPS, n_hosts=2) for n in "abc"]
        )
        a, b = w.host("a", 0), w.host("b", 0)
        with obs.scoped_registry() as reg:
            first = compute_path(w.net, a, b)
            again = compute_path(w.net, a.name, b.name)  # names share the entry
            back = compute_path(w.net, b, a)
            snap = obs.export.snapshot(reg)
        assert first == again and first is not again
        assert [c.src.device for c in back] == [c.dst.device for c in reversed(first)]
        assert snap["counters"]["netsim.paths.cache{result=miss}"] == 2
        assert snap["counters"]["netsim.paths.cache{result=hit}"] == 1
        # a flow's path is the caller's own list, not the memo
        f = w.net.flows.start_flow(a, b)
        f.path.append(None)
        assert compute_path(w.net, a, b) == first

    def test_memo_matches_fresh_walk_everywhere(self, check_path_memo):
        lan = build_switched_lan(12, fanout=3)
        assert check_path_memo(lan.net) == 0
        w = build_multisite_wan(
            [SiteSpec(n, access_bps=10 * MBPS, n_hosts=2) for n in "abc"]
        )
        assert check_path_memo(w.net) == 0
        assert len(w.net._path_memo) == 6 * 5

    def test_freeze_drops_the_memo(self):
        d = build_dumbbell()
        compute_path(d.net, d.h1, d.h2)
        assert d.net._path_memo
        d.net.freeze()
        assert not d.net._path_memo

    def test_unreachable_pair_is_never_cached(self):
        net = Network()
        h1, h2 = net.add_host("h1"), net.add_host("h2")
        r1, r2 = net.add_router("r1"), net.add_router("r2")
        la, lb = net.link(h1, r1, 10 * MBPS), net.link(h2, r2, 10 * MBPS)
        net.assign_ip(la.a, "10.0.0.2", "10.0.0.0/24")
        net.assign_ip(la.b, "10.0.0.1", "10.0.0.0/24")
        net.assign_ip(lb.a, "10.1.0.2", "10.1.0.0/24")
        net.assign_ip(lb.b, "10.1.0.1", "10.1.0.0/24")
        net.freeze()
        for _ in range(2):
            with pytest.raises(TopologyError):
                compute_path(net, h1, h2)
        assert not net._path_memo

    @given(st.integers(0, 39), st.integers(0, 39))
    @settings(max_examples=30, deadline=None)
    def test_lan_paths_symmetric_and_loop_free(self, i, j):
        lan = _LAN_CACHE[0]
        if i == j:
            return
        p = compute_path(lan.net, lan.hosts[i], lan.hosts[j])
        devices = [c.src.device.name for c in p]
        assert len(devices) == len(set(devices)), "no device repeats"
        assert p[0].src.device is lan.hosts[i]
        assert p[-1].dst.device is lan.hosts[j]


_LAN_CACHE = [build_switched_lan(40, fanout=4)]
