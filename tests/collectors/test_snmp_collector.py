"""Tests for the SNMP Collector: discovery, caching, monitoring."""

import math

import pytest

from repro.common.errors import UnknownHostError
from repro.common.units import MBPS
from repro.netsim.builders import build_dumbbell, build_switched_lan
from repro.netsim.address import IPv4Address, IPv4Network
from repro.snmp.agent import instrument_network
from repro.collectors.base import TopologyRequest
from repro.collectors.bridge_collector import BridgeCollector
from repro.collectors.directory import CollectorDirectory
from repro.collectors.snmp_collector import SnmpCollector, SnmpCollectorConfig
from repro.modeler.graph import HOST, ROUTER, SWITCH, VSWITCH


def _dumbbell_collector():
    d = build_dumbbell()
    world = instrument_network(d.net)
    config = SnmpCollectorConfig(
        domains=[IPv4Network("10.0.0.0/8"), IPv4Network("192.168.0.0/16")],
        gateways=[
            (IPv4Network("10.1.0.0/24"), IPv4Address("10.1.0.1")),
            (IPv4Network("10.2.0.0/24"), IPv4Address("10.2.0.1")),
        ],
    )
    coll = SnmpCollector("snmp", d.net, world, d.h1.ip, config)
    return d, coll


def _lan_collector(n_hosts=16, fanout=4, with_bridge=True):
    lan = build_switched_lan(n_hosts, fanout=fanout)
    world = instrument_network(lan.net)
    gw_ip = next(i.ip for i in lan.router.interfaces if i.ip is not None)
    bridges = {}
    if with_bridge:
        bc = BridgeCollector(
            "bc", lan.net, world, lan.hosts[0].ip,
            {sw.name: sw.management_ip for sw in lan.switches},
        )
        bc.startup()
        bridges[IPv4Network(lan.subnet)] = bc
    config = SnmpCollectorConfig(
        domains=[IPv4Network(lan.subnet)],
        gateways=[(IPv4Network(lan.subnet), gw_ip)],
    )
    coll = SnmpCollector("snmp", lan.net, world, lan.hosts[0].ip, config, bridges)
    return lan, coll


class TestRoutedDiscovery:
    def test_cross_router_path(self):
        d, coll = _dumbbell_collector()
        resp = coll.topology(TopologyRequest.of(["10.1.0.10", "10.2.0.10"]))
        ids = {n.id: n.kind for n in resp.graph.nodes()}
        assert ids["10.1.0.10"] == HOST
        assert ids["10.2.0.10"] == HOST
        assert ids["r1"] == ROUTER
        assert ids["r2"] == ROUTER
        assert not resp.unresolved
        # The /24 access subnets have no bridge collector, so each is a
        # virtual switch; the routed middle link is a direct edge.
        path = resp.graph.path("10.1.0.10", "10.2.0.10")
        assert path == [
            "10.1.0.10", "vsw:10.1.0.0/24", "r1", "r2",
            "vsw:10.2.0.0/24", "10.2.0.10",
        ]

    def test_capacities_from_ifspeed(self):
        d, coll = _dumbbell_collector()
        resp = coll.topology(TopologyRequest.of(["10.1.0.10", "10.2.0.10"]))
        e = resp.graph.edge("r1", "r2")
        assert e.capacity_bps == 100 * MBPS

    def test_utilization_visible(self):
        d, coll = _dumbbell_collector()
        d.net.flows.start_flow(d.h1, d.h2, demand_bps=20 * MBPS)
        d.net.engine.run_until(5.0)
        resp = coll.topology(TopologyRequest.of(["10.1.0.10", "10.2.0.10"]))
        e = resp.graph.edge("r1", "r2")
        assert e.util_from("r1") == pytest.approx(20 * MBPS, rel=0.02)
        assert e.util_from("r2") == pytest.approx(0.0, abs=1e-3)

    def test_unknown_host_unresolved(self):
        d, coll = _dumbbell_collector()
        resp = coll.topology(TopologyRequest.of(["10.1.0.10", "10.99.0.1"]))
        assert "10.99.0.1" in resp.unresolved

    def test_single_host_query(self):
        d, coll = _dumbbell_collector()
        resp = coll.topology(TopologyRequest.of(["10.1.0.10"]))
        assert resp.graph.has_node("10.1.0.10")

    def test_covers(self):
        """Responsibility is the directory's table over the collector's
        configured domains, not a method of the collector."""
        d, coll = _dumbbell_collector()
        directory = CollectorDirectory()
        directory.register(coll, coll.config.domains, "dumbbell")
        assert directory.lookup(IPv4Address("10.1.0.10")).collector is coll
        with pytest.raises(UnknownHostError):
            directory.lookup(IPv4Address("172.16.0.1"))

    def test_unreachable_router_becomes_vswitch(self):
        d = build_dumbbell()
        d.r2.snmp_reachable = False
        world = instrument_network(d.net)
        config = SnmpCollectorConfig(
            domains=[IPv4Network("10.0.0.0/8"), IPv4Network("192.168.0.0/16")],
            gateways=[
                (IPv4Network("10.1.0.0/24"), IPv4Address("10.1.0.1")),
                (IPv4Network("10.2.0.0/24"), IPv4Address("10.2.0.1")),
            ],
        )
        coll = SnmpCollector("snmp", d.net, world, d.h1.ip, config)
        resp = coll.topology(TopologyRequest.of(["10.1.0.10", "10.2.0.10"]))
        kinds = {n.id: n.kind for n in resp.graph.nodes()}
        assert VSWITCH in kinds.values()
        # still connected end to end through the virtual switch
        path = resp.graph.path("10.1.0.10", "10.2.0.10")
        assert path[0] == "10.1.0.10" and path[-1] == "10.2.0.10"

    def test_anchor_query(self):
        d, coll = _dumbbell_collector()
        resp = coll.topology(
            TopologyRequest.of(["10.1.0.10"], anchor_ip="10.1.0.1")
        )
        assert resp.anchors == {"10.1.0.1": "r1"}
        assert resp.graph.has_node("r1")
        path = resp.graph.path("10.1.0.10", "r1")
        assert path[0] == "10.1.0.10" and path[-1] == "r1"


    @pytest.mark.parametrize(
        "anchor, last_hop_is_direct",
        [
            # r3's far side: r2 forwards to r3 by an indirect route, and
            # the walk ends because that next hop *is* the target
            ("10.3.0.1", False),
            # r3's near side, on the r2-r3 transit: r2's route is direct,
            # which for a router target is one more L3 hop, not an L2 leg
            ("192.168.1.2", True),
        ],
    )
    def test_anchor_two_routers_past_the_gateway(self, anchor, last_hop_is_direct):
        from repro.netsim.topology import Network

        net = Network()
        h1, h3 = net.add_host("h1"), net.add_host("h3")
        r1, r2, r3 = (net.add_router(n) for n in ("r1", "r2", "r3"))
        legs = [
            (net.link(h1, r1, 100 * MBPS), "10.1.0.10", "10.1.0.1", "10.1.0.0/24"),
            (net.link(r1, r2, 45 * MBPS), "192.168.0.1", "192.168.0.2", "192.168.0.0/30"),
            (net.link(r2, r3, 10 * MBPS), "192.168.1.1", "192.168.1.2", "192.168.1.0/30"),
            (net.link(r3, h3, 100 * MBPS), "10.3.0.1", "10.3.0.10", "10.3.0.0/24"),
        ]
        for link, a_ip, b_ip, subnet in legs:
            net.assign_ip(link.a, a_ip, subnet)
            net.assign_ip(link.b, b_ip, subnet)
        net.freeze()
        config = SnmpCollectorConfig(
            domains=[IPv4Network("10.0.0.0/8"), IPv4Network("192.168.0.0/16")],
            gateways=[(IPv4Network("10.1.0.0/24"), IPv4Address("10.1.0.1"))],
        )
        coll = SnmpCollector("snmp", net, instrument_network(net), h1.ip, config)
        resp = coll.topology(TopologyRequest.of(["10.1.0.10"], anchor_ip=anchor))
        assert resp.anchors == {anchor: "r3"} and not resp.unresolved
        # (the source subnet has no bridge collector: one virtual switch)
        assert resp.graph.path("10.1.0.10", "r3") == [
            "10.1.0.10", "vsw:10.1.0.0/24", "r1", "r2", "r3",
        ]
        # each L3 hop is polled on the near router's egress interface
        assert resp.graph.edge("r1", "r2").capacity_bps == 45 * MBPS
        assert resp.graph.edge("r2", "r3").capacity_bps == 10 * MBPS
        last = coll.discovery.lpm("192.168.0.2", IPv4Address(anchor))
        assert (last.next_hop is None) == last_hop_is_direct
        assert len(list(resp.graph.nodes())) == 5


class TestGatewayRecovery:
    def test_a_timed_out_route_walk_is_not_held_against_the_router(self):
        """The gateway answers its sysName GET and dies before its
        route table is walked: that query fails.  Once the agent is
        back the next one is OK — and so is one after flush_caches()
        and one after a collector crash and restart (the walk used to
        put the router on a list nothing ever took it off, which failed
        the site for the life of the process and was saved with it)."""
        from repro import faults
        from repro.common.status import QueryStatus

        d, coll = _dumbbell_collector()
        agent = coll.world.agent_at("10.1.0.1")
        real_get = agent.get

        def get_then_die(oid):
            value = real_get(oid)
            agent.reachable = False
            return value

        agent.get = get_then_die
        request = TopologyRequest.of(["10.1.0.10", "10.2.0.10"])
        assert coll.topology(request).status is QueryStatus.FAILED
        assert coll.client.timeout_count > 0

        agent.get, agent.reachable = real_get, True
        resp = coll.topology(request)
        assert resp.status is QueryStatus.OK and resp.graph.has_edge("r1", "r2")
        coll.flush_caches()
        assert coll.topology(request).status is QueryStatus.OK
        faults.crash_collector(coll, down_s=5.0)
        d.net.engine.run_until(d.net.now + 6.0)
        assert coll.topology(request).status is QueryStatus.OK


class TestLanDiscovery:
    def test_l2_path_through_switches(self):
        lan, coll = _lan_collector(16, fanout=4)
        h0, h15 = str(lan.hosts[0].ip), str(lan.hosts[15].ip)
        resp = coll.topology(TopologyRequest.of([h0, h15]))
        kinds = {n.kind for n in resp.graph.nodes()}
        assert SWITCH in kinds
        path = resp.graph.path(h0, h15)
        assert len(path) >= 4  # at least two switches between the hosts

    def test_no_bridge_collector_gives_vswitch(self):
        lan, coll = _lan_collector(8, fanout=8, with_bridge=False)
        h0, h7 = str(lan.hosts[0].ip), str(lan.hosts[7].ip)
        resp = coll.topology(TopologyRequest.of([h0, h7]))
        kinds = {n.id: n.kind for n in resp.graph.nodes()}
        assert any(k == VSWITCH for k in kinds.values())
        path = resp.graph.path(h0, h7)
        assert len(path) == 3  # host - vswitch - host

    def test_lan_utilization_on_switch_edge(self):
        lan, coll = _lan_collector(8, fanout=8)
        h0, h7 = lan.hosts[0], lan.hosts[7]
        lan.net.flows.start_flow(h0, h7, demand_bps=30 * MBPS)
        lan.net.engine.run_until(5.0)
        resp = coll.topology(TopologyRequest.of([str(h0.ip), str(h7.ip)]))
        e = resp.graph.edge(str(h0.ip), "sw0")
        assert e.util_from(str(h0.ip)) == pytest.approx(30 * MBPS, rel=0.02)


class TestCaching:
    def test_warm_query_cheaper_than_cold(self):
        lan, coll = _lan_collector(32, fanout=4)
        ips = [str(h.ip) for h in lan.hosts[:16]]
        t0 = lan.net.now
        r1 = coll.topology(TopologyRequest.of(ips))
        cold_time = lan.net.now - t0
        cold_pdus = r1.pdu_cost
        t1 = lan.net.now
        r2 = coll.topology(TopologyRequest.of(ips))
        warm_time = lan.net.now - t1
        warm_pdus = r2.pdu_cost
        assert warm_pdus < cold_pdus / 3
        assert warm_time < cold_time / 3

    def test_flush_caches_restores_cold(self):
        lan, coll = _lan_collector(16, fanout=4)
        ips = [str(h.ip) for h in lan.hosts[:8]]
        r1 = coll.topology(TopologyRequest.of(ips))
        coll.flush_caches()
        r2 = coll.topology(TopologyRequest.of(ips))
        assert r2.pdu_cost == pytest.approx(r1.pdu_cost, rel=0.1)

    def test_partial_flush_keeps_fraction(self):
        lan, coll = _lan_collector(16, fanout=4)
        ips = [str(h.ip) for h in lan.hosts[:8]]
        coll.topology(TopologyRequest.of(ips))
        n_paths = len(coll.discovery.state.paths)
        coll.flush_caches(keep_fraction=0.5)
        assert len(coll.discovery.state.paths) == n_paths // 2

    def test_same_graph_cold_and_warm(self):
        lan, coll = _lan_collector(16, fanout=4)
        ips = [str(h.ip) for h in lan.hosts[:6]]
        g1 = coll.topology(TopologyRequest.of(ips)).graph
        g2 = coll.topology(TopologyRequest.of(ips)).graph
        assert sorted(n.id for n in g1.nodes()) == sorted(n.id for n in g2.nodes())
        assert g1.num_edges() == g2.num_edges()


class TestMonitoring:
    def test_periodic_polling_updates_history(self):
        d, coll = _dumbbell_collector()
        coll.topology(TopologyRequest.of(["10.1.0.10", "10.2.0.10"]))
        coll.start_monitoring()
        d.net.flows.start_flow(d.h1, d.h2, demand_bps=10 * MBPS)
        d.net.engine.run_until(30.0)
        coll.stop_monitoring()
        mon = next(iter(coll.monitors.values()))
        assert len(mon.samples) >= 5
        times, rates = mon.rate_history("out")
        assert len(times) == len(rates) >= 4

    def test_static_query_takes_no_samples(self):
        d, coll = _dumbbell_collector()
        t0 = d.net.now
        resp = coll.topology(
            TopologyRequest.of(["10.1.0.10", "10.2.0.10"]).__class__(
                ("10.1.0.10", "10.2.0.10"), include_dynamics=False
            )
        )
        # no cold bootstrap gap was paid
        assert d.net.now - t0 < coll.config.cold_sample_gap_s

    def test_a_vanished_interface_does_not_starve_its_neighbours(self):
        """One ``ifIndex`` leaves an agent's MIB between two sweeps: the
        agent's one multi-varbind GET fails as a whole, and the sweep
        falls back to asking for each of its links alone."""
        from collections import Counter

        from repro.snmp import oid as O

        lan, coll = _lan_collector()
        coll.topology(TopologyRequest.of([str(h.ip) for h in lan.hosts[:8]]))
        agent_ip = Counter(k.agent_ip for k in coll.monitors).most_common(1)[0][0]
        group = sorted((k for k in coll.monitors if k.agent_ip == agent_ip), key=lambda k: k.ifindex)
        assert len(group) >= 3
        gone, neighbours = group[1], [group[0], *group[2:]]
        mib = coll.world.agent_at(agent_ip).mib
        for column in (O.IF_IN_OCTETS, O.IF_OUT_OCTETS):
            mib.remove(column + gone.ifindex)
        before = {k: coll.monitors[k].samples_appended for k in group}
        lan.net.engine.advance(5.0)
        coll.poll_once()
        for k in neighbours:
            assert coll.monitors[k].samples_appended == before[k] + 1
            assert coll.monitors[k].sample_failures == 0
        assert coll.monitors[gone].samples_appended == before[gone]
        assert coll.monitors[gone].sample_failures == 1
