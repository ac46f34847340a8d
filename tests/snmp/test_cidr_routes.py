"""Tests for ipCidrRouteTable support and legacy fallback."""

import pytest

from repro import obs
from repro.common.units import MBPS
from repro.collectors.base import TopologyRequest
from repro.collectors.snmp_collector import SnmpCollector, SnmpCollectorConfig
from repro.netsim.address import IPv4Address, IPv4Network
from repro.netsim.builders import build_dumbbell
from repro.snmp import oid as O
from repro.snmp.agent import instrument_network
from repro.snmp.client import SnmpClient


def _collector(d, world):
    config = SnmpCollectorConfig(
        domains=[IPv4Network("10.0.0.0/8"), IPv4Network("192.168.0.0/16")],
        gateways=[
            (IPv4Network("10.1.0.0/24"), IPv4Address("10.1.0.1")),
            (IPv4Network("10.2.0.0/24"), IPv4Address("10.2.0.1")),
        ],
    )
    return SnmpCollector("snmp", d.net, world, d.h1.ip, config)


class TestCidrMib:
    def test_cidr_rows_present_by_default(self):
        d = build_dumbbell()
        world = instrument_network(d.net)
        client = SnmpClient(world, d.h1.ip)
        rows = client.table_column("10.1.0.1", O.IP_CIDR_ROUTE_IF_INDEX)
        assert len(rows) == 3  # two direct + one via r2
        # index carries dest + mask + tos + next hop = 13 sub-ids
        assert all(len(s) == 13 for s in rows)

    def test_cidr_disabled_removes_rows(self):
        d = build_dumbbell()
        d.r1.supports_cidr_mib = False
        world = instrument_network(d.net)
        client = SnmpClient(world, d.h1.ip)
        assert client.table_column("10.1.0.1", O.IP_CIDR_ROUTE_IF_INDEX) == {}
        # legacy table still there
        assert len(client.table_column("10.1.0.1", O.IP_ROUTE_NEXT_HOP)) == 3


class TestCollectorPreference:
    def test_discovery_works_via_cidr(self):
        d = build_dumbbell()
        world = instrument_network(d.net)
        coll = _collector(d, world)
        resp = coll.topology(TopologyRequest.of(["10.1.0.10", "10.2.0.10"]))
        assert not resp.unresolved
        assert resp.graph.has_edge("r1", "r2")

    def test_discovery_falls_back_to_legacy(self):
        d = build_dumbbell()
        d.r1.supports_cidr_mib = False
        d.r2.supports_cidr_mib = False
        world = instrument_network(d.net)
        coll = _collector(d, world)
        resp = coll.topology(TopologyRequest.of(["10.1.0.10", "10.2.0.10"]))
        assert not resp.unresolved
        assert resp.graph.has_edge("r1", "r2")

    def test_same_entries_either_way(self):
        d1 = build_dumbbell()
        w1 = instrument_network(d1.net)
        c1 = _collector(d1, w1)
        cidr = {(str(e.prefix), str(e.next_hop), e.ifindex)
                for e in c1.discovery.route_table("10.1.0.1")}

        d2 = build_dumbbell()
        d2.r1.supports_cidr_mib = False
        w2 = instrument_network(d2.net)
        c2 = _collector(d2, w2)
        legacy = {(str(e.prefix), str(e.next_hop), e.ifindex)
                  for e in c2.discovery.route_table("10.1.0.1")}
        # direct routes differ in next-hop representation (own address
        # vs None is normalised to None in both); compare prefixes/ifaces
        assert {(p, i) for p, _, i in cidr} == {(p, i) for p, _, i in legacy}


class TestOverlappingPrefixes:
    def test_cidr_preserves_same_base_prefixes(self):
        """Two routes whose prefixes share a network address: only the
        CIDR table can expose both; the legacy table loses one."""
        from repro.netsim.topology import Network

        net = Network()
        h1 = net.add_host("h1")
        r1 = net.add_router("r1")
        r2 = net.add_router("r2")
        far = net.add_host("far")
        near = net.add_host("near")
        l1 = net.link(h1, r1, 100 * MBPS)
        l2 = net.link(r1, r2, 100 * MBPS)
        l3 = net.link(r2, far, 100 * MBPS)
        l4 = net.link(r2, near, 100 * MBPS)
        net.assign_ip(l1.a, "172.16.0.10", "172.16.0.0/24")
        net.assign_ip(l1.b, "172.16.0.1", "172.16.0.0/24")
        net.assign_ip(l2.a, "192.168.0.1", "192.168.0.0/30")
        net.assign_ip(l2.b, "192.168.0.2", "192.168.0.0/30")
        # overlapping prefixes with the same base: 10.0.0.0/8 and /16
        net.assign_ip(l3.a, "10.0.255.1", "10.0.0.0/8")
        net.assign_ip(l3.b, "10.0.255.10", "10.0.0.0/8")
        net.assign_ip(l4.a, "10.0.0.1", "10.0.0.0/16")
        net.assign_ip(l4.b, "10.0.0.10", "10.0.0.0/16")
        net.freeze()
        world = instrument_network(net)
        client = SnmpClient(world, h1.ip)
        # r1's CIDR table holds both 10/8 and 10.0/16 routes
        rows = client.table_column("172.16.0.1", O.IP_CIDR_ROUTE_IF_INDEX)
        prefixes = set()
        for suffix in rows:
            dest = ".".join(str(x) for x in suffix[0:4])
            masklen = bin(IPv4Address(
                ".".join(str(x) for x in suffix[4:8])).value).count("1")
            prefixes.add(f"{dest}/{masklen}")
        assert "10.0.0.0/8" in prefixes
        assert "10.0.0.0/16" in prefixes
        # the legacy table, indexed by dest alone, collapsed them
        legacy = client.table_column("172.16.0.1", O.IP_ROUTE_NEXT_HOP)
        dests = [s for s in legacy]
        assert len([s for s in dests if s == (10, 0, 0, 0)]) == 1


class TestDuplicatedPrefix:
    def test_direct_and_indirect_row_for_one_prefix(self):
        """The CIDR index carries the next hop, so one prefix can hold a
        direct and an indirect row.  Forwarding takes the first row
        walked; the interface on the subnet is the first *direct* row —
        two questions of one table, each with its own tie-break."""
        d = build_dumbbell()
        world = instrument_network(d.net)
        # an indirect 10.1.0.0/24 via 10.0.0.9, walked before r1's own
        # direct row (next hop 10.1.0.1) because its index sorts lower
        index = (10, 1, 0, 0, 255, 255, 255, 0, 0, 10, 0, 0, 9)
        mib = world.agent_for("r1").mib
        mib.put(O.IP_CIDR_ROUTE_IF_INDEX + index, 2)
        mib.put(O.IP_CIDR_ROUTE_TYPE + index, O.CIDR_TYPE_REMOTE)
        coll = _collector(d, world)
        rows = [(str(e.prefix), e.next_hop, e.ifindex) for e in coll.discovery.route_table("10.1.0.1")]
        assert rows[:2] == [
            ("10.1.0.0/24", IPv4Address("10.0.0.9"), 2),
            ("10.1.0.0/24", None, 1),
        ]
        assert len(rows) == 4  # every row kept, in walk order
        won = coll.discovery.lpm("10.1.0.1", IPv4Address("10.1.0.10"))
        assert (won.next_hop, won.ifindex) == (IPv4Address("10.0.0.9"), 2)
        assert coll.discovery.iface_on_subnet("10.1.0.1", IPv4Network("10.1.0.0/24")) == 1


#: a row no agent should serve, by what is wrong with its index (or, in
#: the legacy table, its mask): (dest octets, mask octets)
MALFORMED = {
    "octet over 255": ((10, 300, 0, 0), (255, 255, 0, 0)),
    "host bits under the mask": ((10, 9, 1, 7), (255, 255, 0, 0)),
    # read as a /16 by a popcount: 10.7.0.0/16, a route nobody announced
    "non-contiguous mask": ((10, 7, 0, 0), (255, 0, 255, 0)),
}


class TestMalformedRouteRows:
    """One bad row on a buggy agent is skipped and counted; the rest of
    the table still routes (it used to fail the whole site's answer)."""

    def _check(self, d, world, table, n_bad=1):
        with obs.scoped_registry() as reg:
            coll = _collector(d, world)
            resp = coll.topology(TopologyRequest.of(["10.1.0.10", "10.2.0.10"]))
            entries = coll.discovery.route_table("10.1.0.1")
        assert not resp.unresolved
        assert resp.graph.has_edge("r1", "r2")
        # two direct + one via r2, and nothing made of the bad row
        assert sorted(str(e.prefix) for e in entries) == [
            "10.1.0.0/24", "10.2.0.0/24", "192.168.0.0/30",
        ]
        assert reg.counter("collectors.snmp.malformed_rows", table=table).value == n_bad

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cidr_row_skipped(self, case):
        dest, mask = MALFORMED[case]
        d = build_dumbbell()
        world = instrument_network(d.net)
        index = dest + mask + (0,) + (192, 168, 0, 2)
        mib = world.agent_for("r1").mib
        mib.put(O.IP_CIDR_ROUTE_IF_INDEX + index, 2)
        mib.put(O.IP_CIDR_ROUTE_TYPE + index, O.CIDR_TYPE_REMOTE)
        self._check(d, world, "cidr")

    def test_cidr_wrong_length_counted_too(self):
        d = build_dumbbell()
        world = instrument_network(d.net)
        world.agent_for("r1").mib.put(O.IP_CIDR_ROUTE_IF_INDEX + (10, 9, 0, 0, 255, 255), 2)
        self._check(d, world, "cidr")

    def _legacy_row(self, dest, mask):
        d = build_dumbbell()
        d.r1.supports_cidr_mib = False
        world = instrument_network(d.net)
        mib = world.agent_for("r1").mib
        mib.put(O.IP_ROUTE_NEXT_HOP + dest, "192.168.0.2")
        mib.put(O.IP_ROUTE_MASK + dest, ".".join(str(b) for b in mask))
        mib.put(O.IP_ROUTE_IF_INDEX + dest, 2)
        mib.put(O.IP_ROUTE_TYPE + dest, O.ROUTE_TYPE_INDIRECT)
        return d, world

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_legacy_row_skipped(self, case):
        d, world = self._legacy_row(*MALFORMED[case])
        self._check(d, world, "legacy")

    def test_legacy_index_not_four_long(self):
        d, world = self._legacy_row((10, 9, 0), (255, 255, 0, 0))
        self._check(d, world, "legacy")
