"""Tests for MIB stores, device MIBs, agents, and the client."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    AgentUnreachableError,
    AuthorizationError,
    NoSuchObjectError,
)
from repro.common.units import MBPS
from repro.netsim.address import IPv4Network
from repro.netsim.builders import build_dumbbell, build_switched_lan
from repro.snmp import oid as O
from repro.snmp.agent import instrument_network
from repro.snmp.client import SnmpClient, SnmpCostModel
from repro.snmp.mib import MibStore
from repro.snmp.oid import Oid


class TestMibStore:
    def test_get_exact(self):
        s = MibStore()
        s.put(Oid("1.2.3"), 42)
        assert s.get(Oid("1.2.3")) == 42

    def test_get_missing_raises(self):
        with pytest.raises(NoSuchObjectError):
            MibStore().get(Oid("1.2.3"))

    def test_callable_provider_evaluated(self):
        s = MibStore()
        box = [1]
        s.put(Oid("1"), lambda: box[0])
        assert s.get(Oid("1")) == 1
        box[0] = 7
        assert s.get(Oid("1")) == 7

    def test_get_next_order(self):
        s = MibStore()
        s.put(Oid("1.3.6.2"), "b")
        s.put(Oid("1.3.6.1"), "a")
        s.put(Oid("1.3.10"), "c")
        oid, v = s.get_next(Oid("1.3"))
        assert (str(oid), v) == ("1.3.6.1", "a")
        oid, v = s.get_next(oid)
        assert (str(oid), v) == ("1.3.6.2", "b")
        oid, v = s.get_next(oid)
        assert (str(oid), v) == ("1.3.10", "c")
        with pytest.raises(NoSuchObjectError):
            s.get_next(oid)

    def test_replace_does_not_duplicate(self):
        s = MibStore()
        s.put(Oid("1"), 1)
        s.put(Oid("1"), 2)
        assert len(s) == 1
        assert s.get(Oid("1")) == 2

    def test_remove(self):
        s = MibStore()
        s.put(Oid("1"), 1)
        s.remove(Oid("1"))
        assert Oid("1") not in s
        s.remove(Oid("1"))  # idempotent

    @given(st.lists(st.lists(st.integers(0, 20), min_size=1, max_size=4), min_size=1, max_size=30, unique_by=tuple))
    @settings(max_examples=100, deadline=None)
    def test_walk_via_getnext_visits_sorted(self, oid_lists):
        s = MibStore()
        for parts in oid_lists:
            s.put(Oid(parts), tuple(parts))
        seen = []
        cur = Oid("")
        while True:
            try:
                cur, _ = s.get_next(cur)
            except NoSuchObjectError:
                break
            seen.append(cur)
        assert seen == sorted(seen)
        assert len(seen) == len({tuple(p) for p in oid_lists})


@pytest.fixture
def snmp_dumbbell():
    d = build_dumbbell()
    world = instrument_network(d.net)
    client = SnmpClient(world, d.h1.ip)
    return d, world, client


class TestDeviceMibs:
    def test_router_system_group(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        assert client.get("10.1.0.1", O.SYS_NAME) == "r1"
        assert client.get("10.1.0.1", O.IP_FORWARDING) == 1

    def test_router_answers_on_all_addresses(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        assert client.get("192.168.0.1", O.SYS_NAME) == "r1"

    def test_if_speed(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        speeds = client.table_column("10.1.0.1", O.IF_SPEED)
        assert set(speeds.values()) == {int(100 * MBPS)}

    def test_octet_counters_live(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        f = d.net.flows.start_flow(d.h1, d.h2, demand_bps=8 * MBPS)
        d.net.engine.run_until(10.0)
        # r1's interface toward r2 is eth1 (ifIndex 2)
        out1 = client.get("10.1.0.1", O.IF_OUT_OCTETS + 2)
        assert out1 == pytest.approx(8e6 * 10 / 8, rel=0.01)

    def test_whole_byte_transfers_count_whole_octets(self, snmp_dumbbell):
        """The fluid byte count of a 50 000-byte transfer lands an ulp
        either side of 50 000 depending on the instant it ran; the
        counter must not read that as 49 999 (two planes probing at
        different instants would then disagree about the same probe)."""
        d, world, client = snmp_dumbbell
        engine = d.net.engine
        reads = [0]
        for _ in range(40):
            engine.run_until(engine.now + 0.37)
            f = d.net.flows.start_flow(d.h1, d.h2)
            engine.advance(50_000 * 8 / f.rate_bps)
            d.net.flows.stop_flow(f)
            reads.append(client.get("10.1.0.1", O.IF_OUT_OCTETS + 2))
        assert [b - a for a, b in zip(reads, reads[1:])] == [50_000] * 40

    def test_route_table_walk(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        hops = client.table_column("10.1.0.1", O.IP_ROUTE_NEXT_HOP)
        masks = client.table_column("10.1.0.1", O.IP_ROUTE_MASK)
        assert len(hops) == len(masks) == 3  # two direct + one via r2
        # indirect route to 10.2/24 via 192.168.0.2
        assert hops[(10, 2, 0, 0)] == "192.168.0.2"

    def test_route_types(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        types = client.table_column("10.1.0.1", O.IP_ROUTE_TYPE)
        assert types[(10, 2, 0, 0)] == O.ROUTE_TYPE_INDIRECT
        assert types[(10, 1, 0, 0)] == O.ROUTE_TYPE_DIRECT

    def test_switch_bridge_mib(self):
        lan = build_switched_lan(8, fanout=8)
        world = instrument_network(lan.net)
        client = SnmpClient(world, lan.hosts[0].ip)
        sw = lan.switches[0]
        base = client.get(sw.management_ip, O.DOT1D_BASE_BRIDGE_ADDRESS)
        assert base == str(sw.management_mac())
        ports = client.table_column(sw.management_ip, O.DOT1D_TP_FDB_PORT)
        # hosts + router + self
        assert len(ports) == 8 + 1 + 1
        statuses = client.table_column(sw.management_ip, O.DOT1D_TP_FDB_STATUS)
        assert O.FDB_STATUS_SELF in statuses.values()


class TestAccessControl:
    def test_unknown_ip_times_out(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        t0 = d.net.now
        with pytest.raises(AgentUnreachableError):
            client.get("10.99.0.1", O.SYS_NAME)
        assert d.net.now - t0 == pytest.approx(client.cost.timeout_s)
        assert client.timeout_count == 1

    def test_bad_community_times_out(self):
        d = build_dumbbell()
        world = instrument_network(d.net, community="secret")
        client = SnmpClient(world, d.h1.ip, community="public")
        with pytest.raises(AgentUnreachableError):
            client.get("10.1.0.1", O.SYS_NAME)

    def test_source_acl_refuses_foreign_clients(self):
        d = build_dumbbell()
        world = instrument_network(
            d.net, allowed_sources=[IPv4Network("10.1.0.0/24")]
        )
        local = SnmpClient(world, d.h1.ip)  # 10.1.0.10: allowed
        foreign = SnmpClient(world, d.h2.ip)  # 10.2.0.10: denied
        assert local.get("10.1.0.1", O.SYS_NAME) == "r1"
        with pytest.raises(AuthorizationError):
            foreign.get("10.1.0.1", O.SYS_NAME)

    def test_agent_marked_down(self):
        d = build_dumbbell()
        d.r2.snmp_reachable = False
        world = instrument_network(d.net)
        client = SnmpClient(world, d.h1.ip)
        with pytest.raises(AgentUnreachableError):
            client.get("10.2.0.1", O.SYS_NAME)


class TestCostAccounting:
    def test_get_charges_rtt(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        t0 = d.net.now
        client.get("10.1.0.1", O.SYS_NAME)
        assert d.net.now - t0 == pytest.approx(
            client.cost.rtt_s + client.cost.per_varbind_s
        )
        assert client.pdu_count == 1

    def test_walk_counts_pdus(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        before = client.pdu_count
        rows = client.walk("10.1.0.1", O.IP_ROUTE_NEXT_HOP)
        # one PDU per row + one overshoot
        assert client.pdu_count - before == len(rows) + 1

    def test_custom_cost_model(self):
        d = build_dumbbell()
        world = instrument_network(d.net)
        client = SnmpClient(world, d.h1.ip, cost=SnmpCostModel(rtt_s=0.5, per_varbind_s=0.0))
        t0 = d.net.now
        client.get("10.1.0.1", O.SYS_NAME)
        assert d.net.now - t0 == pytest.approx(0.5)
