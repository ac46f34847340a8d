"""Tests for MIB stores, device MIBs, agents, and the client."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.errors import (
    AgentUnreachableError,
    AuthorizationError,
    NoSuchObjectError,
)
from repro import obs
from repro.common.units import MBPS
from repro.netsim.address import IPv4Network
from repro.netsim.builders import build_dumbbell, build_switched_lan
from repro.snmp import oid as O
from repro.snmp.agent import instrument_network
from repro.snmp.client import (
    BACKOFF_BASE_S,
    BACKOFF_MULT,
    RETRIES,
    SnmpClient,
    SnmpCostModel,
)
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


    def test_oids_sorted_and_public(self):
        s = MibStore()
        for text in ("1.3.10", "1.3.6.2", "1.3.6", "1.3.6.1"):
            s.put(Oid(text), text)
        assert [str(o) for o in s.oids()] == ["1.3.6", "1.3.6.1", "1.3.6.2", "1.3.10"]

    def test_column_suffix_checked_like_oid_add(self):
        s = MibStore()
        with pytest.raises(ValueError):
            Oid("1.3") + (2, -1)
        with pytest.raises(ValueError):
            s.put_column(Oid("1.3"), [((1,), "kept"), ((2, -1), "refused"), ((3,), "never")])
        # the cells before the bad one stay, as after a loop of put()s
        assert s.oids() == [Oid("1.3.1")]


# a small alphabet and short OIDs, so that puts, column cells, removes
# and probes keep landing on, before, between and after each other
_parts = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)
_suffix = st.lists(st.integers(0, 3), min_size=0, max_size=2).map(tuple)
_value = st.integers(0, 99) | st.none() | st.text(max_size=3)


class MibStoreModel(RuleBasedStateMachine):
    """``MibStore`` against the obvious store: a list of ``Oid`` kept in
    ``Oid.__lt__`` order beside a dict keyed by ``Oid``."""

    def __init__(self):
        super().__init__()
        self.store = MibStore()
        self.ref_oids: list[Oid] = []
        self.ref_values: dict[Oid, object] = {}
        #: what the read-through providers read, moved by ``turn_dial``
        self.dial = [0]

    def _ref_put(self, oid, provider):
        if oid not in self.ref_values:
            bisect.insort(self.ref_oids, oid)
        self.ref_values[oid] = provider

    def _ref_read(self, oid):
        v = self.ref_values[oid]
        return v() if callable(v) else v

    def _ref_next(self, oid):
        """GETNEXT on the reference: (oid, value), or None at the end."""
        for held in self.ref_oids:
            if oid < held:
                return held, self._ref_read(held)
        return None

    def _ref_next_n(self, oid, n):
        out = []
        for _ in range(n):
            step = self._ref_next(oid)
            if step is None:
                break
            out.append(step)
            oid = step[0]
        return out

    @rule(parts=_parts, value=_value)
    def put(self, parts, value):
        self.store.put(Oid(parts), value)
        self._ref_put(Oid(parts), value)

    @rule(parts=_parts, offset=st.integers(0, 9))
    def put_read_through(self, parts, offset):
        provider = lambda: ("dial", self.dial[0] + offset)  # noqa: E731
        self.store.put(Oid(parts), provider)
        self._ref_put(Oid(parts), provider)

    @rule(column=_parts, cells=st.lists(st.tuples(_suffix, _value), max_size=6))
    def put_column(self, column, cells):
        self.store.put_column(Oid(column), cells)
        for suffix, value in cells:
            self._ref_put(Oid(column) + suffix, value)

    @rule(data=st.data(), value=_value)
    def replace(self, data, value):
        if self.ref_oids:
            oid = data.draw(st.sampled_from(self.ref_oids))
            self.store.put(oid, value)
            self._ref_put(oid, value)

    @rule(data=st.data(), parts=_parts)
    def remove(self, data, parts):
        # a held OID half the time, otherwise whatever was drawn (mostly absent)
        oid = Oid(parts)
        if self.ref_oids and data.draw(st.booleans()):
            oid = data.draw(st.sampled_from(self.ref_oids))
        self.store.remove(oid)
        if oid in self.ref_values:
            del self.ref_values[oid]
            self.ref_oids.remove(oid)

    @rule()
    def turn_dial(self):
        self.dial[0] += 1

    @invariant()
    def size_order_and_whole_walk(self):
        assert len(self.store) == len(self.ref_oids)
        assert self.store.oids() == self.ref_oids
        walk = []
        cur = Oid("")
        while True:
            try:
                cur, value = self.store.get_next(cur)
            except NoSuchObjectError:
                break
            walk.append((cur, value))
        assert walk == [(o, self._ref_read(o)) for o in self.ref_oids]

    @invariant()
    def point_reads(self):
        probes = [Oid(""), Oid("0"), Oid("3.3.3.3.3"), Oid("4")]
        for oid in self.ref_oids:
            probes += [oid, oid + 0, Oid(oid.parts[:-1])]
        for probe in probes:
            assert (probe in self.store) == (probe in self.ref_values)
            if probe in self.ref_values:
                assert self.store.get(probe) == self._ref_read(probe)
            else:
                with pytest.raises(NoSuchObjectError):
                    self.store.get(probe)
            expected = self._ref_next(probe)
            if expected is None:
                with pytest.raises(NoSuchObjectError):
                    self.store.get_next(probe)
            else:
                assert self.store.get_next(probe) == expected

    @invariant()
    def next_n(self):
        starts = [Oid(""), Oid("1.2"), Oid("4")] + self.ref_oids[::3]
        for start in starts:
            for n in range(41):
                assert self.store.get_next_n(start, n) == self._ref_next_n(start, n)
        assert self.store.get_next_n(Oid(""), -1) == []


MibStoreModel.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestMibStoreModel = MibStoreModel.TestCase


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
        # every attempt times out, with a growing backoff before each retry
        backoffs = sum(BACKOFF_BASE_S * BACKOFF_MULT**k for k in range(RETRIES))
        assert d.net.now - t0 == pytest.approx((1 + RETRIES) * client.cost.timeout_s + backoffs)
        assert client.timeout_count == 1 + RETRIES

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
        with obs.scoped_registry() as reg:
            rows = client.walk("10.1.0.1", O.IP_ROUTE_NEXT_HOP)
        # one PDU per row + one overshoot
        assert client.pdu_count - before == len(rows) + 1
        assert reg.histogram("snmp.client.walk_len").sum == len(rows)

    def test_custom_cost_model(self):
        d = build_dumbbell()
        world = instrument_network(d.net)
        client = SnmpClient(world, d.h1.ip, cost=SnmpCostModel(rtt_s=0.5, per_varbind_s=0.0))
        t0 = d.net.now
        client.get("10.1.0.1", O.SYS_NAME)
        assert d.net.now - t0 == pytest.approx(0.5)
