"""GetBulk and bulk walks: equivalence with GETNEXT, at fewer PDUs.

The batching contract: ``bulk_walk`` returns *byte-identical* varbinds
to ``walk`` over the same subtree — same OIDs, same values, same order
— while charging roughly ``1/BULK_MAX_REPETITIONS`` of the PDUs.  Hypothesis
drives the equivalence over arbitrary MIB layouts via a raw agent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AgentUnreachableError
from repro.netsim.builders import build_dumbbell, build_switched_lan
from repro.snmp import client as snmp_client
from repro.snmp import oid as O
from repro.snmp.agent import instrument_network
from repro.snmp.client import PER_VARBIND_S, RETRIES, RTT_S, SnmpClient
from repro.snmp.mib import MibStore
from repro.snmp.oid import Oid


@pytest.fixture
def snmp_dumbbell():
    d = build_dumbbell()
    world = instrument_network(d.net)
    client = SnmpClient(world, d.h1.ip)
    return d, world, client


class TestAgentGetBulk:
    def test_returns_up_to_max_repetitions(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        agent = world.agent_at("10.1.0.1")
        chunk = agent.get_bulk(Oid(O.IP_ROUTE_NEXT_HOP), 2)
        assert len(chunk) == 2
        # continues exactly where GETNEXT would
        nxt, val = agent.get_next(chunk[-1][0])
        more = agent.get_bulk(chunk[-1][0], 1)
        assert more == [(nxt, val)]

    def test_truncates_at_end_of_mib(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        agent = world.agent_at("10.1.0.1")
        # a huge repetition count stops at the end of the MIB, no error
        chunk = agent.get_bulk(Oid("1"), 10_000)
        assert 0 < len(chunk) < 10_000

    def test_non_positive_count_answers_nothing_and_costs_a_pdu(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        agent = world.agent_at("10.1.0.1")
        served = agent.requests_served
        assert agent.get_bulk(Oid(O.IP_ROUTE_NEXT_HOP), 0) == []
        assert agent.get_bulk(Oid(O.IP_ROUTE_NEXT_HOP), -3) == []
        assert agent.requests_served == served
        # each request still went out and was answered: one PDU, one RTT
        for pdus, count in enumerate((0, -3), 1):
            t0 = d.net.now
            assert client.get_bulk("10.1.0.1", O.IP_ROUTE_NEXT_HOP, count) == []
            assert client.pdu_count == pdus
            assert d.net.now - t0 == pytest.approx(RTT_S + PER_VARBIND_S)

    def test_start_past_the_last_oid_answers_nothing(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        agent = world.agent_at("10.1.0.1")
        last = agent.mib.oids()[-1]
        assert agent.get_bulk(last, 5) == []
        assert agent.get_bulk(last + 1, 5) == []
        assert agent.get_bulk(Oid("2"), 5) == []

    def test_start_inside_a_table_continues_column_major(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        agent = world.agent_at("10.1.0.1")
        # r1 has two interfaces: from ifDescr.1 the rest of the ifDescr
        # column comes first, then the next column from its first row
        assert len(d.r1.interfaces) == 2
        chunk = agent.get_bulk(O.IF_DESCR + 1, 3)
        assert [oid for oid, _ in chunk] == [O.IF_DESCR + 2, O.IF_TYPE + 1, O.IF_TYPE + 2]
        assert [v for _, v in chunk] == [d.r1.iface(2).name, 6, 6]


class TestBulkWalkEquivalence:
    def test_route_table_identical(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        assert client.bulk_walk("10.1.0.1", O.IP_ROUTE_NEXT_HOP) == client.walk(
            "10.1.0.1", O.IP_ROUTE_NEXT_HOP
        )

    def test_fdb_table_identical(self):
        lan = build_switched_lan(16, fanout=16)
        world = instrument_network(lan.net)
        client = SnmpClient(world, lan.hosts[0].ip)
        ip = lan.switches[0].management_ip
        assert client.bulk_walk(ip, O.DOT1D_TP_FDB_PORT) == client.walk(
            ip, O.DOT1D_TP_FDB_PORT
        )

    @given(
        oid_lists=st.lists(
            st.lists(st.integers(0, 9), min_size=1, max_size=4),
            min_size=0,
            max_size=40,
            unique_by=tuple,
        ),
        prefix=st.lists(st.integers(0, 9), min_size=0, max_size=2),
        max_rep=st.integers(1, 7),
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_mibs_identical(self, oid_lists, prefix, max_rep):
        """Over any MIB layout, any subtree, any batch size: the bulk
        walk yields exactly the iterated-GETNEXT varbind sequence."""
        store = MibStore()
        for parts in oid_lists:
            store.put(Oid(parts), tuple(parts))
        root = Oid(prefix)
        # reference: iterated GETNEXT bounded to the subtree
        expected = []
        cur = root
        while True:
            try:
                cur, value = store.get_next(cur)
            except Exception:
                break
            if not cur.starts_with(root):
                break
            expected.append((cur, value))
        # bulk: chunked GETNEXT with the same bound
        got = []
        cur = root
        done = False
        while not done:
            chunk = []
            probe = cur
            for _ in range(max_rep):
                try:
                    probe, value = store.get_next(probe)
                except Exception:
                    break
                chunk.append((probe, value))
            for nxt, value in chunk:
                if not nxt.starts_with(root):
                    done = True
                    break
                got.append((nxt, value))
            else:
                if len(chunk) == max_rep:
                    cur = chunk[-1][0]
                    continue
                done = True
        assert got == expected


class TestBulkWalkCost:
    def test_pdu_count_divided_by_batch(self, monkeypatch):
        lan = build_switched_lan(16, fanout=16)
        world = instrument_network(lan.net)
        ip = lan.switches[0].management_ip
        plain = SnmpClient(world, lan.hosts[0].ip)
        rows = plain.walk(ip, O.DOT1D_TP_FDB_PORT)
        plain_pdus = plain.pdu_count
        monkeypatch.setattr(snmp_client, "BULK_MAX_REPETITIONS", 16)
        bulk = SnmpClient(world, lan.hosts[0].ip)
        assert bulk.bulk_walk(ip, O.DOT1D_TP_FDB_PORT) == rows
        assert bulk.pdu_count < plain_pdus / 4

    def test_sim_time_cheaper(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        t0 = d.net.now
        client.walk("10.1.0.1", O.IP_ROUTE_NEXT_HOP)
        walk_cost = d.net.now - t0
        t1 = d.net.now
        client.bulk_walk("10.1.0.1", O.IP_ROUTE_NEXT_HOP)
        bulk_cost = d.net.now - t1
        assert bulk_cost < walk_cost

    def test_unreachable_agent_times_out(self, snmp_dumbbell):
        d, world, client = snmp_dumbbell
        with pytest.raises(AgentUnreachableError):
            client.bulk_walk("10.99.0.1", O.IP_ROUTE_NEXT_HOP)
        assert client.timeout_count == 1 + RETRIES
