"""Tests for collector warm-restart persistence."""

import pytest

from repro.common.units import MBPS
from repro.collectors.base import TopologyRequest
from repro.collectors.bridge_collector import BridgeCollector
from repro.collectors.persistence import (
    PersistenceError,
    load_bridge_state,
    load_snmp_state,
    save_bridge_state,
    save_snmp_state,
)
from repro.collectors.snmp_collector import SnmpCollector, SnmpCollectorConfig
from repro.netsim.address import IPv4Network
from repro.netsim.builders import build_switched_lan
from repro.snmp.agent import instrument_network


def _fresh_collector(lan, world, bridges):
    gw_ip = next(i.ip for i in lan.router.interfaces if i.ip is not None)
    return SnmpCollector(
        "snmp", lan.net, world, lan.hosts[0].ip,
        SnmpCollectorConfig(
            domains=[IPv4Network(lan.subnet)],
            gateways=[(IPv4Network(lan.subnet), gw_ip)],
        ),
        bridges,
    )


@pytest.fixture(scope="module")
def warm_world():
    lan = build_switched_lan(16, fanout=4)
    world = instrument_network(lan.net)
    bc = BridgeCollector(
        "bc", lan.net, world, lan.hosts[0].ip,
        {sw.name: sw.management_ip for sw in lan.switches},
    )
    bc.startup()
    bridges = {IPv4Network(lan.subnet): bc}
    coll = _fresh_collector(lan, world, bridges)
    ips = [str(h.ip) for h in lan.hosts[:8]]
    coll.topology(TopologyRequest.of(ips))  # warm everything
    return lan, world, bc, bridges, coll, ips


class TestSnmpPersistence:
    def test_roundtrip_restores_warm_behavior(self, warm_world):
        lan, world, bc, bridges, coll, ips = warm_world
        state = save_snmp_state(coll)
        restarted = _fresh_collector(lan, world, bridges)
        load_snmp_state(restarted, state)
        resp = restarted.topology(TopologyRequest.of(ips))
        # warm-bridge cost: only monitor bootstrapping, no rediscovery
        warm_bridge_pdus = 2 * len(restarted.monitors)
        assert resp.pdu_cost <= warm_bridge_pdus + 2
        # same answer as the original collector
        orig = coll.topology(TopologyRequest.of(ips))
        assert sorted(n.id for n in resp.graph.nodes()) == sorted(
            n.id for n in orig.graph.nodes()
        )

    def test_cold_restart_without_state_rediscovers(self, warm_world):
        lan, world, bc, bridges, coll, ips = warm_world
        cold = _fresh_collector(lan, world, bridges)
        warm_state = save_snmp_state(coll)
        warmed = _fresh_collector(lan, world, bridges)
        load_snmp_state(warmed, warm_state)
        cold_resp = cold.topology(TopologyRequest.of(ips))
        warm_resp = warmed.topology(TopologyRequest.of(ips))
        assert warm_resp.pdu_cost < cold_resp.pdu_cost / 2

    def test_bad_state_rejected(self, warm_world):
        lan, world, bc, bridges, coll, ips = warm_world
        fresh = _fresh_collector(lan, world, bridges)
        with pytest.raises(PersistenceError):
            load_snmp_state(fresh, "{not json")
        with pytest.raises(PersistenceError):
            load_snmp_state(fresh, '{"kind": "other", "version": 1}')

    def test_malformed_state_leaves_the_collector_untouched(self, warm_world):
        import json

        lan, world, bc, bridges, coll, ips = warm_world
        doc = json.loads(save_snmp_state(coll))
        live = _fresh_collector(lan, world, bridges)
        load_snmp_state(live, json.dumps(doc))
        paths, routes = dict(live._paths), dict(live._route_tables)
        assert paths
        del doc["if_macs"]  # a section is missing
        with pytest.raises(PersistenceError):
            load_snmp_state(live, json.dumps(doc))
        doc["if_macs"] = {"10.0.0.1|x": None}  # ... or does not parse
        with pytest.raises(PersistenceError):
            load_snmp_state(live, json.dumps(doc))
        assert live._paths == paths and live._route_tables == routes

    def test_monitors_not_persisted(self, warm_world):
        lan, world, bc, bridges, coll, ips = warm_world
        restarted = _fresh_collector(lan, world, bridges)
        load_snmp_state(restarted, save_snmp_state(coll))
        assert not restarted.monitors  # dynamics always re-bootstrap


class TestBridgePersistence:
    def test_roundtrip(self, warm_world):
        lan, world, bc, bridges, coll, ips = warm_world
        state = save_bridge_state(bc)
        restarted = BridgeCollector(
            "bc2", lan.net, world, lan.hosts[0].ip,
            {sw.name: sw.management_ip for sw in lan.switches},
        )
        load_bridge_state(restarted, state)
        pdus_before = restarted.client.pdu_count
        for h in lan.hosts:
            mac = h.interfaces[0].mac
            assert restarted.locate(mac) == bc.locate(mac)
        # locating from the database costs zero SNMP
        assert restarted.client.pdu_count == pdus_before
        # paths identical
        a = lan.hosts[0].interfaces[0].mac
        b = lan.hosts[15].interfaces[0].mac
        assert restarted.path(a, b) == bc.path(a, b)

    def test_save_requires_database(self, warm_world):
        lan, world, bc, bridges, coll, ips = warm_world
        empty = BridgeCollector(
            "bc3", lan.net, world, lan.hosts[0].ip, {}
        )
        with pytest.raises(PersistenceError):
            save_bridge_state(empty)

    def test_monitoring_works_after_reload(self, warm_world):
        lan, world, bc, bridges, coll, ips = warm_world
        restarted = BridgeCollector(
            "bc4", lan.net, world, lan.hosts[0].ip,
            {sw.name: sw.management_ip for sw in lan.switches},
        )
        load_bridge_state(restarted, save_bridge_state(bc))
        assert restarted.monitor_tick() == 0  # nothing moved
