"""Tests for collector warm-restart persistence."""

import json

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
from repro.collectors.discovery import DiscoveryState
from repro.deploy import deploy_campus, deploy_lan, deploy_wan
from repro.netsim.builders import (
    build_campus,
    build_hub_lan,
    build_random_wan,
    build_switched_lan,
)
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


def _fresh_bridge(lan, world, name="bc-fresh"):
    return BridgeCollector(
        name, lan.net, world, lan.hosts[0].ip,
        {sw.name: sw.management_ip for sw in lan.switches},
    )


#: one member of a saved document at a time, holding the wrong thing
MISTYPED = {
    "snmp": [
        ("if_macs", {"10.0.0.1|x": None}),
        ("paths", {"a|b": {"nodes": [["a", "no-such-kind", []]], "edges": []}}),
        ("route_tables", {"10.0.0.1": [["10.0.0.0/33", None, 1]]}),
        ("arp", ["10.0.0.0/24"]),
    ],
    "bridge": [
        ("switch_macs", {"sw0": "zz"}),
        ("station_attach", {"00:00:00:00:00:01": ["sw0", "p"]}),
        ("edges", [1]),
        ("segments", {"seg0": {"ports": [["sw0"]], "stations": []}}),
    ],
}


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
        """Either loader raises PersistenceError — never KeyError,
        ValueError or TypeError — on a document with a member missing
        or mistyped, and the live collector still holds what it held."""
        lan, world, bc, bridges, coll, ips = warm_world
        live_sc, live_bc = _fresh_collector(lan, world, bridges), _fresh_bridge(lan, world)
        for kind, text, load, held in (
            ("snmp", save_snmp_state(coll),
             lambda t: load_snmp_state(live_sc, t), lambda: live_sc.discovery.state),
            ("bridge", save_bridge_state(bc),
             lambda t: load_bridge_state(live_bc, t), lambda: live_bc.db),
        ):
            load(text)
            before, before_doc = held(), held().to_dict()
            assert before_doc["paths" if kind == "snmp" else "station_attach"]
            doc = json.loads(text)
            broken = [{k: v for k, v in doc.items() if k != gone} for gone in doc]
            broken += [{**doc, member: value} for member, value in MISTYPED[kind]]
            broken.append([doc])  # JSON, but not an object
            assert len(broken) == len(doc) + len(MISTYPED[kind]) + 1
            for bad in broken:
                with pytest.raises(PersistenceError):
                    load(json.dumps(bad))
                assert held() is before and held().to_dict() == before_doc

    def test_a_document_that_still_lists_unreachable_routers_loads(self, warm_world):
        lan, world, bc, bridges, coll, ips = warm_world
        doc = json.loads(save_snmp_state(coll))
        assert "unreachable" not in doc and doc["version"] == 1
        doc["unreachable"] = ["10.0.0.1"]  # written before the list was deleted
        restarted = _fresh_collector(lan, world, bridges)
        load_snmp_state(restarted, json.dumps(doc))
        assert save_snmp_state(restarted) == save_snmp_state(coll)

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


# -- the record -----------------------------------------------------------------


def _warm_deployments():
    """(label, deployment, hosts) over worlds with routed, switched,
    multi-switch and shared-segment parts, each asked one raw topology."""
    for seed in (3, 11):
        wan = build_random_wan(4, seed=seed, multi_switch_fraction=0.5)
        yield f"wan{seed}", deploy_wan(wan), [h for s in wan.sites.values() for h in s.hosts]
    campus = build_campus(3, 4)
    yield "campus", deploy_campus(campus), [h for s in campus.subnets for h in s.hosts]
    hub = build_hub_lan()
    yield "hub", deploy_lan(hub), hub.hosts


@pytest.fixture(scope="module")
def warm_states():
    states = []
    for label, dep, hosts in _warm_deployments():
        dep.session().topology(hosts, detail="raw")
        states += [
            (f"{label}/{site}", coll.discovery.state)
            for site, coll in sorted(dep.snmp_collectors.items())
        ]
    return states


class TestDiscoveryRecord:
    def test_json_round_trip_is_the_identity_on_records(self, warm_states):
        for label, state in warm_states:
            doc = state.to_dict()
            # a site whose paths all end at its gateway walked no route
            # table: the gateway's ipAddrTable row named its interface
            assert doc["paths"] and (doc["route_tables"] or doc["subnet_ifaces"]), label
            again = DiscoveryState.from_dict(json.loads(json.dumps(doc)))
            assert again.to_dict() == doc, label
        # the campus walks route tables, every site reads an interface
        assert any(state.route_tables for _label, state in warm_states)
        assert all(state.subnet_ifaces for _label, state in warm_states)

    def test_kept_is_a_prefix_of_the_sorted_paths(self, warm_states):
        for label, state in warm_states:
            assert state.kept(0.0).to_dict() == DiscoveryState().to_dict(), label
            assert state.kept(1.0).to_dict() == state.to_dict(), label
            ordered = sorted(state.paths)
            for fraction in (0.1, 1 / 3, 0.5, 0.9):
                kept = state.kept(fraction)
                n = int(len(ordered) * fraction)
                assert sorted(kept.paths) == ordered[:n], (label, fraction)
                # what is kept of the small memos is what the kept paths poll
                polled = {(e.key.agent_ip, e.key.ifindex) for e in kept.edges() if e.key}
                assert set(kept.if_speeds) <= polled and set(kept.if_macs) <= polled
                assert kept.route_tables == state.route_tables
                assert kept.subnet_ifaces == state.subnet_ifaces

    def test_a_flushed_collector_is_a_fresh_collector(self):
        """Twin: after ``flush_caches()`` a collector spends the PDUs, the
        simulated time and returns the graph of one just constructed."""
        twins = []
        for flushed in (True, False):
            lan = build_switched_lan(16, fanout=4)
            dep = deploy_lan(lan)
            coll = dep.snmp_collectors["lan"]
            request = TopologyRequest.of([str(h.ip) for h in lan.hosts[:8]])
            if flushed:
                coll.topology(request)
                coll.flush_caches()
            lan.net.engine.run_until(10.0)  # the same simulated instant
            pdus = coll.client.pdu_count
            resp = coll.topology(request)
            twins.append(
                (coll.client.pdu_count - pdus, lan.net.now, resp.graph.to_dict(), resp.status)
            )
        assert twins[0] == twins[1]
