"""The Bridge Collector's database against the networkx code it replaced.

The oracle is the previous ``L2Database``, ``infer_l2_topology``,
``_attach_from_single_mac``, ``_wire_station`` and the collector's
``startup`` / ``_relocate``, kept verbatim below (only renamed).  Over
random switch trees with hubs and over switched and hub LANs read
through SNMP, both must infer the same database: the saved record byte
for byte (its edge list is in the graph's insertion order), the same
L2 path between every pair of stations, the same again after a record
round trip, and the same after a host re-homes and location monitoring
re-wires it.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from itertools import combinations
from typing import Any

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors.bridge_collector import (
    Attachment,
    BridgeCollector,
    L2Database,
    L2Segment,
    _suffix_to_mac_int,
    infer_l2_topology,
)
from repro.common.errors import SnmpError, TopologyError
from repro.common.units import MBPS
from repro.netsim.address import IPv4Address, MacAddress
from repro.netsim.bridging import SELF_PORT
from repro.netsim.builders import build_hub_lan, build_switched_lan
from repro.netsim.mobility import rehome_host
from repro.netsim.topology import Network
from repro.snmp import oid as O
from repro.snmp.agent import instrument_network


# -- the oracle: the previous code, verbatim but for its names ----------------


class _NxL2Database:
    """The inferred bridged-network topology.

    ``graph`` nodes are ``("sw", name)``, ``("seg", id)`` and
    ``("mac", str(mac))``; switch-to-segment edges carry the switch
    port, so callers can translate hops into (switch, ifIndex) pairs
    for capacity/utilization polling.
    """

    def __init__(self) -> None:
        self.graph = nx.Graph()
        self.switch_macs: dict[str, MacAddress] = {}
        self.switch_ips: dict[str, IPv4Address] = {}
        self.station_attach: dict[MacAddress, Attachment] = {}
        self.segments: dict[str, L2Segment] = {}

    def locate(self, mac: MacAddress) -> Attachment:
        try:
            return self.station_attach[mac]
        except KeyError:
            raise TopologyError(f"unknown station {mac}") from None

    def path(self, a: MacAddress, b: MacAddress) -> list[tuple]:
        """Node path from station ``a`` to station ``b``."""
        na, nb = ("mac", str(a)), ("mac", str(b))
        try:
            return nx.shortest_path(self.graph, na, nb)
        except (nx.NodeNotFound, nx.NetworkXNoPath):
            raise TopologyError(f"no L2 path {a} -> {b}") from None

    def to_dict(self) -> dict[str, Any]:
        """The database as a plain record (what a warm restart saves)."""
        return {
            "switch_macs": {n: str(m) for n, m in self.switch_macs.items()},
            "switch_ips": {n: str(ip) for n, ip in self.switch_ips.items()},
            "station_attach": {
                str(mac): [att.switch, att.port] for mac, att in self.station_attach.items()
            },
            "segments": {
                sid: {
                    "ports": [[sp.switch, sp.port] for sp in seg.switch_ports],
                    "stations": [str(m) for m in seg.stations],
                }
                for sid, seg in self.segments.items()
            },
            "edges": [
                [list(a), list(b), data.get("port")] for a, b, data in self.graph.edges(data=True)
            ],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "_NxL2Database":
        """The database of a record; a malformed one raises KeyError,
        TypeError or ValueError."""
        db = cls()
        db.switch_macs = {n: MacAddress(m) for n, m in d["switch_macs"].items()}
        db.switch_ips = {n: IPv4Address(ip) for n, ip in d["switch_ips"].items()}
        db.station_attach = {
            MacAddress(m): Attachment(sw, int(port))
            for m, (sw, port) in d["station_attach"].items()
        }
        db.segments = {
            sid: L2Segment(
                sid,
                tuple(Attachment(sw, int(p)) for sw, p in seg["ports"]),
                tuple(MacAddress(m) for m in seg["stations"]),
            )
            for sid, seg in d["segments"].items()
        }
        for a, b, port in d["edges"]:
            if port is None:
                db.graph.add_edge(tuple(a), tuple(b))
            else:
                db.graph.add_edge(tuple(a), tuple(b), port=int(port))
        return db


def _nx_infer_l2_topology(
    fdbs: dict[str, dict[MacAddress, int]], mgmt: dict[str, MacAddress]
) -> _NxL2Database:
    """Infer switch/segment/host topology from forwarding databases.

    See the module docstring for the algorithm.  Handles: plain
    switch-switch links, hubs joining ≥2 switches, hubs hanging off one
    switch port with several stations, and single-switch networks.
    """
    db = _NxL2Database()
    switches = sorted(fdbs)
    db.switch_macs = {s: mgmt[s] for s in switches}
    mac_to_switch = {mgmt[s]: s for s in switches}
    station_macs = sorted(
        {m for t in fdbs.values() for m in t} - set(mac_to_switch),
        key=lambda m: m.value,
    )

    # p[A][B]: port of A toward B
    p: dict[str, dict[str, int]] = {a: {} for a in switches}
    for a in switches:
        for b in switches:
            if a != b and mgmt[b] in fdbs[a]:
                p[a][b] = fdbs[a][mgmt[b]]

    for s in switches:
        db.graph.add_node(("sw", s))

    # -- segment-mate pairs over switches -------------------------------
    mates = nx.Graph()
    mates.add_nodes_from(switches)
    for a, b in combinations(switches, 2):
        q, r = p[a].get(b), p[b].get(a)
        if q is None or r is None:
            continue
        separated = False
        for c in switches:
            if c in (a, b):
                continue
            if p[a].get(c) == q and p[b].get(c) == r and p[c].get(a) != p[c].get(b):
                separated = True
                break
        if not separated:
            mates.add_edge(a, b)

    # -- station attachment ------------------------------------------------
    attach_sets: dict[MacAddress, list[str]] = {}
    for m in station_macs:
        aset = []
        for a in switches:
            if m not in fdbs[a]:
                continue
            ok = True
            for c in switches:
                if c == a:
                    continue
                if fdbs[c].get(m) != p[c].get(a):
                    ok = False
                    break
            if ok:
                aset.append(a)
        attach_sets[m] = aset

    # -- build segments ------------------------------------------------------
    # Multi-switch segments from mate components.
    seg_of_switchgroup: dict[frozenset, str] = {}
    seg_counter = 0
    for comp in sorted(nx.connected_components(mates), key=lambda c: sorted(c)[0]):
        comp = sorted(comp)
        if len(comp) < 2:
            continue
        # All mate pairs within comp share wires pairwise; group by the
        # actual shared wire: (switch, port) pairs that face each other.
        for a, b in combinations(comp, 2):
            if not mates.has_edge(a, b):
                continue
            key = frozenset({(a, p[a][b]), (b, p[b][a])})
            grp = None
            for existing_key in list(seg_of_switchgroup):
                if existing_key & key:
                    grp = existing_key
                    break
            if grp is None:
                seg_of_switchgroup[key] = f"seg{seg_counter}"
                seg_counter += 1
            else:
                merged = grp | key
                seg_id = seg_of_switchgroup.pop(grp)
                seg_of_switchgroup[merged] = seg_id

    seg_ports: dict[str, set[tuple[str, int]]] = {}
    for key, seg_id in seg_of_switchgroup.items():
        seg_ports.setdefault(seg_id, set()).update(key)

    seg_stations: dict[str, set[MacAddress]] = {s: set() for s in seg_ports}

    # Single-switch station groups -> possible new segments.
    single_groups: dict[tuple[str, int], list[MacAddress]] = {}
    for m in station_macs:
        aset = attach_sets[m]
        if len(aset) >= 2:
            # station on a multi-switch shared segment; find it by port match
            a = aset[0]
            port = fdbs[a][m]
            placed = False
            for seg_id, ports in seg_ports.items():
                if (a, port) in ports:
                    seg_stations[seg_id].add(m)
                    placed = True
                    break
            if not placed:
                # inconsistent FDB data: fall back to primary attachment
                single_groups.setdefault((a, port), []).append(m)
        elif len(aset) == 1:
            a = aset[0]
            single_groups.setdefault((a, fdbs[a][m]), []).append(m)
        # len(aset) == 0: station invisible/ambiguous -> dropped

    # -- materialise graph --------------------------------------------------
    for seg_id in sorted(seg_ports):
        ports = seg_ports[seg_id]
        stations = seg_stations[seg_id]
        node = ("seg", seg_id)
        db.graph.add_node(node)
        sorted_ports = tuple(
            Attachment(s, pt) for s, pt in sorted(ports)
        )
        db.segments[seg_id] = L2Segment(
            seg_id, sorted_ports, tuple(sorted(stations, key=lambda m: m.value))
        )
        for att in sorted_ports:
            db.graph.add_edge(("sw", att.switch), node, port=att.port)
        for m in sorted(stations, key=lambda m: m.value):
            att = Attachment(sorted(ports)[0][0], sorted(ports)[0][1])
            db.station_attach[m] = att
            db.graph.add_edge(("mac", str(m)), node)

    for (sw, port), members in sorted(single_groups.items()):
        if len(members) == 1:
            m = members[0]
            db.station_attach[m] = Attachment(sw, port)
            db.graph.add_edge(("mac", str(m)), ("sw", sw), port=port)
        else:
            seg_id = f"seg{seg_counter}"
            seg_counter += 1
            node = ("seg", seg_id)
            db.graph.add_node(node)
            att = Attachment(sw, port)
            db.segments[seg_id] = L2Segment(
                seg_id, (att,), tuple(sorted(members, key=lambda m: m.value))
            )
            db.graph.add_edge(("sw", sw), node, port=port)
            for m in members:
                db.station_attach[m] = att
                db.graph.add_edge(("mac", str(m)), node)
    return db


def _nx_attach_from_single_mac(
    db: _NxL2Database, fdb_of: dict[str, int]
) -> Attachment | None:
    """Best-effort attachment for one MAC given its port on each switch.

    Uses the same "every other switch sees it toward A" rule, with the
    p-map reconstructed from the database graph.
    """
    switches = sorted(db.switch_macs)
    for a in switches:
        if a not in fdb_of:
            continue
        ok = True
        for c in switches:
            if c == a or c not in fdb_of:
                continue
            try:
                path = nx.shortest_path(db.graph, ("sw", c), ("sw", a))
            except (nx.NodeNotFound, nx.NetworkXNoPath):
                continue
            toward_a = db.graph.edges[path[0], path[1]].get("port")
            if toward_a is not None and fdb_of[c] != toward_a:
                ok = False
                break
        if ok:
            return Attachment(a, fdb_of[a])
    return None


def _nx_wire_station(
    db: _NxL2Database, mac: MacAddress, att: Attachment, fdb_of: dict[str, int]
) -> None:
    """Connect a (re)located station into the database graph."""
    node = ("mac", str(mac))
    # If the port hosts a known segment, join it; else direct edge.
    sw_node = ("sw", att.switch)
    for seg_id, seg in db.segments.items():
        if any(sp.switch == att.switch and sp.port == att.port for sp in seg.switch_ports):
            db.graph.add_edge(node, ("seg", seg_id))
            db.segments[seg_id] = L2Segment(
                seg_id,
                seg.switch_ports,
                tuple(sorted(set(seg.stations) | {mac}, key=lambda m: m.value)),
            )
            return
    db.graph.add_edge(node, sw_node, port=att.port)


class _NxBridgeCollector(BridgeCollector):
    """The collector over the oracle database: the previous ``startup``
    and ``_relocate``; every other method is the collector's own."""

    def startup(self) -> _NxL2Database:
        """Walk every switch's FDB and infer the topology database."""
        fdbs: dict[str, dict[MacAddress, int]] = {}
        mgmt: dict[str, MacAddress] = {}
        reachable_ips: dict[str, IPv4Address] = {}
        for name, ip in sorted(self.switch_ips.items()):
            try:
                bridge_mac = MacAddress(
                    str(self.client.get(ip, O.DOT1D_BASE_BRIDGE_ADDRESS))
                )
                ports = self.client.table_column(ip, O.DOT1D_TP_FDB_PORT)
                statuses = self.client.table_column(ip, O.DOT1D_TP_FDB_STATUS)
            except SnmpError:
                continue  # unreachable switch: simply absent from the DB
            table: dict[MacAddress, int] = {}
            for suffix, port in ports.items():
                mac = MacAddress(_suffix_to_mac_int(suffix))
                if statuses.get(suffix) == O.FDB_STATUS_SELF:
                    continue
                table[mac] = int(port)
            fdbs[name] = table
            mgmt[name] = bridge_mac
            reachable_ips[name] = ip
        self.db = _nx_infer_l2_topology(fdbs, mgmt)
        self.db.switch_ips = reachable_ips
        return self.db

    def _relocate(self, mac: MacAddress) -> None:
        """Re-infer one station's attachment from fresh FDB reads."""
        db = self._require_db()
        fdb_of: dict[str, int] = {}
        for name, ip in sorted(db.switch_ips.items()):
            try:
                fdb_of[name] = int(
                    self.client.get(ip, O.DOT1D_TP_FDB_PORT + mac.octets())
                )
            except SnmpError:
                continue
        new_att = _nx_attach_from_single_mac(db, fdb_of)
        if new_att is None:
            return
        old = db.station_attach.get(mac)
        db.station_attach[mac] = new_att
        node = ("mac", str(mac))
        if node in db.graph:
            db.graph.remove_node(node)
        _nx_wire_station(db, mac, new_att, fdb_of)


# -- checks ---------------------------------------------------------------------------


def _stations(db: Any) -> list[MacAddress]:
    return sorted(db.station_attach, key=lambda m: m.value)


def _same(new: L2Database, old: _NxL2Database) -> None:
    assert json.dumps(new.to_dict()) == json.dumps(old.to_dict())
    macs = _stations(old)
    assert _stations(new) == macs
    for a in macs:
        for b in macs:
            try:
                want = old.path(a, b)
            except TopologyError:
                with pytest.raises(TopologyError):
                    new.path(a, b)
            else:
                assert new.path(a, b) == want, (a, b)


def _round_trip(new: L2Database, old: _NxL2Database) -> None:
    record = json.loads(json.dumps(new.to_dict()))
    _same(L2Database.from_dict(record), _NxL2Database.from_dict(record))


@st.composite
def _random_bridged_lan(draw):
    """A random switch tree whose links may run through a hub, plus hubs
    hanging off one switch port, with hosts on switches and hubs."""
    n_switches = draw(st.integers(1, 6))
    net = Network()
    switches = [net.add_switch(f"s{i}") for i in range(n_switches)]
    hubs = []
    for i in range(1, n_switches):
        parent = switches[draw(st.integers(0, i - 1))]
        if draw(st.booleans()):
            hub = net.add_hub(f"hub{len(hubs)}")
            hubs.append(hub)
            net.link(parent, hub, 10 * MBPS)
            net.link(hub, switches[i], 10 * MBPS)
        else:
            net.link(parent, switches[i], 100 * MBPS)
    for _ in range(draw(st.integers(0, 2))):
        hub = net.add_hub(f"hub{len(hubs)}")
        hubs.append(hub)
        net.link(hub, switches[draw(st.integers(0, n_switches - 1))], 10 * MBPS)
    points = switches + hubs
    for j in range(draw(st.integers(1, 10))):
        h = net.add_host(f"h{j}")
        ln = net.link(h, points[draw(st.integers(0, len(points) - 1))], 100 * MBPS)
        net.assign_ip(ln.a, f"10.0.0.{j + 1}", "10.0.0.0/16")
    net.freeze()
    return switches


@given(_random_bridged_lan())
@settings(max_examples=80, deadline=None)
def test_inference_matches_on_random_bridged_lans(switches):
    fdbs = {sw.name: {m: p for m, p in sw.fdb.items() if p != SELF_PORT} for sw in switches}
    mgmt = {sw.name: sw.management_mac() for sw in switches}
    new, old = infer_l2_topology(fdbs, mgmt), _nx_infer_l2_topology(fdbs, mgmt)
    _same(new, old)
    _round_trip(new, old)


def _collectors(lan: Any) -> tuple[BridgeCollector, _NxBridgeCollector, Any, list[Any]]:
    world = instrument_network(lan.net)
    switches = getattr(lan, "switches", None) or [lan.switch]
    args = ("bc", lan.net, world, lan.hosts[0].ip, {sw.name: sw.management_ip for sw in switches})
    return BridgeCollector(*args), _NxBridgeCollector(*args), world, switches


def _move(lan: Any, world: Any, switches: list[Any], host: Any, onto: Any) -> MacAddress:
    rehome_host(lan.net, host, onto)
    for sw in switches:
        world.refresh_device(sw)
    return host.interfaces[0].mac


@pytest.mark.parametrize("n_hosts,fanout", [(16, 4), (24, 3), (40, 4)])
def test_relocation_matches_on_switched_lans(n_hosts, fanout):
    lan = build_switched_lan(n_hosts, fanout=fanout)
    new_bc, old_bc, world, switches = _collectors(lan)
    _same(new_bc.startup(), old_bc.startup())
    for k, toward in [(0, -1), (1, -2), (-1, 2)]:
        leaf = lan.hosts[toward].interfaces[0].peer().device
        mac = _move(lan, world, switches, lan.hosts[k], leaf)
        assert new_bc.verify_location(mac) == old_bc.verify_location(mac) is True
        _same(new_bc.db, old_bc.db)
    assert new_bc.monitor_tick() == old_bc.monitor_tick() == 0
    _round_trip(new_bc.db, old_bc.db)


def test_relocation_onto_a_hub_matches():
    """A station moving onto a hub joins the hub's known segment."""
    lan = build_hub_lan(n_hub_hosts=3, n_switch_hosts=3)
    new_bc, old_bc, world, switches = _collectors(lan)
    _same(new_bc.startup(), old_bc.startup())
    mover = next(h for h in lan.hosts if h.name.startswith("sw_h"))
    mac = _move(lan, world, switches, mover, lan.hub)
    assert new_bc.verify_location(mac) == old_bc.verify_location(mac) is True
    _same(new_bc.db, old_bc.db)
    assert any(mac in seg.stations for seg in new_bc.db.segments.values())
    _round_trip(new_bc.db, old_bc.db)
