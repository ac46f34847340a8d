"""Collector state persistence: warm restarts.

Fig. 3 prices a cold cache at several times a warm one, so a collector
that loses its caches on every restart wastes exactly that difference.
These helpers serialise the *static* discovery state (topology caches,
route tables, the bridge database) to JSON; dynamic counter history is
deliberately not saved — after a restart the world has moved, and the
collector re-bootstraps dynamics the same way the "Warm-Bridge"
scenario does.
"""

from __future__ import annotations

import json

from repro.common.errors import RemosError, TopologyError
from repro.netsim.address import IPv4Address, MacAddress
from repro.collectors.bridge_collector import (
    Attachment,
    BridgeCollector,
    L2Database,
    L2Segment,
)
from repro.collectors.monitor import MonitorKey
from repro.collectors.protocol import ProtocolError, _num, _parse_num
from repro.collectors.snmp_collector import (
    SnmpCollector,
    _EdgeRec,
    _PathRec,
    _RouteEntry,
)
from repro.modeler.graph import TopoNode
from repro.netsim.address import IPv4Network, PrefixTable


class PersistenceError(RemosError):
    """Saved state is malformed or from an incompatible version."""


_VERSION = 1


# -- SNMP collector -----------------------------------------------------------


def save_snmp_state(coll: SnmpCollector) -> str:
    """Serialise the collector's static caches to JSON."""
    paths = {}
    for (src, dst), rec in coll._paths.items():
        paths[f"{src}|{dst}"] = {
            "nodes": [[n.id, n.kind, list(n.ips)] for n in rec.nodes],
            "edges": [
                [
                    er.a,
                    er.b,
                    er.key.agent_ip if er.key else None,
                    er.key.ifindex if er.key else None,
                    er.owner_id,
                    _num(er.capacity_bps),
                    er.latency_s,
                ]
                for er in rec.edges
            ],
        }
    routes = {
        ip: [
            [str(e.prefix), str(e.next_hop) if e.next_hop else None, e.ifindex]
            for e in entries
        ]
        for ip, entries in coll._route_tables.items()
    }
    doc = {
        "version": _VERSION,
        "kind": "snmp-collector",
        "paths": paths,
        "route_tables": routes,
        "sys_names": coll._sys_names,
        "if_speeds": {f"{k[0]}|{k[1]}": _num(v) for k, v in coll._if_speeds.items()},
        "if_macs": {
            f"{k[0]}|{k[1]}": (str(v) if v else None)
            for k, v in coll._if_macs.items()
        },
        "arp": {
            str(subnet): {ip: (str(mac) if mac else None) for ip, mac in table.items()}
            for subnet, table in coll._arp.items()
        },
        "unreachable": sorted(coll._unreachable_routers),
    }
    return json.dumps(doc)


def load_snmp_state(coll: SnmpCollector, text: str) -> None:
    """Restore static caches saved by :func:`save_snmp_state`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"bad JSON: {exc}") from exc
    if doc.get("kind") != "snmp-collector" or doc.get("version") != _VERSION:
        raise PersistenceError("not a compatible snmp-collector state")
    # parse everything before touching the collector: a document that
    # turns out malformed halfway must leave a live collector as it was
    try:
        paths = {}
        for key, rec_doc in doc["paths"].items():
            src, _, dst = key.partition("|")
            nodes = [TopoNode(i, k, tuple(ips)) for i, k, ips in rec_doc["nodes"]]
            edges = []
            for a, b, agent_ip, ifindex, owner, cap, lat in rec_doc["edges"]:
                mk = MonitorKey(agent_ip, int(ifindex)) if agent_ip is not None else None
                edges.append(_EdgeRec(a, b, mk, owner, _parse_num(cap), lat))
            paths[(src, dst)] = _PathRec(nodes, edges)
        route_tables = {
            ip: PrefixTable(
                (e.prefix, e)
                for e in [
                    _RouteEntry(IPv4Network(p), IPv4Address(nh) if nh else None, int(idx))
                    for p, nh, idx in entries
                ]
            )
            for ip, entries in doc["route_tables"].items()
        }
        sys_names = dict(doc["sys_names"])
        if_speeds = {tuple_key(k): _parse_num(v) for k, v in doc["if_speeds"].items()}
        if_macs = {
            tuple_key(k): (MacAddress(v) if v else None)
            for k, v in doc["if_macs"].items()
        }
        arp = {
            IPv4Network(subnet): {
                ip: (MacAddress(mac) if mac else None) for ip, mac in table.items()
            }
            for subnet, table in doc["arp"].items()
        }
        unreachable = set(doc["unreachable"])
    except (KeyError, TypeError, ValueError, AttributeError, TopologyError, ProtocolError) as exc:
        raise PersistenceError(f"malformed snmp-collector state: {exc!r}") from exc
    coll._paths = paths
    coll._route_tables = route_tables
    coll._sys_names = sys_names
    coll._if_speeds = if_speeds
    coll._if_macs = if_macs
    coll._arp = arp
    coll._unreachable_routers = unreachable
    coll.monitors.clear()  # dynamics are always re-bootstrapped


def tuple_key(k: str) -> tuple[str, int]:
    ip, _, idx = k.rpartition("|")
    return (ip, int(idx))


# -- bridge collector ----------------------------------------------------------


def save_bridge_state(bc: BridgeCollector) -> str:
    """Serialise the bridge database (startup() must have run)."""
    db = bc.db
    if db is None:
        raise PersistenceError("bridge collector has no database yet")
    edges = []
    for a, b, data in db.graph.edges(data=True):
        edges.append([list(a), list(b), data.get("port")])
    doc = {
        "version": _VERSION,
        "kind": "bridge-collector",
        "switch_macs": {n: str(m) for n, m in db.switch_macs.items()},
        "switch_ips": {n: str(ip) for n, ip in db.switch_ips.items()},
        "station_attach": {
            str(mac): [att.switch, att.port] for mac, att in db.station_attach.items()
        },
        "segments": {
            sid: {
                "ports": [[sp.switch, sp.port] for sp in seg.switch_ports],
                "stations": [str(m) for m in seg.stations],
            }
            for sid, seg in db.segments.items()
        },
        "edges": edges,
    }
    return json.dumps(doc)


def load_bridge_state(bc: BridgeCollector, text: str) -> None:
    """Restore a bridge database saved by :func:`save_bridge_state`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"bad JSON: {exc}") from exc
    if doc.get("kind") != "bridge-collector" or doc.get("version") != _VERSION:
        raise PersistenceError("not a compatible bridge-collector state")
    db = L2Database()
    db.switch_macs = {n: MacAddress(m) for n, m in doc["switch_macs"].items()}
    db.switch_ips = {n: IPv4Address(ip) for n, ip in doc["switch_ips"].items()}
    db.station_attach = {
        MacAddress(m): Attachment(sw, int(port))
        for m, (sw, port) in doc["station_attach"].items()
    }
    db.segments = {
        sid: L2Segment(
            sid,
            tuple(Attachment(sw, int(p)) for sw, p in seg["ports"]),
            tuple(MacAddress(m) for m in seg["stations"]),
        )
        for sid, seg in doc["segments"].items()
    }
    for a, b, port in doc["edges"]:
        na, nb = tuple(a), tuple(b)
        if port is None:
            db.graph.add_edge(na, nb)
        else:
            db.graph.add_edge(na, nb, port=int(port))
    bc.db = db
