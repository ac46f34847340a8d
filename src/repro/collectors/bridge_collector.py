"""Bridge Collector: L2 topology from bridge forwarding databases.

At startup the collector walks every switch's Bridge-MIB
(``dot1dTpFdbTable`` + base group) over SNMP and infers the bridged
Ethernet's topology — switches, inter-switch links, shared segments
(hubs), and host attachments — storing it in a database (paper §3.1.2).
The SNMP Collector then asks it for the L2 path between stations, or
between a station and the edge router.

Inference (a compact form of Lowekamp/O'Hallaron/Gross, SIGCOMM 2001):
with complete FDBs and every switch's *management MAC* visible as a
station (switches source SNMP replies), define ``p_A(B)`` = the port of
switch A whose FDB holds B's management MAC.  Then

* A and B share a segment through ports (q, r) iff ``p_A(B)=q``,
  ``p_B(A)=r``, and every switch C with ``p_A(C)=q`` and ``p_B(C)=r``
  sees A and B through one port (``p_C(A)=p_C(B)``) — i.e. nothing
  *separates* them.  Segment-mate pairs are unioned into maximal
  segments; a 2-switch segment with no stations is a plain link.
* a station ``m`` attaches to switch A iff every other switch C sees
  ``m`` in A's direction (``fdb_C[m] = p_C(A)``).  A station attaching
  to several switches sits on the shared segment joining them; several
  stations on one port share a hub.

The collector also monitors station locations (one FDB ``get`` per
station per period) so that moved hosts are re-attached — the wireless
/ mobile-host scenario of §3.1.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, cast

from repro.common.errors import SnmpError, TopologyError
from repro.common.graphwalk import add_edge, bfs_path, components, edges, remove_node
from repro.netsim.address import IPv4Address, MacAddress
from repro.netsim.topology import Network
from repro.snmp import oid as O
from repro.snmp.agent import SnmpWorld
from repro.snmp.client import SnmpClient


@dataclass(frozen=True)
class Attachment:
    """Where a station lives: which switch, which port."""

    switch: str
    port: int


@dataclass
class L2Segment:
    """A shared segment: ≥1 switch port and ≥0 stations on one wire."""

    id: str
    switch_ports: tuple[Attachment, ...]
    stations: tuple[MacAddress, ...]

    @property
    def is_plain_link(self) -> bool:
        return len(self.switch_ports) == 2 and not self.stations


#: a database node: ``("sw", name)``, ``("seg", id)`` or ``("mac", str(mac))``
L2Node = tuple[str, str]


class L2Database:
    """The inferred bridged-network topology.

    ``graph`` is an adjacency (:mod:`repro.common.graphwalk`) over
    :data:`L2Node` nodes; an edge from a switch holds the switch port
    (other edges hold ``None``), so callers can translate hops into
    (switch, ifIndex) pairs for capacity/utilization polling.
    """

    def __init__(self) -> None:
        self.graph: dict[L2Node, dict[L2Node, int | None]] = {}
        self.switch_macs: dict[str, MacAddress] = {}
        self.switch_ips: dict[str, IPv4Address] = {}
        self.station_attach: dict[MacAddress, Attachment] = {}
        self.segments: dict[str, L2Segment] = {}

    def locate(self, mac: MacAddress) -> Attachment:
        try:
            return self.station_attach[mac]
        except KeyError:
            raise TopologyError(f"unknown station {mac}") from None

    def path(self, a: MacAddress, b: MacAddress) -> list[L2Node]:
        """Node path from station ``a`` to station ``b``."""
        found = bfs_path(self.graph, ("mac", str(a)), ("mac", str(b)))
        if found is None:
            raise TopologyError(f"no L2 path {a} -> {b}")
        return found

    def to_dict(self) -> dict[str, Any]:
        """The database as a plain record."""
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
            "edges": [[list(a), list(b), port] for a, b, port in edges(self.graph)],
        }


class BridgeCollector:
    """Serves L2 location and path queries backed by Bridge-MIB data."""

    def __init__(
        self,
        name: str,
        net: Network,
        world: SnmpWorld,
        source_ip: IPv4Address | str,
        switch_ips: dict[str, IPv4Address],
        community: str = "public",
    ) -> None:
        self.name = name
        self.net = net
        self.world = world
        self.client = SnmpClient(world, source_ip, community)
        #: switch name -> management IP to query
        self.switch_ips = dict(switch_ips)
        self.db: L2Database | None = None
        #: stations whose location monitoring noticed a move
        self.moves_seen = 0

    # -- startup discovery ------------------------------------------------

    def startup(self) -> L2Database:
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
                table[mac] = int(cast(int, port))
            fdbs[name] = table
            mgmt[name] = bridge_mac
            reachable_ips[name] = ip
        self.db = infer_l2_topology(fdbs, mgmt)
        self.db.switch_ips = reachable_ips
        return self.db

    # -- queries ------------------------------------------------------------

    def _require_db(self) -> L2Database:
        if self.db is None:
            self.startup()
        assert self.db is not None
        return self.db

    def locate(self, mac: MacAddress) -> Attachment:
        return self._require_db().locate(mac)

    def path(self, a: MacAddress, b: MacAddress) -> list[L2Node]:
        """L2 path between stations, from the database."""
        return self._require_db().path(a, b)

    def knows(self, mac: MacAddress) -> bool:
        db = self._require_db()
        return mac in db.station_attach

    # -- location monitoring ---------------------------------------------

    def verify_location(self, mac: MacAddress) -> bool:
        """One SNMP get: is the station still where the DB says?

        On mismatch the station is re-located (FDB gets against every
        switch) and the database updated.  Returns True if it moved.
        """
        db = self._require_db()
        att = db.locate(mac)
        ip = db.switch_ips.get(att.switch)
        if ip is None:
            return False
        try:
            port = int(cast(int, self.client.get(ip, O.DOT1D_TP_FDB_PORT + mac.octets())))
        except SnmpError:
            return False
        if port == att.port:
            return False
        self._relocate(mac)
        self.moves_seen += 1
        return True

    def monitor_tick(self) -> int:
        """Verify every known station once; returns number of moves."""
        db = self._require_db()
        moves = 0
        for mac in sorted(db.station_attach, key=lambda m: m.value):
            if self.verify_location(mac):
                moves += 1
        return moves

    def _relocate(self, mac: MacAddress) -> None:
        """Re-infer one station's attachment from fresh FDB reads."""
        db = self._require_db()
        fdb_of: dict[str, int] = {}
        for name, ip in sorted(db.switch_ips.items()):
            try:
                fdb_of[name] = int(
                    cast(int, self.client.get(ip, O.DOT1D_TP_FDB_PORT + mac.octets()))
                )
            except SnmpError:
                continue
        new_att = _attach_from_single_mac(db, fdb_of)
        if new_att is None:
            return
        db.station_attach[mac] = new_att
        node = ("mac", str(mac))
        if node in db.graph:
            remove_node(db.graph, node)
        _wire_station(db, mac, new_att, fdb_of)


# -- inference -----------------------------------------------------------


def infer_l2_topology(
    fdbs: dict[str, dict[MacAddress, int]], mgmt: dict[str, MacAddress]
) -> L2Database:
    """Infer switch/segment/host topology from forwarding databases.

    See the module docstring for the algorithm.  Handles: plain
    switch-switch links, hubs joining ≥2 switches, hubs hanging off one
    switch port with several stations, and single-switch networks.
    """
    db = L2Database()
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
        db.graph[("sw", s)] = {}

    # -- segment-mate pairs over switches -------------------------------
    mates: dict[str, dict[str, None]] = {s: {} for s in switches}
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
            add_edge(mates, a, b, None)

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
    seg_of_switchgroup: dict[frozenset[tuple[str, int]], str] = {}
    seg_counter = 0
    for comp in sorted(components(mates), key=lambda c: min(c)):
        if len(comp) < 2:
            continue
        # All mate pairs within comp share wires pairwise; group by the
        # actual shared wire: (switch, port) pairs that face each other.
        for a, b in combinations(sorted(comp), 2):
            if b not in mates[a]:
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
        db.graph.setdefault(node, {})
        sorted_ports = tuple(
            Attachment(s, pt) for s, pt in sorted(ports)
        )
        db.segments[seg_id] = L2Segment(
            seg_id, sorted_ports, tuple(sorted(stations, key=lambda m: m.value))
        )
        for att in sorted_ports:
            add_edge(db.graph, ("sw", att.switch), node, att.port)
        for m in sorted(stations, key=lambda m: m.value):
            att = Attachment(sorted(ports)[0][0], sorted(ports)[0][1])
            db.station_attach[m] = att
            add_edge(db.graph, ("mac", str(m)), node, None)

    for (sw, port), members in sorted(single_groups.items()):
        if len(members) == 1:
            m = members[0]
            db.station_attach[m] = Attachment(sw, port)
            add_edge(db.graph, ("mac", str(m)), ("sw", sw), port)
        else:
            seg_id = f"seg{seg_counter}"
            seg_counter += 1
            node = ("seg", seg_id)
            db.graph.setdefault(node, {})
            att = Attachment(sw, port)
            db.segments[seg_id] = L2Segment(
                seg_id, (att,), tuple(sorted(members, key=lambda m: m.value))
            )
            add_edge(db.graph, ("sw", sw), node, port)
            for m in members:
                db.station_attach[m] = att
                add_edge(db.graph, ("mac", str(m)), node, None)
    return db


def _attach_from_single_mac(
    db: L2Database, fdb_of: dict[str, int]
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
            path = bfs_path(db.graph, ("sw", c), ("sw", a))
            if path is None:
                continue
            toward_a = db.graph[path[0]][path[1]]
            if toward_a is not None and fdb_of[c] != toward_a:
                ok = False
                break
        if ok:
            return Attachment(a, fdb_of[a])
    return None


def _wire_station(
    db: L2Database, mac: MacAddress, att: Attachment, fdb_of: dict[str, int]
) -> None:
    """Connect a (re)located station into the database graph."""
    node = ("mac", str(mac))
    # If the port hosts a known segment, join it; else direct edge.
    sw_node = ("sw", att.switch)
    for seg_id, seg in db.segments.items():
        if any(sp.switch == att.switch and sp.port == att.port for sp in seg.switch_ports):
            add_edge(db.graph, node, ("seg", seg_id), None)
            db.segments[seg_id] = L2Segment(
                seg_id,
                seg.switch_ports,
                tuple(sorted(set(seg.stations) | {mac}, key=lambda m: m.value)),
            )
            return
    add_edge(db.graph, node, sw_node, att.port)


def _suffix_to_mac_int(suffix: tuple[int, ...]) -> int:
    v = 0
    for b in suffix:
        v = (v << 8) | b
    return v
