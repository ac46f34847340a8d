"""MIB stores and device MIB builders.

A :class:`MibStore` is a sorted map from :class:`~repro.snmp.oid.Oid`
to a value *provider* — either a constant or a zero-argument callable
evaluated at read time (counters read the live simulation state).  The
store supports exact GET and lexicographic GETNEXT, which is all the
collectors need.

``build_router_mib`` / ``build_switch_mib`` populate stores from
simulated devices with the MIB-II subtrees the paper's SNMP Collector
walks (system, ifTable, ipRouteTable) and the Bridge-MIB subtrees the
Bridge Collector walks (dot1dBase, dot1dTpFdbTable).
"""

from __future__ import annotations

import bisect
from operator import attrgetter

from repro.common.errors import NoSuchObjectError
from repro.netsim.address import IPv4Address
from repro.netsim.topology import Network, Router, Switch
from repro.snmp import oid as O
from repro.snmp.oid import Oid


#: sort key: comparing the int tuples runs in C, ``Oid.__lt__`` does not
_PARTS = attrgetter("parts")


class MibStore:
    """Sorted OID -> provider map with GET / GETNEXT semantics.

    A device MIB is loaded with hundreds of ``put`` calls and then only
    read, so new OIDs are appended and the index is sorted once, by the
    first operation that needs the order.
    """

    def __init__(self) -> None:
        self._oids: list[Oid] = []
        self._values: dict[Oid, object] = {}
        self._sorted = True

    def put(self, oid: Oid, provider: object) -> None:
        """Insert or replace an entry; callables are evaluated on read."""
        if oid not in self._values:
            self._oids.append(oid)
            self._sorted = False
        self._values[oid] = provider

    def _index(self) -> list[Oid]:
        """The OIDs in lexicographic order."""
        if not self._sorted:
            self._oids.sort(key=_PARTS)
            self._sorted = True
        return self._oids

    def remove(self, oid: Oid) -> None:
        if oid in self._values:
            del self._values[oid]
            oids = self._index()
            i = bisect.bisect_left(oids, oid)
            if i < len(oids) and oids[i] == oid:
                oids.pop(i)

    def get(self, oid: Oid) -> object:
        """Exact read; raises NoSuchObjectError for missing OIDs."""
        try:
            v = self._values[oid]
        except KeyError:
            raise NoSuchObjectError(str(oid)) from None
        return v() if callable(v) else v

    def get_next(self, oid: Oid) -> tuple[Oid, object]:
        """First entry strictly after ``oid``; raises at end of MIB."""
        oids = self._index()
        i = bisect.bisect_right(oids, oid)
        if i >= len(oids):
            raise NoSuchObjectError(f"end of MIB after {oid}")
        nxt = oids[i]
        v = self._values[nxt]
        return nxt, (v() if callable(v) else v)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._values


def _ip_suffix(ip: IPv4Address) -> tuple[int, ...]:
    return ip.octets()


def _mac_suffix(mac) -> tuple[int, ...]:
    return mac.octets()


#: sysObjectID kind codes under :data:`repro.snmp.oid.SYS_OBJECT_ID_BASE`
_KIND_CODE = {"host": 1, "router": 2, "switch": 3, "hub": 4, "basestation": 5}


def _put_if_table(store: MibStore, device, net: Network) -> None:
    """Populate system + ifTable rows for any device."""
    store.put(O.SYS_DESCR, f"repro simulated {device.kind}")
    # sysObjectID identifies the device model; point it at a synthetic
    # per-kind OID so collectors can tell device classes apart
    store.put(O.SYS_OBJECT_ID, str(O.SYS_OBJECT_ID_BASE + _KIND_CODE.get(device.kind, 0)))
    store.put(O.SYS_NAME, device.name)
    store.put(O.IF_NUMBER, len(device.interfaces))
    for iface in device.interfaces:
        idx = iface.index
        store.put(O.IF_INDEX + idx, idx)
        store.put(O.IF_DESCR + idx, iface.name)
        store.put(O.IF_TYPE + idx, 6)  # ethernetCsmacd
        store.put(O.IF_SPEED + idx, lambda i=iface: int(i.speed_bps))
        store.put(O.IF_PHYS_ADDRESS + idx, str(iface.mac))
        store.put(O.IF_OPER_STATUS + idx, lambda i=iface: 1 if i.link else 2)
        # round, not truncate: the fluid byte count of a whole-byte
        # transfer sits an ulp either side of the whole number depending
        # on the instant it ran, and must read the same at any instant
        store.put(
            O.IF_IN_OCTETS + idx,
            lambda i=iface, n=net: round(i.in_octets(n.now)),
        )
        store.put(
            O.IF_OUT_OCTETS + idx,
            lambda i=iface, n=net: round(i.out_octets(n.now)),
        )


def build_router_mib(router: Router, net: Network) -> MibStore:
    """MIB-II view of a router: system, ifTable, ipRouteTable.

    Route rows are indexed by destination network address, as in
    RFC 1213; the collector walks ``ipRouteNextHop`` /
    ``ipRouteIfIndex`` / ``ipRouteMask`` columns to rebuild the
    forwarding table and do its own longest-prefix matching.
    """
    store = MibStore()
    _put_if_table(store, router, net)
    store.put(O.IP_FORWARDING, 1)  # acting as a gateway
    supports_cidr = getattr(router, "supports_cidr_mib", True)
    for prefix, next_hop, out_iface in router.routes:
        suffix = _ip_suffix(prefix.network_address)
        store.put(O.IP_ROUTE_DEST + suffix, str(prefix.network_address))
        store.put(O.IP_ROUTE_IF_INDEX + suffix, out_iface.index)
        store.put(O.IP_ROUTE_MASK + suffix, str(prefix.netmask))
        if next_hop is None:
            # Direct route: next hop is the router's own interface address.
            own = out_iface.ip
            store.put(O.IP_ROUTE_NEXT_HOP + suffix, str(own) if own else "0.0.0.0")
            store.put(O.IP_ROUTE_TYPE + suffix, O.ROUTE_TYPE_DIRECT)
        else:
            store.put(O.IP_ROUTE_NEXT_HOP + suffix, str(next_hop))
            store.put(O.IP_ROUTE_TYPE + suffix, O.ROUTE_TYPE_INDIRECT)
        if supports_cidr:
            # RFC 2096 row: index = (dest, mask, tos=0, next hop)
            own = out_iface.ip
            hop = next_hop if next_hop is not None else None
            hop_octets = (hop or (own if own else None))
            hop_suffix = hop_octets.octets() if hop_octets else (0, 0, 0, 0)
            cidr_idx = (
                _ip_suffix(prefix.network_address)
                + _ip_suffix(prefix.netmask)
                + (0,)
                + hop_suffix
            )
            store.put(O.IP_CIDR_ROUTE_IF_INDEX + cidr_idx, out_iface.index)
            store.put(
                O.IP_CIDR_ROUTE_TYPE + cidr_idx,
                O.CIDR_TYPE_LOCAL if next_hop is None else O.CIDR_TYPE_REMOTE,
            )

    # ipNetToMediaTable: the router's ARP view of its attached subnets.
    # A steady-state router has seen every on-link station, so one row
    # per addressed interface in each directly attached network.
    for iface in router.interfaces:
        if iface.network is None:
            continue
        for other in net.addressed_interfaces():
            if other.ip is None or other.ip not in iface.network:
                continue
            if other.device is router:
                continue
            if other.link is None:
                continue  # detached station: its ARP entry has aged out
            suffix = (iface.index,) + other.ip.octets()
            store.put(O.IP_NET_TO_MEDIA_IF_INDEX + suffix, iface.index)
            store.put(O.IP_NET_TO_MEDIA_PHYS_ADDRESS + suffix, str(other.mac))
            store.put(O.IP_NET_TO_MEDIA_NET_ADDRESS + suffix, str(other.ip))
    return store


def build_switch_mib(switch: Switch, net: Network) -> MibStore:
    """Bridge-MIB view of a switch: dot1dBase scalars + the forwarding
    database table, plus a standard ifTable for port speeds/counters.

    The FDB table reads through to ``switch.fdb`` at call time, so host
    moves (re-learned entries) are visible to pollers without rebuilding
    the MIB.
    """
    store = MibStore()
    _put_if_table(store, switch, net)
    store.put(O.DOT1D_BASE_BRIDGE_ADDRESS, str(switch.management_mac()))
    store.put(O.DOT1D_BASE_NUM_PORTS, len(switch.interfaces))
    _rebuild_fdb_rows(store, switch)
    return store


def _rebuild_fdb_rows(store: MibStore, switch: Switch) -> None:
    from repro.netsim.bridging import SELF_PORT
    from repro.snmp.oid import FDB_STATUS_LEARNED, FDB_STATUS_SELF

    for mac, port in switch.fdb.items():
        suffix = _mac_suffix(mac)
        store.put(O.DOT1D_TP_FDB_ADDRESS + suffix, str(mac))
        store.put(
            O.DOT1D_TP_FDB_PORT + suffix,
            lambda sw=switch, m=mac: sw.fdb.get(m, 0),
        )
        store.put(
            O.DOT1D_TP_FDB_STATUS + suffix,
            FDB_STATUS_SELF if port == SELF_PORT else FDB_STATUS_LEARNED,
        )


def build_host_mib(host, net: Network) -> MibStore:
    """Host Resources view of an end host: ifTable + hrProcessorLoad.

    ``hrProcessorLoad`` is "the average, over the last minute, of the
    percentage of time that this processor was not idle" (RFC 2790);
    we map the host's load average to a 0-100 percentage (load 1.0 =
    one busy core = 100).
    """
    store = MibStore()
    _put_if_table(store, host, net)
    store.put(
        O.HR_PROCESSOR_LOAD + 1,
        lambda h=host, n=net: int(min(100.0, 100.0 * h.load(n.now))),
    )
    # hrSystem scalars: a deterministic process count that tracks the
    # load average (a busier machine runs more processes), and a single
    # logged-in user — the simulated hosts are compute nodes, not
    # terminals.  Both are read-through so pollers see load changes.
    store.put(O.HR_SYSTEM_NUM_USERS, 1)
    store.put(
        O.HR_SYSTEM_PROCESSES,
        lambda h=host, n=net: 40 + int(10.0 * h.load(n.now)),
    )
    return store


def build_basestation_mib(bs, net: Network) -> MibStore:
    """Wireless AP view: BSSID, air rate, and the association table.

    The association table is rebuilt on every read (it is small and
    roaming changes it often) by registering one row per *currently*
    associated station; rows for stations that left are removed by
    :func:`refresh_basestation_assoc`, which agents run lazily through
    the read-through provider below.
    """
    store = MibStore()
    _put_if_table(store, bs, net)
    store.put(O.WLAN_BSSID, str(bs.interfaces[0].mac) if bs.interfaces else "")
    store.put(O.WLAN_AIR_RATE, lambda b=bs: int(b.air_rate_bps))
    refresh_basestation_assoc(store, bs)
    return store


def refresh_basestation_assoc(store: MibStore, bs) -> None:
    """Re-sync the association table rows with live associations."""
    live = {mac for mac in bs.associated_stations()}
    # drop rows for stations that roamed away
    stale: list[tuple[int, ...]] = []
    cur = O.WLAN_ASSOC_STATION
    while True:
        try:
            cur, _ = store.get_next(cur)
        except NoSuchObjectError:
            break
        if not cur.starts_with(O.WLAN_ASSOC_STATION):
            break
        suffix = cur.suffix_after(O.WLAN_ASSOC_STATION)
        from repro.netsim.address import MacAddress

        if MacAddress(_suffix_to_int(suffix)) not in live:
            stale.append(suffix)
    for suffix in stale:
        store.remove(O.WLAN_ASSOC_STATION + suffix)
    for mac in sorted(live, key=lambda m: m.value):
        store.put(O.WLAN_ASSOC_STATION + mac.octets(), str(mac))


def refresh_switch_fdb(store: MibStore, switch: Switch) -> None:
    """Re-sync FDB rows after entries were added/removed (host moves).

    Port changes for existing MACs are already live (the port column is
    a read-through callable); this handles row creation/deletion.
    """
    # Remove rows whose MAC vanished.
    stale: list[Oid] = []
    macs = set(switch.fdb)
    i = 0
    while True:
        try:
            nxt, _ = store.get_next(O.DOT1D_TP_FDB_ADDRESS if i == 0 else nxt)
        except NoSuchObjectError:
            break
        if not nxt.starts_with(O.DOT1D_TP_FDB_ADDRESS):
            break
        i += 1
        from repro.netsim.address import MacAddress

        mac = MacAddress((_suffix_to_int(nxt.suffix_after(O.DOT1D_TP_FDB_ADDRESS))))
        if mac not in macs:
            stale.append(nxt)
    for dead in stale:
        suffix = dead.suffix_after(O.DOT1D_TP_FDB_ADDRESS)
        store.remove(O.DOT1D_TP_FDB_ADDRESS + suffix)
        store.remove(O.DOT1D_TP_FDB_PORT + suffix)
        store.remove(O.DOT1D_TP_FDB_STATUS + suffix)
    _rebuild_fdb_rows(store, switch)


def _suffix_to_int(suffix: tuple[int, ...]) -> int:
    v = 0
    for b in suffix:
        v = (v << 8) | b
    return v
