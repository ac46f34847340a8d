"""MIB stores and device MIB builders.

A :class:`MibStore` is a sorted map from :class:`~repro.snmp.oid.Oid`
to a value *provider* — either a constant or a zero-argument callable
evaluated at read time (counters read the live simulation state).  The
store supports exact GET and lexicographic GETNEXT, which is all the
collectors need.

``build_router_mib`` / ``build_switch_mib`` populate stores from
simulated devices with the MIB-II subtrees the paper's SNMP Collector
reads (system, ifTable, ipAddrTable, ipRouteTable) and the Bridge-MIB
subtrees the Bridge Collector walks (dot1dBase, dot1dTpFdbTable).
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterable, Sequence

from repro.common.errors import NoSuchObjectError
from repro.netsim.address import IPv4Address, IPv4Network, MacAddress, ipv4_octets, ipv4_text
from repro.netsim.bridging import SELF_PORT
from repro.netsim.topology import Interface, Network, Node, Router, Switch
from repro.netsim.wireless import Basestation
from repro.snmp import oid as O
from repro.snmp.oid import Oid

#: a table row as the builders spell it: (row-index suffix, one
#: provider per column)
_Row = tuple[tuple[int, ...], Sequence[object]]


class MibStore:
    """Sorted OID -> provider map with GET / GETNEXT semantics.

    Entries are keyed by the OID's int tuple, in the dict and in the
    sorted index alike, so hashing, comparing and bisecting run in C; an
    :class:`Oid` exists only for what a read returns.  A device MIB is
    loaded with hundreds of cells and then only read, so new keys are
    appended and the index is sorted once, by the first operation that
    needs the order.

    A table can also be registered unloaded, with :meth:`defer`: the
    first operation that could reach a key under its root loads it, so
    every answer is the one the loaded table gives, and a table nobody
    reads costs nothing.
    """

    def __init__(self) -> None:
        self._keys: list[tuple[int, ...]] = []
        self._values: dict[tuple[int, ...], object] = {}
        self._sorted = True
        #: (root key, end of its subtree, loader) of tables not yet loaded
        self._deferred: list[
            tuple[tuple[int, ...], tuple[int, ...], Callable[[MibStore], None]]
        ] = []

    def defer(self, root: Oid, load: Callable[[MibStore], None]) -> None:
        """Register the table under ``root`` unloaded: ``load(store)``
        puts its cells, before the first operation that could reach
        one of them."""
        key = root.parts
        self._deferred.append((key, _subtree_end(key), load))

    def _load(self, lo: tuple[int, ...], hi: tuple[int, ...] | None) -> bool:
        """Load every deferred table whose subtree meets the key range
        ``[lo, hi)`` (``hi`` None: no upper end); whether any was.

        Each table loads as at the moment it was deferred: the tables
        deferred after it are out of reach of its puts, and those
        deferred before it that its puts reach load first.
        """
        deferred = self._deferred
        loaded = False
        i = 0
        while i < len(deferred):
            root, end, load = deferred[i]
            if lo < end and (hi is None or root < hi):
                later = deferred[i + 1 :]
                del deferred[i:]
                load(self)
                i = len(deferred)
                deferred.extend(later)
                loaded = True
            else:
                i += 1
        return loaded

    def put(self, oid: Oid, provider: object) -> None:
        """Insert or replace an entry; callables are evaluated on read."""
        self.put_column(oid, (((), provider),))

    def put_column(
        self, column: Oid, cells: Iterable[tuple[tuple[int, ...], object]]
    ) -> None:
        """Insert or replace the cells of one table column.

        Each cell is ``(row-index suffix, provider)`` and lands at
        ``column + suffix``, with no :class:`Oid` made for it.  A
        negative component in a suffix raises :class:`ValueError`, as
        ``Oid.__add__`` does; the cells before it stay loaded.
        """
        base = column.parts
        if self._deferred:
            self._load(base, _subtree_end(base))
        keys, values = self._keys, self._values
        for suffix, provider in cells:
            if suffix and min(suffix) < 0:
                raise ValueError(f"OID components must be non-negative: {suffix}")
            key = base + suffix
            if key not in values:
                keys.append(key)
                self._sorted = False
            values[key] = provider

    def _index(self) -> list[tuple[int, ...]]:
        """The keys in lexicographic order."""
        if not self._sorted:
            self._keys.sort()
            self._sorted = True
        return self._keys

    def remove(self, oid: Oid) -> None:
        key = oid.parts
        if self._deferred:
            self._load(key, key + (0,))
        if key in self._values:
            del self._values[key]
            keys = self._index()
            keys.pop(bisect.bisect_left(keys, key))

    def get(self, oid: Oid) -> object:
        """Exact read; raises NoSuchObjectError for missing OIDs."""
        if self._deferred:
            self._load(oid.parts, oid.parts + (0,))
        try:
            v = self._values[oid.parts]
        except KeyError:
            raise NoSuchObjectError(str(oid)) from None
        return v() if callable(v) else v

    def get_next(self, oid: Oid) -> tuple[Oid, object]:
        """First entry strictly after ``oid``; raises at end of MIB."""
        found = self.get_next_n(oid, 1)
        if not found:
            raise NoSuchObjectError(f"end of MIB after {oid}")
        return found[0]

    def get_next_n(self, oid: Oid, n: int) -> list[tuple[Oid, object]]:
        """What ``n`` successive :meth:`get_next` calls from ``oid``
        return, stopping without error at the end of the MIB; nothing
        for ``n <= 0``."""
        if n <= 0:
            return []
        start = oid.parts
        keys = self._index()
        i = bisect.bisect_right(keys, start)
        # the answer is the n loaded keys after ``start`` unless a
        # deferred table could hold one before the last of them
        while self._deferred:
            end = keys[i + n - 1] + (0,) if i + n <= len(keys) else None
            if not self._load(start + (0,), end):
                break
            keys = self._index()
            i = bisect.bisect_right(keys, start)
        values = self._values
        out: list[tuple[Oid, object]] = []
        for key in keys[i : i + n]:
            v = values[key]
            out.append((Oid._of_key(key), v() if callable(v) else v))
        return out

    def oids(self) -> list[Oid]:
        """Every OID held, in lexicographic order."""
        if self._deferred:
            self._load((), None)
        return [Oid._of_key(key) for key in self._index()]

    def __len__(self) -> int:
        if self._deferred:
            self._load((), None)
        return len(self._values)

    def __contains__(self, oid: Oid) -> bool:
        if self._deferred:
            self._load(oid.parts, oid.parts + (0,))
        return oid.parts in self._values


def _subtree_end(key: tuple[int, ...]) -> tuple[int, ...]:
    """The least key after every key under ``key``: its last component
    one higher."""
    return key[:-1] + (key[-1] + 1,)


def _put_rows(store: MibStore, columns: Sequence[Oid], rows: Sequence[_Row]) -> None:
    """Load a table spelled row by row, a column at a time."""
    for k, column in enumerate(columns):
        store.put_column(column, [(index, values[k]) for index, values in rows])


def _row_indexes(store: MibStore, column: Oid) -> list[tuple[int, ...]]:
    """The row-index suffixes present under ``column``, in MIB order."""
    return [o.suffix_after(column) for o in store.oids() if o.starts_with(column)]


#: sysObjectID kind codes under :data:`repro.snmp.oid.SYS_OBJECT_ID_BASE`
_KIND_CODE = {"host": 1, "router": 2, "switch": 3, "hub": 4, "basestation": 5}

_IF_COLUMNS = (
    O.IF_INDEX,
    O.IF_DESCR,
    O.IF_TYPE,
    O.IF_SPEED,
    O.IF_PHYS_ADDRESS,
    O.IF_OPER_STATUS,
    O.IF_IN_OCTETS,
    O.IF_OUT_OCTETS,
)
_ADDR_COLUMNS = (O.IP_AD_ENT_ADDR, O.IP_AD_ENT_IF_INDEX, O.IP_AD_ENT_NET_MASK)
_ROUTE_COLUMNS = (
    O.IP_ROUTE_DEST,
    O.IP_ROUTE_IF_INDEX,
    O.IP_ROUTE_MASK,
    O.IP_ROUTE_NEXT_HOP,
    O.IP_ROUTE_TYPE,
)
_CIDR_ROUTE_COLUMNS = (O.IP_CIDR_ROUTE_IF_INDEX, O.IP_CIDR_ROUTE_TYPE)
_ARP_COLUMNS = (
    O.IP_NET_TO_MEDIA_IF_INDEX,
    O.IP_NET_TO_MEDIA_PHYS_ADDRESS,
    O.IP_NET_TO_MEDIA_NET_ADDRESS,
)
_FDB_COLUMNS = (O.DOT1D_TP_FDB_ADDRESS, O.DOT1D_TP_FDB_PORT, O.DOT1D_TP_FDB_STATUS)


def _put_if_table(store: MibStore, device: Node, net: Network) -> None:
    """Populate system + ifTable rows for any device."""
    store.put(O.SYS_DESCR, f"repro simulated {device.kind}")
    # sysObjectID identifies the device model; point it at a synthetic
    # per-kind OID so collectors can tell device classes apart
    store.put(O.SYS_OBJECT_ID, str(O.SYS_OBJECT_ID_BASE + _KIND_CODE.get(device.kind, 0)))
    store.put(O.SYS_NAME, device.name)
    store.put(O.IF_NUMBER, len(device.interfaces))
    rows: list[_Row] = [
        (
            (iface.index,),
            (
                iface.index,
                iface.name,
                6,  # ethernetCsmacd
                lambda i=iface: int(i.speed_bps),
                str(iface.mac),
                lambda i=iface: 1 if i.link else 2,
                # round, not truncate: the fluid byte count of a
                # whole-byte transfer sits an ulp either side of the
                # whole number depending on the instant it ran, and must
                # read the same at any instant
                lambda i=iface, n=net: round(i.in_octets(n.now)),
                lambda i=iface, n=net: round(i.out_octets(n.now)),
            ),
        )
        for iface in device.interfaces
    ]
    _put_rows(store, _IF_COLUMNS, rows)


def on_link_stations(net: Network) -> dict[IPv4Network, list[Interface]]:
    """For each subnet in use, the attached interfaces addressed in it.

    What a router's ARP table on that subnet holds; computed once per
    network so that every router's MIB can be built from it.  A detached
    interface (``link is None``) is in no list: its ARP entry has aged
    out.
    """
    own: dict[IPv4Network, list[Interface]] = {}
    for iface in net.addressed_interfaces():
        if iface.network is None:
            continue
        members = own.setdefault(iface.network, [])
        if iface.link is not None:
            members.append(iface)
    # Overlapping prefixes (10.0.0.0/8 beside 10.0.0.0/16): a station is
    # on link in every subnet that contains its address, not only its
    # own.  Sorted, the subnets inside one follow it without a gap.
    subnets = sorted(own)
    stations = {subnet: list(own[subnet]) for subnet in subnets}
    for i, outer in enumerate(subnets):
        for inner in subnets[i + 1 :]:
            if not outer.overlaps(inner):
                break
            stations[outer].extend(own[inner])
            stations[inner].extend(
                s for s in own[outer] if s.ip is not None and s.ip in inner
            )
    return stations


def build_router_mib(
    router: Router,
    net: Network,
    stations: dict[IPv4Network, list[Interface]] | None = None,
) -> MibStore:
    """MIB-II view of a router: system, ifTable, ipAddrTable, the route
    tables and ipNetToMediaTable.

    ipAddrTable names the interface and mask of each address the router
    holds.  Route rows are indexed by destination network address, as
    in RFC 1213 (and by destination, mask, TOS and next hop in the
    RFC 2096 ipCidrRouteTable); the collector walks their next-hop,
    ifIndex and mask columns to rebuild the forwarding table and do its
    own longest-prefix matching.  Both route tables hold ``router.routes``
    as it is now, and are loaded into the store when first reached.

    ``stations`` is :func:`on_link_stations` of ``net``, for a caller
    that builds many routers of one network; worked out here otherwise.
    """
    store = MibStore()
    _put_if_table(store, router, net)
    store.put(O.IP_FORWARDING, 1)  # acting as a gateway
    addrs: list[_Row] = [
        (
            iface.ip.octets(),
            (str(iface.ip), iface.index, ipv4_text(iface.network.netmask_int)),
        )
        for iface in router.interfaces
        if iface.ip is not None and iface.network is not None
    ]
    _put_rows(store, _ADDR_COLUMNS, addrs)
    routes = list(router.routes)
    store.defer(O.IP_ROUTE_TABLE, lambda s: _put_rows(s, _ROUTE_COLUMNS, _route_rows(routes)))
    if router.supports_cidr_mib:
        store.defer(
            O.IP_CIDR_ROUTE_TABLE,
            lambda s: _put_rows(s, _CIDR_ROUTE_COLUMNS, _cidr_route_rows(routes)),
        )

    # ipNetToMediaTable: the router's ARP view of its attached subnets.
    # A steady-state router has seen every on-link station, so one row
    # per addressed interface in each directly attached network.
    if stations is None:
        stations = on_link_stations(net)
    arp: list[_Row] = []
    for iface in router.interfaces:
        if iface.network is None:
            continue
        for other in stations[iface.network]:
            if other.device is router or other.ip is None:
                continue
            index = (iface.index,) + other.ip.octets()
            arp.append((index, (iface.index, str(other.mac), str(other.ip))))
    _put_rows(store, _ARP_COLUMNS, arp)
    return store


#: a forwarding-table row of :attr:`Router.routes`: (prefix, next hop
#: or None when directly attached, outgoing interface)
_Route = tuple[IPv4Network, IPv4Address | None, Interface]


def _route_hop(next_hop: IPv4Address | None, out_iface: Interface) -> IPv4Address | None:
    """A route's next hop; on a direct route, the router's own interface address."""
    return out_iface.ip if next_hop is None else next_hop


def _route_rows(routes: list[_Route]) -> list[_Row]:
    """ipRouteTable rows, indexed by destination network address."""
    rows: list[_Row] = []
    for prefix, next_hop, out_iface in routes:
        # the prefix's own ints: a route row mints no address to spell them
        dest = prefix.network_int
        hop = _route_hop(next_hop, out_iface)
        route_type = O.ROUTE_TYPE_DIRECT if next_hop is None else O.ROUTE_TYPE_INDIRECT
        rows.append((
            ipv4_octets(dest),
            (
                ipv4_text(dest),
                out_iface.index,
                ipv4_text(prefix.netmask_int),
                str(hop) if hop is not None else "0.0.0.0",
                route_type,
            ),
        ))
    return rows


def _cidr_route_rows(routes: list[_Route]) -> list[_Row]:
    """ipCidrRouteTable rows, indexed by (dest, mask, tos=0, next hop)."""
    rows: list[_Row] = []
    for prefix, next_hop, out_iface in routes:
        hop = _route_hop(next_hop, out_iface)
        hop_octets = hop.octets() if hop is not None else (0, 0, 0, 0)
        cidr_type = O.CIDR_TYPE_LOCAL if next_hop is None else O.CIDR_TYPE_REMOTE
        index = ipv4_octets(prefix.network_int) + ipv4_octets(prefix.netmask_int)
        rows.append((index + (0,) + hop_octets, (out_iface.index, cidr_type)))
    return rows


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
    rows: list[_Row] = [
        (
            mac.octets(),
            (
                str(mac),
                lambda sw=switch, m=mac: sw.fdb.get(m, 0),
                O.FDB_STATUS_SELF if port == SELF_PORT else O.FDB_STATUS_LEARNED,
            ),
        )
        for mac, port in switch.fdb.items()
    ]
    _put_rows(store, _FDB_COLUMNS, rows)


def build_basestation_mib(bs: Basestation, net: Network) -> MibStore:
    """Wireless AP view: BSSID, air rate, and the association table.

    The association table holds one row per station associated when the
    MIB was built; :func:`refresh_basestation_assoc` re-syncs it after
    stations roam.
    """
    store = MibStore()
    _put_if_table(store, bs, net)
    store.put(O.WLAN_BSSID, str(bs.interfaces[0].mac) if bs.interfaces else "")
    store.put(O.WLAN_AIR_RATE, lambda b=bs: int(b.air_rate_bps))
    refresh_basestation_assoc(store, bs)
    return store


def refresh_basestation_assoc(store: MibStore, bs: Basestation) -> None:
    """Re-sync the association table rows with live associations."""
    live = set(bs.associated_stations())
    # drop rows for stations that roamed away
    for suffix in _row_indexes(store, O.WLAN_ASSOC_STATION):
        if MacAddress(_suffix_to_int(suffix)) not in live:
            store.remove(O.WLAN_ASSOC_STATION + suffix)
    store.put_column(O.WLAN_ASSOC_STATION, [(mac.octets(), str(mac)) for mac in live])


def refresh_switch_fdb(store: MibStore, switch: Switch) -> None:
    """Re-sync FDB rows after entries were added/removed (host moves).

    Port changes for existing MACs are already live (the port column is
    a read-through callable); this handles row creation/deletion.
    """
    # Remove rows whose MAC vanished.
    for suffix in _row_indexes(store, O.DOT1D_TP_FDB_ADDRESS):
        if MacAddress(_suffix_to_int(suffix)) not in switch.fdb:
            for column in _FDB_COLUMNS:
                store.remove(column + suffix)
    _rebuild_fdb_rows(store, switch)


def _suffix_to_int(suffix: tuple[int, ...]) -> int:
    v = 0
    for b in suffix:
        v = (v << 8) | b
    return v
