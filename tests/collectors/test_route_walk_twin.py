"""Route-table walks against the code they replaced.

``Discovery`` decodes an ``ipCidrRouteTable`` / ``ipRouteTable`` index
straight to ints and files the rows in its prefix table by int, where it
used to make an ``IPv4Network`` and up to two ``IPv4Address`` objects a
row.  The oracle is the previous pair of walks, kept verbatim below
with the two constructors they called (deleted with them): over valid
and malformed rows alike, the entries, the rows skipped, the
``collectors.snmp.malformed_rows`` counts and the longest-prefix match
must be the same.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, cast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.common.errors import QueryError
from repro.collectors.discovery import Discovery, DiscoveryState, RouteEntry
from repro.collectors.snmp_collector import SnmpCollectorConfig
from repro.netsim.address import IPv4Address, IPv4Network, PrefixTable
from repro.snmp import oid as O

# -- the oracle: the previous code, verbatim ---------------------------------


def _from_octets(octets: Sequence[int]) -> IPv4Address:
    """The address spelled as four octets, most significant first
    (an SNMP row index read back); anything else is a ValueError."""
    if len(octets) == 4:
        a, b, c, d = octets
        if 0 <= a <= 255 and 0 <= b <= 255 and 0 <= c <= 255 and 0 <= d <= 255:
            return IPv4Address((a << 24) | (b << 16) | (c << 8) | d)
    raise ValueError(f"bad IPv4 octets {tuple(octets)!r}")


def _from_netmask(address: IPv4Address, netmask: IPv4Address) -> IPv4Network:
    hostmask = netmask.value ^ 0xFFFFFFFF
    if hostmask & (hostmask + 1):
        raise ValueError(f"netmask {netmask} is not contiguous")
    return IPv4Network(address, 32 - hostmask.bit_length())


@dataclass
class _ParentRouteEntry:
    prefix: IPv4Network
    next_hop: IPv4Address | None  # None = directly attached
    ifindex: int


class _ParentWalk:
    def __init__(self, client: Any) -> None:
        self.client = client

    def _walk_cidr_routes(self, router_ip: str) -> list[_ParentRouteEntry]:
        ifidx = self.client.table_column(router_ip, O.IP_CIDR_ROUTE_IF_INDEX)
        types = self.client.table_column(router_ip, O.IP_CIDR_ROUTE_TYPE)
        entries: list[_ParentRouteEntry] = []
        for suffix, idx in ifidx.items():
            # index = (dest, mask, tos, next hop), four octets each but tos
            try:
                if len(suffix) != 13:
                    raise ValueError(f"ipCidrRouteTable index of {len(suffix)} sub-ids")
                prefix = _from_netmask(
                    _from_octets(suffix[0:4]),
                    _from_octets(suffix[4:8]),
                )
                hop = _from_octets(suffix[9:13])
            except ValueError:
                # malformed row on a buggy agent: the rest still routes
                obs.counter("collectors.snmp.malformed_rows", table="cidr").inc()
                continue
            local = types.get(suffix) == O.CIDR_TYPE_LOCAL
            entries.append(_ParentRouteEntry(prefix, None if local else hop, int(cast(int, idx))))
        return entries

    def _walk_legacy_routes(self, router_ip: str) -> list[_ParentRouteEntry]:
        hops = self.client.table_column(router_ip, O.IP_ROUTE_NEXT_HOP)
        masks = self.client.table_column(router_ip, O.IP_ROUTE_MASK)
        ifidx = self.client.table_column(router_ip, O.IP_ROUTE_IF_INDEX)
        types = self.client.table_column(router_ip, O.IP_ROUTE_TYPE)
        entries: list[_ParentRouteEntry] = []
        for suffix, hop in hops.items():
            mask = masks.get(suffix)
            idx = ifidx.get(suffix)
            if mask is None or idx is None:
                continue
            try:
                # addresses come as text or as addresses, agent by agent
                prefix = _from_netmask(
                    _from_octets(suffix), IPv4Address(cast(str, mask))
                )
                direct = types.get(suffix) == O.ROUTE_TYPE_DIRECT
                next_hop = None if direct else IPv4Address(cast(str, hop))
            except ValueError:
                obs.counter("collectors.snmp.malformed_rows", table="legacy").inc()
                continue
            entries.append(_ParentRouteEntry(prefix, next_hop, int(cast(int, idx))))
        return entries


# -- rows, valid and malformed --------------------------------------------------

_U32 = st.integers(0, 2**32 - 1)
_MASKS = st.integers(0, 32).map(lambda plen: (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF)


def _octets(v: int) -> tuple[int, ...]:
    return tuple(v.to_bytes(4, "big"))


@st.composite
def _dest_and_mask(draw: st.DrawFn) -> tuple[int, int]:
    """Mostly a well-formed prefix; sometimes host bits under the mask
    or a mask with holes."""
    mask = draw(st.one_of(_MASKS, _MASKS, _MASKS, _U32))
    dest = draw(_U32)
    if draw(st.booleans()):
        dest &= mask
    return dest, mask


def _spoil(draw: st.DrawFn, index: tuple[int, ...]) -> tuple[int, ...]:
    """The index, or one of its sub-ids pushed over 255, or cut short."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "big", "short", "long"]))
    if how == "big" and index:
        k = draw(st.integers(0, len(index) - 1))
        return index[:k] + (draw(st.integers(256, 999)),) + index[k + 1 :]
    if how == "short" and index:
        return index[: draw(st.integers(0, len(index) - 1))]
    if how == "long":
        return index + (draw(st.integers(0, 255)),)
    return index


@st.composite
def _cidr_columns(draw: st.DrawFn) -> dict[tuple[int, ...], dict[tuple[int, ...], object]]:
    ifidx: dict[tuple[int, ...], object] = {}
    types: dict[tuple[int, ...], object] = {}
    for _ in range(draw(st.integers(0, 10))):
        dest, mask = draw(_dest_and_mask())
        tos = draw(st.one_of(st.just(0), st.integers(0, 999)))  # tos is never checked
        index = _spoil(draw, _octets(dest) + _octets(mask) + (tos,) + _octets(draw(_U32)))
        ifidx[index] = draw(st.integers(1, 12))
        if draw(st.integers(0, 4)):
            types[index] = draw(st.sampled_from([O.CIDR_TYPE_LOCAL, O.CIDR_TYPE_REMOTE, 1]))
    return {O.IP_CIDR_ROUTE_IF_INDEX.parts: ifidx, O.IP_CIDR_ROUTE_TYPE.parts: types}


def _address_value() -> st.SearchStrategy[object]:
    """An address as an agent may send it: text (well- or ill-formed),
    an int in or out of range, or an address object."""
    text = _U32.map(lambda v: str(IPv4Address(v)))
    junk = st.sampled_from(["", "10.0.0", "10.0.0.256", "a.b.c.d", "10.0.0.1_0", " 10.0.0.1"])
    return st.one_of(text, text, text, _MASKS.map(lambda m: str(IPv4Address(m))), junk,
                     st.integers(-5, 2**32 + 5), _U32.map(IPv4Address))


@st.composite
def _legacy_columns(draw: st.DrawFn) -> dict[tuple[int, ...], dict[tuple[int, ...], object]]:
    hops: dict[tuple[int, ...], object] = {}
    masks: dict[tuple[int, ...], object] = {}
    ifidx: dict[tuple[int, ...], object] = {}
    types: dict[tuple[int, ...], object] = {}
    for _ in range(draw(st.integers(0, 10))):
        dest, mask = draw(_dest_and_mask())
        index = _spoil(draw, _octets(dest))
        hops[index] = draw(_address_value())
        if draw(st.integers(0, 5)):  # a row with no mask or no ifIndex is passed over
            masks[index] = str(IPv4Address(mask)) if draw(st.booleans()) else draw(_address_value())
        if draw(st.integers(0, 5)):
            ifidx[index] = draw(st.integers(1, 12))
        if draw(st.integers(0, 4)):
            types[index] = draw(st.sampled_from([O.ROUTE_TYPE_DIRECT, O.ROUTE_TYPE_INDIRECT, 1]))
    return {
        O.IP_ROUTE_NEXT_HOP.parts: hops,
        O.IP_ROUTE_MASK.parts: masks,
        O.IP_ROUTE_IF_INDEX.parts: ifidx,
        O.IP_ROUTE_TYPE.parts: types,
    }


class _Columns:
    """What an agent's table columns read, and nothing else."""

    def __init__(self, columns: dict[tuple[int, ...], dict[tuple[int, ...], object]]) -> None:
        self.columns = columns

    def table_column(self, ip: str, column: O.Oid) -> dict[tuple[int, ...], object]:
        return dict(self.columns.get(column.parts, {}))


def _twin(columns, walk: str):
    """(entries, malformed counts, discovery) from the walk and from its oracle."""
    client = _Columns(columns)
    with obs.scoped_registry() as reg:
        parent = getattr(_ParentWalk(client), walk)("r")
        parent_bad = {t: reg.counter("collectors.snmp.malformed_rows", table=t).value
                      for t in ("cidr", "legacy")}
    discovery = Discovery(client, SnmpCollectorConfig(domains=[], gateways=[]), {})
    with obs.scoped_registry() as reg:
        rows = getattr(discovery, walk)("r")
        bad = {t: reg.counter("collectors.snmp.malformed_rows", table=t).value
               for t in ("cidr", "legacy")}
    return parent, parent_bad, rows, bad, discovery


def _check(columns, walk: str, probes: list[int]) -> None:
    parent, parent_bad, rows, bad, discovery = _twin(columns, walk)
    assert bad == parent_bad
    entries = [RouteEntry._make(r) for r in rows]
    assert [(e.prefix, e.next_hop, e.ifindex) for e in entries] == [
        (e.prefix, e.next_hop, e.ifindex) for e in parent
    ]
    # filed by int, matched as the objects were
    oracle = PrefixTable((e.prefix, e) for e in parent)
    discovery.state = DiscoveryState()
    for v in probes + [e.prefix.network_int for e in parent]:
        want = oracle.match(IPv4Address(v))
        try:
            got = discovery.lpm("r", IPv4Address(v))
        except QueryError:
            assert want is None
        else:
            assert want is not None
            assert got.prefix == want.prefix
            assert (got.next_hop, got.ifindex) == (want.next_hop, want.ifindex)


class TestRouteWalkTwin:
    @settings(max_examples=300, deadline=None)
    @given(_cidr_columns(), st.lists(_U32, max_size=5))
    def test_cidr_rows(self, columns, probes):
        _check(columns, "_walk_cidr_routes", probes)

    @settings(max_examples=300, deadline=None)
    @given(_legacy_columns(), st.lists(_U32, max_size=5))
    def test_legacy_rows(self, columns, probes):
        _check(columns, "_walk_legacy_routes", probes)
