"""Minimal IPv4 addressing.

A from-scratch, integer-backed IPv4 implementation: enough for routing
table longest-prefix match, SNMP OID suffix encoding, and the network
partitioning the Master Collector performs.  (We do not use the stdlib
``ipaddress`` module: these objects are created in bulk during topology
construction and route discovery, and need to be cheap, hashable, and
directly convertible to OID index tuples.)  Where an address is
already an int — a route row, an index read back — the module-level
functions spell and check it without making an object.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import total_ordering
from typing import Generic, TypeVar

V = TypeVar("V")

#: every spelling of an octet a dotted part may take (1-3 ASCII digits, "010" is 10):
#: one probe checks and converts, where int() also takes signs, blanks and "1_0"
_OCTET = {f"{i:0{width}d}": i for width in (1, 2, 3) for i in range(min(256, 10**width))}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _parse_dotted(s: str) -> int:
    parts = s.split(".")
    if len(parts) == 4:
        a, b, c, d = parts
        try:
            return (_OCTET[a] << 24) | (_OCTET[b] << 16) | (_OCTET[c] << 8) | _OCTET[d]
        except KeyError:
            pass
    raise ValueError(f"bad IPv4 address {s!r}")


def ipv4_text(value: int) -> str:
    """The dotted quad of an address held as its int."""
    return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def ipv4_octets(value: int) -> tuple[int, int, int, int]:
    """The four octets of an address held as its int, most significant
    first (the SNMP row index)."""
    return (value >> 24, value >> 16 & 255, value >> 8 & 255, value & 255)


def netmask_prefixlen(address: int, netmask: int) -> int:
    """The prefix length of a route written as base address and
    netmask, both as ints.

    ValueError for a mask whose one-bits are not contiguous from the
    top (``255.0.255.0``) and for host bits set under it.
    """
    hostmask = netmask ^ 0xFFFFFFFF
    if hostmask & (hostmask + 1):
        raise ValueError(f"netmask {ipv4_text(netmask)} is not contiguous")
    if address & hostmask:
        raise ValueError(f"{ipv4_text(address)} has host bits set under {ipv4_text(netmask)}")
    return 32 - hostmask.bit_length()


@total_ordering
class IPv4Address:
    """An IPv4 address backed by a single int.

    Supports ordering, hashing, string round-trips, and conversion to
    the 4-int tuple SNMP uses to index table rows by address.  The
    dotted-quad form is memoised: collectors stringify addresses on
    every cache lookup, millions of times per large query.
    """

    __slots__ = ("_value", "_str")

    def __init__(self, addr: "int | str | IPv4Address") -> None:
        self._str: str | None = None
        if isinstance(addr, IPv4Address):
            self._value = addr._value
            self._str = addr._str
        elif isinstance(addr, int):
            if not 0 <= addr <= 0xFFFFFFFF:
                raise ValueError(f"IPv4 int out of range: {addr}")
            self._value = addr
        elif isinstance(addr, str):
            # not memoised from input: "010.1.2.3" parses but is not canonical
            self._value = _parse_dotted(addr)
        else:
            raise TypeError(f"cannot make IPv4Address from {type(addr).__name__}")

    @property
    def value(self) -> int:
        return self._value

    def octets(self) -> tuple[int, int, int, int]:
        """The four octets, most significant first (the SNMP row index)."""
        return ipv4_octets(self._value)

    def __str__(self) -> str:
        if self._str is None:
            self._str = ipv4_text(self._value)
        return self._str

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if isinstance(other, IPv4Address):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __int__(self) -> int:
        return self._value


@total_ordering
class IPv4Network:
    """A CIDR prefix, e.g. ``IPv4Network("10.1.2.0/24")``.

    Ordering sorts by (network address, prefix length) so more-specific
    prefixes with the same base sort after shorter ones.
    """

    __slots__ = ("_net", "_prefixlen")

    def __init__(
        self, spec: "str | IPv4Address | IPv4Network", prefixlen: int | None = None
    ) -> None:
        if isinstance(spec, IPv4Network):
            self._net, self._prefixlen = spec._net, spec._prefixlen
            return
        addr: str | IPv4Address = spec
        if prefixlen is None:
            if isinstance(spec, IPv4Address) or "/" not in spec:
                raise ValueError(f"network needs a /prefixlen: {spec!r}")
            addr, plen_s = spec.split("/", 1)
            if not (plen_s.isascii() and plen_s.isdigit()):
                raise ValueError(f"bad prefix length {plen_s!r}")
            prefixlen = int(plen_s)
        if not 0 <= prefixlen <= 32:
            raise ValueError(f"bad prefix length {prefixlen}")
        base = addr.value if isinstance(addr, IPv4Address) else _parse_dotted(addr)
        mask = self._mask_for(prefixlen)
        if base & ~mask & 0xFFFFFFFF:
            raise ValueError(f"{addr}/{prefixlen} has host bits set")
        self._net = base
        self._prefixlen = prefixlen

    @staticmethod
    def _mask_for(prefixlen: int) -> int:
        return (0xFFFFFFFF << (32 - prefixlen)) & 0xFFFFFFFF if prefixlen else 0

    @property
    def network_int(self) -> int:
        """The network address as its int."""
        return self._net

    @property
    def netmask_int(self) -> int:
        return self._mask_for(self._prefixlen)

    @property
    def prefixlen(self) -> int:
        return self._prefixlen

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self._prefixlen)

    def __contains__(self, addr: IPv4Address) -> bool:
        if not isinstance(addr, IPv4Address):
            return False
        return (addr.value & self._mask_for(self._prefixlen)) == self._net

    def host(self, index: int) -> IPv4Address:
        """The ``index``-th usable host address (1-based inside the prefix)."""
        if not 0 < index < self.num_addresses:
            raise ValueError(f"host index {index} out of range for /{self._prefixlen}")
        return IPv4Address(self._net + index)

    def hosts(self) -> "list[IPv4Address]":
        """All host addresses (excluding network and broadcast for /<31)."""
        if self._prefixlen >= 31:
            return [IPv4Address(self._net + i) for i in range(self.num_addresses)]
        return [IPv4Address(self._net + i) for i in range(1, self.num_addresses - 1)]

    def overlaps(self, other: "IPv4Network") -> bool:
        shorter, longer = (self, other) if self._prefixlen <= other._prefixlen else (other, self)
        return (longer._net & IPv4Network._mask_for(shorter._prefixlen)) == shorter._net

    def __str__(self) -> str:
        return f"{ipv4_text(self._net)}/{self._prefixlen}"

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Network):
            return (self._net, self._prefixlen) == (other._net, other._prefixlen)
        return NotImplemented

    def __lt__(self, other: "IPv4Network") -> bool:
        if isinstance(other, IPv4Network):
            return (self._net, self._prefixlen) < (other._net, other._prefixlen)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._net, self._prefixlen))


class PrefixTable(Generic[V]):
    """Rows filed under CIDR prefixes, matched by longest prefix.

    The one answer to *which prefix covers this address*: a router's
    forwarding table, the copy of it the SNMP Collector walks, a
    collector's host gateways and the Master's directory of who is
    responsible for what.  Indexed prefix length -> {network int ->
    row}: a match is one dict probe per distinct prefix length, most
    specific first, instead of a scan over every row, so its cost stays
    flat as a directory grows to thousands of sites.  Of rows filed
    under one prefix the first wins (first registration; route order),
    as in a linear scan that only a strictly longer prefix displaces.
    """

    __slots__ = ("_rows", "_by_len", "_levels")

    def __init__(self, rows: Iterable[tuple[IPv4Network, V]] = ()) -> None:
        self._rows: list[V] = []
        self._by_len: dict[int, dict[int, V]] = {}
        #: (netmask int, that length's {network int -> row}), most specific first
        self._levels: list[tuple[int, dict[int, V]]] = []
        for prefix, row in rows:
            self.insert(prefix, row)

    def insert(self, prefix: IPv4Network, row: V) -> None:
        self.file(prefix._net, prefix._prefixlen, row)

    def file(self, network: int, prefixlen: int, row: V) -> None:
        """:meth:`insert` for a prefix held as its ints, already checked
        (a length in 0-32, no host bits set)."""
        self._rows.append(row)
        nets = self._by_len.get(prefixlen)
        if nets is None:
            nets = self._by_len[prefixlen] = {}
            self._levels = [
                (IPv4Network._mask_for(plen), self._by_len[plen])
                for plen in sorted(self._by_len, reverse=True)
            ]
        nets.setdefault(network, row)

    def match(self, addr: IPv4Address) -> V | None:
        """The row of the longest prefix containing ``addr``, or None."""
        value = addr._value
        for mask, nets in self._levels:
            row = nets.get(value & mask)
            if row is not None:
                return row
        return None

    def __iter__(self) -> Iterator[V]:
        """Every row, shadowed duplicates included, in insertion order."""
        return iter(self._rows)


class MacAddress:
    """A 48-bit MAC address; hashable, comparable, printable."""

    __slots__ = ("_value",)

    def __init__(self, value: "int | str | MacAddress") -> None:
        if isinstance(value, MacAddress):
            self._value = value._value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFFFFFF:
                raise ValueError(f"MAC int out of range: {value}")
            self._value = value
        elif isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise ValueError(f"bad MAC {value!r}")
            v = 0
            for p in parts:
                # 1-2 hex digits: int(p, 16) alone takes "-1", "0x1", "1_0", ...
                if not (0 < len(p) <= 2 and _HEX_DIGITS.issuperset(p)):
                    raise ValueError(f"bad MAC {value!r}")
                v = (v << 8) | int(p, 16)
            self._value = v
        else:
            raise TypeError(f"cannot make MacAddress from {type(value).__name__}")

    @property
    def value(self) -> int:
        return self._value

    def octets(self) -> tuple[int, ...]:
        return tuple(self._value.to_bytes(6, "big"))

    def __str__(self) -> str:
        return self._value.to_bytes(6, "big").hex(":")

    def __repr__(self) -> str:
        return f"MacAddress({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "MacAddress") -> bool:
        if isinstance(other, MacAddress):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("mac", self._value))


class MacAllocator:
    """Hands out unique MAC addresses within one simulated world."""

    def __init__(self, oui: int = 0x02_00_5E) -> None:
        self._oui = oui
        self._next = 1

    def allocate(self) -> MacAddress:
        mac = MacAddress((self._oui << 24) | self._next)
        self._next += 1
        if self._next > 0xFFFFFF:
            raise RuntimeError("MAC allocator exhausted")
        return mac
