"""Object identifiers.

OIDs are immutable int tuples with the SNMP lexicographic total order
(component-wise, shorter-is-smaller on prefix ties) that GETNEXT walks
rely on.  Standard MIB-II and Bridge-MIB subtree constants used by the
collectors live here too.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator


def _checked(parts: "str | Iterable[int]") -> tuple[int, ...]:
    """The int tuple a caller spelled, every component non-negative."""
    if isinstance(parts, str):
        try:
            out = tuple(int(p) for p in parts.strip(".").split(".")) if parts else ()
        except ValueError:
            raise ValueError(f"bad OID string {parts!r}") from None
    else:
        out = tuple(int(p) for p in parts)
    if out and min(out) < 0:
        raise ValueError(f"OID components must be non-negative: {out}")
    return out


@total_ordering
class Oid:
    """An SNMP object identifier, e.g. ``Oid("1.3.6.1.2.1.2.2.1.10.3")``."""

    __slots__ = ("_parts",)

    def __init__(self, parts: "str | Iterable[int] | Oid") -> None:
        self._parts: tuple[int, ...] = (
            parts._parts if isinstance(parts, Oid) else _checked(parts)
        )

    @classmethod
    def _of_key(cls, parts: tuple[int, ...]) -> "Oid":
        """The OID over a tuple that is known good, skipping the checks.

        Only for parts that passed them already: the sum of two checked
        tuples in ``__add__``, and a key a :class:`~repro.snmp.mib.MibStore`
        holds (every key got there through ``Oid`` or the store's own
        check), minted back into the ``Oid`` of a returned varbind.
        """
        out = cls.__new__(cls)
        out._parts = parts
        return out

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def __add__(self, suffix: "str | Iterable[int] | int | Oid") -> "Oid":
        # Only the suffix is new: this OID's own parts were checked when
        # it was built.
        if isinstance(suffix, int):
            if suffix < 0:
                raise ValueError(f"OID components must be non-negative: {suffix}")
            return Oid._of_key(self._parts + (suffix,))
        tail = suffix._parts if isinstance(suffix, Oid) else _checked(suffix)
        return Oid._of_key(self._parts + tail)

    def starts_with(self, prefix: "Oid") -> bool:
        return self._parts[: len(prefix._parts)] == prefix._parts

    def suffix_after(self, prefix: "Oid") -> tuple[int, ...]:
        if not self.starts_with(prefix):
            raise ValueError(f"{self} does not start with {prefix}")
        return self._parts[len(prefix._parts):]

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __str__(self) -> str:
        return ".".join(str(p) for p in self._parts)

    def __repr__(self) -> str:
        return f"Oid({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Oid):
            return self._parts == other._parts
        return NotImplemented

    def __lt__(self, other: "Oid") -> bool:
        if isinstance(other, Oid):
            return self._parts < other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)


# -- MIB-II (RFC 1213) ---------------------------------------------------

MIB2 = Oid("1.3.6.1.2.1")

SYSTEM = MIB2 + "1"
SYS_DESCR = SYSTEM + "1.0"
SYS_OBJECT_ID = SYSTEM + "2.0"
SYS_NAME = SYSTEM + "5.0"

#: synthetic enterprises arc the simulated devices report as their
#: sysObjectID (1.3.6.1.4.1.<private>.<kind-code>)
SYS_OBJECT_ID_BASE = Oid("1.3.6.1.4.1.54321")

INTERFACES = MIB2 + "2"
IF_NUMBER = INTERFACES + "1.0"
IF_TABLE = INTERFACES + "2"
IF_ENTRY = IF_TABLE + "1"
IF_INDEX = IF_ENTRY + "1"
IF_DESCR = IF_ENTRY + "2"
IF_TYPE = IF_ENTRY + "3"
IF_SPEED = IF_ENTRY + "5"
IF_PHYS_ADDRESS = IF_ENTRY + "6"
IF_OPER_STATUS = IF_ENTRY + "8"
IF_IN_OCTETS = IF_ENTRY + "10"
IF_OUT_OCTETS = IF_ENTRY + "16"

IP = MIB2 + "4"
IP_FORWARDING = IP + "1.0"
# ipAddrTable: one row per address the device holds, indexed by it
IP_ADDR_TABLE = IP + "20"
IP_ADDR_ENTRY = IP_ADDR_TABLE + "1"
IP_AD_ENT_ADDR = IP_ADDR_ENTRY + "1"
IP_AD_ENT_IF_INDEX = IP_ADDR_ENTRY + "2"
IP_AD_ENT_NET_MASK = IP_ADDR_ENTRY + "3"
IP_ROUTE_TABLE = IP + "21"
IP_ROUTE_ENTRY = IP_ROUTE_TABLE + "1"
IP_ROUTE_DEST = IP_ROUTE_ENTRY + "1"
IP_ROUTE_IF_INDEX = IP_ROUTE_ENTRY + "2"
IP_ROUTE_NEXT_HOP = IP_ROUTE_ENTRY + "7"
IP_ROUTE_TYPE = IP_ROUTE_ENTRY + "8"
IP_ROUTE_MASK = IP_ROUTE_ENTRY + "11"

#: ipRouteType values (RFC 1213)
ROUTE_TYPE_DIRECT = 3
ROUTE_TYPE_INDIRECT = 4

# ipCidrRouteTable (RFC 2096): indexed by (dest, mask, tos, next hop),
# so overlapping prefixes with one network address coexist — the
# classic ipRouteTable, indexed by destination alone, cannot hold both
# 10.0.0.0/8 and 10.0.0.0/16.
IP_FORWARD = IP + "24"
IP_CIDR_ROUTE_TABLE = IP_FORWARD + "4"
IP_CIDR_ROUTE_ENTRY = IP_CIDR_ROUTE_TABLE + "1"
IP_CIDR_ROUTE_IF_INDEX = IP_CIDR_ROUTE_ENTRY + "5"
IP_CIDR_ROUTE_TYPE = IP_CIDR_ROUTE_ENTRY + "6"

#: ipCidrRouteType values
CIDR_TYPE_LOCAL = 3
CIDR_TYPE_REMOTE = 4

IP_NET_TO_MEDIA_TABLE = IP + "22"
IP_NET_TO_MEDIA_ENTRY = IP_NET_TO_MEDIA_TABLE + "1"
IP_NET_TO_MEDIA_IF_INDEX = IP_NET_TO_MEDIA_ENTRY + "1"
IP_NET_TO_MEDIA_PHYS_ADDRESS = IP_NET_TO_MEDIA_ENTRY + "2"
IP_NET_TO_MEDIA_NET_ADDRESS = IP_NET_TO_MEDIA_ENTRY + "3"

# -- Bridge-MIB (RFC 1493) ------------------------------------------------

DOT1D_BRIDGE = MIB2 + "17"
DOT1D_BASE = DOT1D_BRIDGE + "1"
DOT1D_BASE_BRIDGE_ADDRESS = DOT1D_BASE + "1.0"
DOT1D_BASE_NUM_PORTS = DOT1D_BASE + "2.0"
DOT1D_TP = DOT1D_BRIDGE + "4"
DOT1D_TP_FDB_TABLE = DOT1D_TP + "3"
DOT1D_TP_FDB_ENTRY = DOT1D_TP_FDB_TABLE + "1"
DOT1D_TP_FDB_ADDRESS = DOT1D_TP_FDB_ENTRY + "1"
DOT1D_TP_FDB_PORT = DOT1D_TP_FDB_ENTRY + "2"
DOT1D_TP_FDB_STATUS = DOT1D_TP_FDB_ENTRY + "3"

#: dot1dTpFdbStatus values
FDB_STATUS_LEARNED = 3
FDB_STATUS_SELF = 4

# -- wireless AP view (experimental subtree; mirrors IEEE 802.11 MIB
#    concepts: BSSID, operational rate, association table) ---------------

WLAN = Oid("1.3.6.1.3.11")
WLAN_BSSID = WLAN + "1.0"
WLAN_AIR_RATE = WLAN + "2.0"
WLAN_ASSOC_TABLE = WLAN + "3"
WLAN_ASSOC_ENTRY = WLAN_ASSOC_TABLE + "1"
WLAN_ASSOC_STATION = WLAN_ASSOC_ENTRY + "1"
