"""Wireless Collector: cell topology and roaming from AP association
tables.

The paper lists this collector as under development (§3.1: "a collector
for wireless LANs (802.11)"); §6.2 names mobile-host support as the
driving requirement.  The design follows the Bridge Collector's shape —
walk management tables over SNMP at startup, answer location queries
from a database, monitor continuously — but the source of truth is the
basestation *association table* rather than a forwarding database, and
locations change at handoff speed rather than re-cabling speed.

Per-station bandwidth estimates use the shared-medium model: a cell's
air rate divides max-min-style among its associated stations, which is
what the virtual-switch representation of the cell implies for the
Modeler's flow calculations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import QueryError, SnmpError, TopologyError
from repro.netsim.address import IPv4Address, MacAddress
from repro.netsim.topology import Network
from repro.snmp import oid as O
from repro.snmp.agent import SnmpWorld
from repro.snmp.client import SnmpClient


@dataclass
class CellInfo:
    """One basestation's state as last scanned."""

    name: str
    management_ip: IPv4Address
    air_rate_bps: float
    stations: tuple[MacAddress, ...]

    @property
    def station_count(self) -> int:
        return len(self.stations)

    def expected_share_bps(self) -> float:
        """Fair share of the air rate for one more station's flow."""
        return self.air_rate_bps / (self.station_count + 1)


class WirelessCollector:
    """Tracks which cell each wireless station is in."""

    def __init__(
        self,
        name: str,
        net: Network,
        world: SnmpWorld,
        source_ip: IPv4Address | str,
        basestation_ips: dict[str, IPv4Address],
        community: str = "public",
    ) -> None:
        self.name = name
        self.net = net
        self.client = SnmpClient(world, source_ip, community)
        self.basestation_ips = dict(basestation_ips)
        self.cells: dict[str, CellInfo] = {}
        self._station_cell: dict[MacAddress, str] = {}
        self.handoffs_seen = 0

    # -- discovery -------------------------------------------------------

    def scan(self) -> dict[str, CellInfo]:
        """Walk every AP's association table; rebuild the database.

        Unreachable APs simply drop out (their stations become
        unlocatable until they reappear) — the degraded-answer
        behaviour §6.2 asks for.
        """
        cells: dict[str, CellInfo] = {}
        station_cell: dict[MacAddress, str] = {}
        for name, ip in sorted(self.basestation_ips.items()):
            try:
                rate = float(self.client.get(ip, O.WLAN_AIR_RATE))
                rows = self.client.bulk_walk(ip, O.WLAN_ASSOC_STATION)
            except SnmpError:
                continue
            macs = tuple(
                sorted((MacAddress(str(v)) for _, v in rows), key=lambda m: m.value)
            )
            cells[name] = CellInfo(name, ip, rate, macs)
            for mac in macs:
                station_cell[mac] = name
        # count moves relative to the previous scan
        for mac, cell in station_cell.items():
            old = self._station_cell.get(mac)
            if old is not None and old != cell:
                self.handoffs_seen += 1
        self.cells = cells
        self._station_cell = station_cell
        return cells

    # -- queries -------------------------------------------------------------

    def locate(self, mac: MacAddress) -> CellInfo:
        """The cell a station is associated with (from the last scan)."""
        if not self.cells:
            self.scan()
        cell_name = self._station_cell.get(mac)
        if cell_name is None:
            raise TopologyError(f"station {mac} is not associated anywhere")
        return self.cells[cell_name]

    def expected_bandwidth(self, mac: MacAddress) -> float:
        """Fair-share bandwidth estimate for a station in its cell."""
        cell = self.locate(mac)
        if cell.station_count == 0:
            raise QueryError(f"cell {cell.name} reports no stations")
        return cell.air_rate_bps / cell.station_count

    def monitor_tick(self) -> int:
        """One monitoring round: rescan, return handoffs seen so far."""
        before = self.handoffs_seen
        self.scan()
        return self.handoffs_seen - before
