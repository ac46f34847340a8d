"""A from-scratch mini-SNMP over the simulated network.

OIDs with the standard total order, MIB-II / Bridge-MIB views over
simulated devices (live counters read through to the fluid-flow state),
agents with community and source-ACL checks, and a client that charges
simulated round-trip time per PDU.
"""

from repro.snmp.oid import Oid
from repro.snmp.mib import MibStore, build_router_mib, build_switch_mib, refresh_switch_fdb
from repro.snmp.agent import SnmpAgent, SnmpWorld, instrument_network
from repro.snmp.client import SnmpClient

__all__ = [
    "Oid",
    "MibStore",
    "build_router_mib",
    "build_switch_mib",
    "refresh_switch_fdb",
    "SnmpAgent",
    "SnmpWorld",
    "instrument_network",
    "SnmpClient",
]
