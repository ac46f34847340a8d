"""Remos collectors: SNMP, Bridge, Benchmark, and Master.

Collectors "acquire and consolidate the information needed by the
application" (paper §2.1).  The SNMP Collector handles routed networks,
the Bridge Collector switched Ethernet, the Benchmark Collector opaque
WANs; the Master Collector partitions queries across them and merges
the answers.
"""

from repro.collectors.base import (
    Collector,
    HistoryRequest,
    HistoryResponse,
    PairMeasurement,
    TopologyRequest,
    TopologyResponse,
)
from repro.collectors.benchmark_collector import BenchmarkCollector, BenchmarkConfig
from repro.collectors.bridge_collector import (
    Attachment,
    BridgeCollector,
    L2Database,
    L2Segment,
    infer_l2_topology,
)
from repro.collectors.directory import CollectorDirectory, Registration
from repro.collectors.master import MasterCollector
from repro.collectors.monitor import LinkMonitor, MonitorKey
from repro.collectors.slp import DirectoryAgent
from repro.collectors.snmp_collector import SnmpCollector, SnmpCollectorConfig
from repro.collectors.wireless_collector import CellInfo, WirelessCollector

__all__ = [
    "Collector",
    "HistoryRequest",
    "HistoryResponse",
    "PairMeasurement",
    "TopologyRequest",
    "TopologyResponse",
    "BenchmarkCollector",
    "BenchmarkConfig",
    "Attachment",
    "BridgeCollector",
    "L2Database",
    "L2Segment",
    "infer_l2_topology",
    "CollectorDirectory",
    "Registration",
    "MasterCollector",
    "LinkMonitor",
    "MonitorKey",
    "SnmpCollector",
    "SnmpCollectorConfig",
    "CellInfo",
    "WirelessCollector",
    "DirectoryAgent",
]
