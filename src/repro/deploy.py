"""Deployment glue: wire a full Remos stack onto a simulated network.

This is the "Figure 2" of the reproduction: per site, a Bridge
Collector (where the LAN is switched), an SNMP Collector, and a
Benchmark Collector; one Master Collector with the directory; one
Modeler bound to the Master.  Helpers build the standard deployments:

* :func:`deploy_lan` — single-site deployment over a
  :class:`~repro.netsim.builders.SwitchedLan` or
  :class:`~repro.netsim.builders.HubLan` (Fig. 3 experiments).
* :func:`deploy_wan` — one site per
  :class:`~repro.netsim.builders.WanWorld` site, benchmark collectors
  fully peered (mirror/video experiments).
* :func:`deploy_remos` — the general form, from explicit
  :class:`SiteConfig` records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.common.errors import TopologyError
from repro.netsim.address import IPv4Address, IPv4Network
from repro.netsim.builders import Campus, HubLan, SwitchedLan, WanWorld, WirelessLan
from repro.netsim.topology import Host, Network, Switch
from repro.snmp.agent import SnmpWorld, instrument_network
from repro.snmp.client import SnmpCostModel
from repro.collectors.base import RpcCostModel
from repro.collectors.benchmark_collector import BenchmarkCollector, BenchmarkConfig
from repro.collectors.bridge_collector import BridgeCollector
from repro.collectors.directory import CollectorDirectory
from repro.collectors.master import MasterCollector
from repro.collectors.snmp_collector import SnmpCollector, SnmpCollectorConfig
from repro.modeler.api import Modeler

if TYPE_CHECKING:
    from repro.collectors.sharding import ShardedMaster, ShardingConfig
    from repro.rps.predictor import StreamingPredictor
    from repro.rps.sensors import HostLoadSensor
    from repro.rps.streaming import StreamingPredictionManager
    from repro.session import RemosSession

log = obs.get_logger(__name__)


@dataclass
class SiteConfig:
    """Everything needed to stand up one site's collectors."""

    name: str
    #: address space this site's SNMP collector answers for
    domains: list[str]
    #: (subnet, gateway address) pairs for hosts in the site
    gateways: list[tuple[str, str]]
    #: border router address used to stitch sites together
    border_ip: str
    #: host the site's collectors run on
    collector_host: Host
    #: bridged subnet -> {switch name: management IP}, one bridge
    #: collector each (a campus site has one per switched subnet)
    bridge_domains: dict[str, dict[str, IPv4Address]] = field(default_factory=dict)


@dataclass
class RemosDeployment:
    """Handles to every running component."""

    net: Network
    world: SnmpWorld
    directory: CollectorDirectory
    master: MasterCollector
    modeler: Modeler
    snmp_collectors: dict[str, SnmpCollector]
    bridge_collectors: dict[str, BridgeCollector]
    benchmarks: dict[str, BenchmarkCollector]
    #: wireless collectors, for deployments with basestations
    wireless_collectors: dict[str, "object"] = field(default_factory=dict)

    def session(self) -> "RemosSession":
        """The documented application entry point (see repro.session)."""
        from repro.session import RemosSession

        return RemosSession(self.modeler)

    def shard(self, config: ShardingConfig | None = None) -> ShardedMaster:
        """Replace the flat Master with a sharded Master hierarchy.

        Builds a :class:`~repro.collectors.sharding.ShardedMaster` over
        the existing directory (same collectors, same borders, same
        shared :class:`RpcCostModel`) and rebinds the Modeler to it.
        Returns the new master.
        """
        from repro.collectors.sharding import build_sharded_master

        sharded = build_sharded_master(
            "master", self.net, self.directory,
            self.master.borders, self.master.rpc, config,
        )
        self.master = sharded
        self.modeler.master = sharded
        log.info("sharded master plane: %d shards", len(sharded.shards))
        return sharded

    def start_monitoring(self) -> None:
        """Begin periodic polling in every SNMP collector."""
        log.debug("starting monitoring in %d collectors", len(self.snmp_collectors))
        for c in self.snmp_collectors.values():
            c.start_monitoring()

    def start_benchmarks(self) -> None:
        """Begin periodic probing in every benchmark collector."""
        log.debug("starting %d benchmark collectors", len(self.benchmarks))
        for i, b in enumerate(sorted(self.benchmarks.values(), key=lambda b: b.site)):
            b.start_periodic(stagger_s=i * 1.0)

    def stop(self) -> None:
        for c in self.snmp_collectors.values():
            c.stop_monitoring()
        for b in self.benchmarks.values():
            b.stop_periodic()

    def enable_streaming_prediction(
        self, spec: str = "AR(16)", horizon: int = 10, min_history: int = 32
    ) -> list[StreamingPredictionManager]:
        """Attach streaming predictors to every SNMP collector (§2.3).

        Each polling sweep feeds the per-link predictors; predictive
        flow queries are then answered from the amortized fits instead
        of a client-server fit per query.  Returns the managers.
        """
        from repro.rps.streaming import StreamingPredictionManager

        managers: list[StreamingPredictionManager] = []
        for coll in self.snmp_collectors.values():
            if coll.streaming is None:
                managers.append(
                    StreamingPredictionManager(coll, spec, horizon, min_history)
                )
        return managers

    def attach_host_sensor(
        self,
        host: Host,
        spec: str = "AR(16)",
        rate_hz: float = 1.0,
        history_len: int = 600,
        horizon: int = 10,
    ) -> HostLoadSensor:
        """Run an RPS host-load sensor + streaming predictor on a host.

        The host must already have a load source attached.  Returns the
        sensor; node queries through the Modeler pick it up
        automatically.
        """
        from repro.rps.predictor import StreamingPredictor
        from repro.rps.sensors import HostLoadSensor

        now = self.net.now
        dt = 1.0 / rate_hz
        warmup = np.array(
            [host.load(max(0.0, now - (history_len - k) * dt)) for k in range(history_len)]
        )
        predictor = StreamingPredictor(spec, warmup, horizon=horizon)
        sensor = HostLoadSensor(self.net, host, predictor, rate_hz)
        sensor.start()
        if not hasattr(self, "_host_sensors"):
            self._host_sensors: dict[str, HostLoadSensor] = {}
        self._host_sensors[str(host.ip)] = sensor
        return sensor

    def node_info_for(self, ip: str) -> tuple[float | None, StreamingPredictor | None]:
        """(current load, streaming predictor) for one host IP.

        Current load comes from the host's own reading (the sensor runs
        *on* the node, like /proc); the predictor exists only where a
        sensor was attached.
        """
        sensors = getattr(self, "_host_sensors", {})
        sensor = sensors.get(ip)
        iface = self.net.iface_for_ip(ip)
        if iface is None or not isinstance(iface.device, Host):
            return None, None
        load = iface.device.load(self.net.now)
        return load, (sensor.predictor if sensor is not None else None)


def deploy_remos(
    net: Network,
    sites: list[SiteConfig],
    poll_interval_s: float = 5.0,
    snmp_cost: SnmpCostModel | None = None,
    rpc_cost: RpcCostModel | None = None,
    bench_config: BenchmarkConfig | None = None,
    community: str = "public",
    bridge_startup: bool = True,
    world: SnmpWorld | None = None,
    sharding: ShardingConfig | None = None,
) -> RemosDeployment:
    """Stand up the full Remos stack for the given sites.

    ``sharding`` (a :class:`~repro.collectors.sharding.ShardingConfig`)
    replaces the flat Master with a sharded hierarchy after wiring.
    """
    if not sites:
        raise ValueError("need at least one site")
    if world is None:
        world = instrument_network(net, community=community)
    directory = CollectorDirectory()
    snmp_collectors: dict[str, SnmpCollector] = {}
    bridge_collectors: dict[str, BridgeCollector] = {}
    benchmarks: dict[str, BenchmarkCollector] = {}
    borders: dict[str, IPv4Address] = {}

    for site in sites:
        source_ip = site.collector_host.ip
        bridges: dict[IPv4Network, BridgeCollector] = {}
        numbered = len(site.bridge_domains) > 1
        for k, (subnet_s, switch_ips) in enumerate(sorted(site.bridge_domains.items())):
            bc = BridgeCollector(
                f"bridge-{site.name}-{k}" if numbered else f"bridge-{site.name}",
                net, world, source_ip, switch_ips, community, snmp_cost,
            )
            if bridge_startup:
                bc.startup()
            bridge_collectors.setdefault(site.name, bc)
            bridges[IPv4Network(subnet_s)] = bc
        config = SnmpCollectorConfig(
            domains=[IPv4Network(d) for d in site.domains],
            gateways=[(IPv4Network(s), IPv4Address(g)) for s, g in site.gateways],
            poll_interval_s=poll_interval_s,
        )
        sc = SnmpCollector(
            f"snmp-{site.name}", net, world, source_ip, config,
            bridges, community, snmp_cost,
        )
        snmp_collectors[site.name] = sc
        directory.register(sc, [IPv4Network(d) for d in site.domains], site.name)
        borders[site.name] = IPv4Address(site.border_ip)

        bench = BenchmarkCollector(site.name, net, site.collector_host, bench_config)
        benchmarks[site.name] = bench
        directory.register_benchmark(bench)

    # fully peer the benchmark collectors
    site_names = sorted(benchmarks)
    for i, a in enumerate(site_names):
        for b in site_names[i + 1:]:
            benchmarks[a].add_peer(benchmarks[b])

    master = MasterCollector("master", net, directory, borders, rpc_cost)
    modeler = Modeler(master, net, rpc_cost)
    deployment = RemosDeployment(
        net, world, directory, master, modeler,
        snmp_collectors, bridge_collectors, benchmarks,
    )
    modeler.node_info_provider = deployment.node_info_for
    if sharding is not None:
        deployment.shard(sharding)
    log.info(
        "deployed remos: %d sites, %d bridge collectors, %d benchmarks",
        len(sites), len(bridge_collectors), len(benchmarks),
    )
    return deployment


def deploy_lan(
    lan: SwitchedLan | HubLan,
    poll_interval_s: float = 5.0,
    snmp_cost: SnmpCostModel | None = None,
    bridge_startup: bool = True,
) -> RemosDeployment:
    """Single-site deployment for a bridged LAN (the Fig. 3 setting)."""
    return auto_deploy(lan.net, "lan", poll_interval_s, snmp_cost, bridge_startup)


def deploy_wan(
    world: WanWorld,
    poll_interval_s: float = 5.0,
    snmp_cost: SnmpCostModel | None = None,
    bench_config: BenchmarkConfig | None = None,
    sharding: ShardingConfig | None = None,
) -> RemosDeployment:
    """One Remos site per WAN site; benchmark collectors fully peered.

    The benchmark endpoint at each site is the *last* host of the site
    so applications can use the first ones.
    """
    sites: list[SiteConfig] = []
    for name, site in sorted(world.sites.items()):
        lan_gw = next(
            i for i in site.router.interfaces
            if i.ip is not None and i.ip in _net_of(site.subnet)
        )
        transit_iface = next(
            i for i in site.router.interfaces
            if i.ip is not None and i.ip not in _net_of(site.subnet)
        )
        transit_subnet = transit_iface.network
        sites.append(
            SiteConfig(
                name=name,
                domains=[site.subnet, str(transit_subnet)],
                gateways=[(site.subnet, str(lan_gw.ip))],
                border_ip=str(lan_gw.ip),
                collector_host=site.hosts[-1],
                bridge_domains=_one_switch(site.subnet, site.switch),
            )
        )
    return deploy_remos(
        world.net, sites, poll_interval_s, snmp_cost,
        bench_config=bench_config, sharding=sharding,
    )


def deploy_wireless(
    wl: WirelessLan,
    poll_interval_s: float = 5.0,
    snmp_cost: SnmpCostModel | None = None,
    location_monitor_s: float | None = 10.0,
) -> RemosDeployment:
    """Deployment over a :class:`~repro.netsim.builders.WirelessLan`.

    Adds a Wireless Collector scanning the basestations' association
    tables; ``location_monitor_s`` arms its periodic roaming monitor
    (None disables).
    """
    from repro.collectors.wireless_collector import WirelessCollector

    gw_iface = next(i for i in wl.router.interfaces if i.ip is not None)
    site = SiteConfig(
        name="wlan",
        domains=[wl.subnet],
        gateways=[(wl.subnet, str(gw_iface.ip))],
        border_ip=str(gw_iface.ip),
        collector_host=wl.wired_hosts[0],
        bridge_domains=_one_switch(wl.subnet, wl.switch),
    )
    dep = deploy_remos(wl.net, [site], poll_interval_s, snmp_cost)
    wc = WirelessCollector(
        "wireless-wlan", wl.net, dep.world, wl.wired_hosts[0].ip,
        {bs.name: bs.management_ip for bs in wl.basestations
         if bs.management_ip is not None},
        cost=snmp_cost,
    )
    wc.scan()
    if location_monitor_s is not None:
        wl.net.engine.every(location_monitor_s, wc.monitor_tick)
    dep.wireless_collectors["wlan"] = wc
    return dep


def deploy_campus(
    campus: Campus,
    poll_interval_s: float = 5.0,
    snmp_cost: SnmpCostModel | None = None,
    bridge_startup: bool = True,
) -> RemosDeployment:
    """Single-site deployment over a multi-subnet campus.

    One SNMP collector owns the whole IP domain; each switched subnet
    gets its own Bridge Collector — the paper's "an SNMP Collector is
    assigned to monitor a particular network, generally an IP domain
    corresponding to a university or department".
    """
    return auto_deploy(campus.net, "campus", poll_interval_s, snmp_cost, bridge_startup)


def auto_deploy(
    net: Network,
    name: str = "site",
    poll_interval_s: float = 5.0,
    snmp_cost: SnmpCostModel | None = None,
    bridge_startup: bool = True,
) -> RemosDeployment:
    """Deploy Remos over any network by inferring the site layout.

    One site covering every addressed subnet: gateways come from router
    interfaces, bridge collectors from switches with management
    addresses (grouped by subnet), and the collector runs on the first
    host.  Useful for topologies loaded from spec files
    (:mod:`repro.netsim.spec`), where no builder record exists.
    """
    subnets: dict[IPv4Network, IPv4Address] = {}
    for router in sorted(net.routers(), key=lambda r: r.name):
        for iface in router.interfaces:
            if iface.network is not None and iface.ip is not None:
                subnets.setdefault(iface.network, iface.ip)
    if not subnets:
        raise ValueError("auto_deploy needs at least one router-attached subnet")
    hosts = [h for h in net.hosts() if any(i.ip for i in h.interfaces)]
    if not hosts:
        raise ValueError("auto_deploy needs at least one addressed host")
    bridge_domains: dict[str, dict[str, IPv4Address]] = {}
    for sw in net.switches():
        if not isinstance(sw, Switch) or sw.management_ip is None:
            continue
        subnet = next(
            (s for s in subnets if sw.management_ip in s), None
        )
        if subnet is None:
            continue
        bridge_domains.setdefault(str(subnet), {})[sw.name] = sw.management_ip
    first_subnet = sorted(subnets)[0]
    site = SiteConfig(
        name=name,
        domains=[str(s) for s in sorted(subnets)],
        gateways=[(str(s), str(gw)) for s, gw in sorted(subnets.items())],
        border_ip=str(subnets[first_subnet]),
        collector_host=hosts[0],
        bridge_domains=bridge_domains,
    )
    return deploy_remos(
        net, [site], poll_interval_s, snmp_cost, bridge_startup=bridge_startup
    )


def _net_of(subnet: str) -> IPv4Network:
    return IPv4Network(subnet)


def _one_switch(subnet: str, switch: Switch) -> dict[str, dict[str, IPv4Address]]:
    """``bridge_domains`` of a subnet bridged by one switch (none if unmanaged)."""
    if switch.management_ip is None:
        return {}
    return {subnet: {switch.name: switch.management_ip}}
