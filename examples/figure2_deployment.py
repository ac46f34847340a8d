#!/usr/bin/env python
"""The paper's Figure 2, reconstructed.

"Shown here are applications running at CMU and ETH making use of
resources at CMU, ETH, and BBN.  Each application is using prediction
services … The applications at CMU are using machines at CMU and BBN,
and the application at ETH is using machines at ETH and BBN."

Three sites; CMU and ETH each run their own Master Collector and
Modeler ("a different Master Collector is used in each network where
Remos applications are running"); BBN hosts resources and collectors
but no application.  Benchmark traffic crosses the Internet exactly as
the figure draws it.

Run with::

    python examples/figure2_deployment.py
"""

from repro.collectors.directory import CollectorDirectory
from repro.collectors.master import MasterCollector
from repro.collectors.slp import DirectoryAgent
from repro.common.units import MBPS, fmt_rate
from repro.deploy import deploy_wan
from repro.inspect import deployment_report
from repro.modeler.api import Modeler
from repro.netsim import SiteSpec, build_multisite_wan
from repro.rps.service import RpsPredictionService
from repro.session import RemosSession


def main() -> None:
    world = build_multisite_wan(
        [
            SiteSpec("cmu", access_bps=10 * MBPS, n_hosts=4),
            SiteSpec("eth", access_bps=8 * MBPS, n_hosts=4),
            SiteSpec("bbn", access_bps=5 * MBPS, n_hosts=4),
        ]
    )
    base = deploy_wan(world)  # per-site collectors + benchmark mesh

    # Each application site gets its own Master + Modeler, sharing the
    # same collectors through the same directory.
    def master_for(site: str) -> Modeler:
        directory = CollectorDirectory(DirectoryAgent(world.net))
        for reg in base.directory.registrations():
            directory.register(
                reg.collector, [str(p) for p in reg.prefixes], reg.site,
                remote=(reg.site != site),
            )
        for bench in base.benchmarks.values():
            directory.register_benchmark(bench)
        master = MasterCollector(f"master-{site}", world.net, directory, base.master.borders)
        modeler = Modeler(master, world.net)
        modeler.prediction_service = RpsPredictionService("AR(16)")
        return modeler

    cmu_modeler = master_for("cmu")
    eth_modeler = master_for("eth")
    world.net.engine.run_until(30.0)

    print("== the CMU application (machines at CMU and BBN) ==")
    ans = RemosSession(cmu_modeler).flow_info(
        world.host("cmu", 0), world.host("bbn", 0)
    )
    print(f"cmu -> bbn: {fmt_rate(ans.available_bps)} via {' -> '.join(ans.path)}")

    print("\n== the ETH application (machines at ETH and BBN) ==")
    ans = RemosSession(eth_modeler).flow_info(
        world.host("eth", 0), world.host("bbn", 1)
    )
    print(f"eth -> bbn: {fmt_rate(ans.available_bps)} via {' -> '.join(ans.path)}")

    # both applications share the same collectors: the BBN site
    # collector served queries from both masters
    bbn_coll = base.snmp_collectors["bbn"]
    print(f"\nBBN's SNMP collector served {bbn_coll.queries_served} queries "
          f"from two independent masters")

    print("\n" + deployment_report(base))


if __name__ == "__main__":
    main()
