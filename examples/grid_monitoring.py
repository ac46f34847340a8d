#!/usr/bin/env python
"""Grid monitoring: the full architecture on a three-site grid.

Demonstrates the pieces the simpler examples skip:

* periodic SNMP polling building utilization history,
* predictive flow queries (Modeler -> RPS client-server service),
* streaming host-load prediction with evaluator-driven refits,
* a flow bandwidth sensor: a Remos application streaming one
  inter-site flow's answers into its own predictor (paper §3.3),
* GMA producers (paper §4): the Master and the Modeler advertised in
  the deployment's SLP directory agent, found there by a consumer,
* a hierarchical Master (master-of-masters), and
* the ASCII wire protocol the components speak.

Run with::

    python examples/grid_monitoring.py
"""

import numpy as np

from repro.collectors.base import TopologyRequest
from repro.collectors.directory import CollectorDirectory
from repro.collectors.master import MasterCollector
from repro.collectors.protocol import decode_topology, encode_topology
from repro.collectors.slp import DirectoryAgent
from repro.common.units import MBPS, fmt_rate
from repro.deploy import deploy_wan
from repro.gma import (
    EVENT_FLOW,
    EVENT_TOPOLOGY,
    CollectingConsumer,
    CollectorProducer,
    ModelerProducer,
    deregister_producer,
    find_producers,
    register_producer,
)
from repro.netsim import RandomWalkTraffic, SiteSpec, build_multisite_wan
from repro.netsim.agents import attach_trace
from repro.rps import (
    FlowBandwidthSensor,
    HostLoadSensor,
    RpsPredictionService,
    StreamingPredictor,
    host_load_trace,
)


def main() -> None:
    world = build_multisite_wan(
        [
            SiteSpec("compute", access_bps=20 * MBPS, n_hosts=4),
            SiteSpec("data", access_bps=8 * MBPS, n_hosts=4),
            SiteSpec("viz", access_bps=4 * MBPS, n_hosts=4),
        ]
    )
    remos = deploy_wan(world)
    remos.modeler.prediction_service = RpsPredictionService("AR(16)")

    # background load: cross traffic + a host-load trace on a compute node
    RandomWalkTraffic(
        world.net, world.host("data", 1), world.host("viz", 1),
        lo_bps=0.5 * MBPS, hi_bps=3 * MBPS, sigma_bps=1 * MBPS,
        step_s=2.0, seed=3, label="x:bulk",
    ).start()
    node = world.host("compute", 0)
    trace = host_load_trace(4000, hurst=0.8, smoothing_s=5.0, seed=7)
    attach_trace(node, trace, dt=1.0)

    # 1. periodic monitoring: discover the paths once, then poll the
    #    routers and probe the WAN between the sites every minute
    session = remos.session()
    session.flow_info(world.host("data", 0), world.host("viz", 0))
    remos.start_monitoring()
    remos.start_benchmarks()

    # 2. streaming host-load prediction on the compute node, and a flow
    #    sensor sampling the data -> viz answer every 10 s
    predictor = StreamingPredictor("AR(16)", trace[:600], horizon=10)
    sensor = HostLoadSensor(world.net, node, predictor, rate_hz=1.0)
    sensor.start()
    flow_sensor = FlowBandwidthSensor(
        session, world.host("data", 0), world.host("viz", 0), period_s=10.0
    )
    flow_sensor.start()

    world.net.engine.run_until(world.net.now + 300.0)
    # the bottleneck is the data -> viz WAN edge: RPS fits its probe
    # history once that holds 8 samples each way
    wan = remos.benchmarks["data"].history["viz"], remos.benchmarks["viz"].history["data"]
    while min(map(len, wan)) < 8:
        world.net.engine.run_until(world.net.now + 60.0)

    # 3. a predictive flow query: forecast of the bottleneck's residual
    ans = session.flow_info(
        world.host("data", 0), world.host("viz", 0), predict=True
    )
    print("predictive flow query data -> viz:")
    print(f"  measured available : {fmt_rate(ans.available_bps)}")
    if ans.predicted_bps is not None:
        print(f"  RPS forecast       : {fmt_rate(ans.predicted_bps)} "
              f"(+-{np.sqrt(ans.predicted_var) / MBPS:.2f} Mbps)")

    # 4. host-load forecast from the streaming pipeline
    fc = predictor.forecast()
    print(f"\ncompute node load now {node.load(world.net.now):.2f}; "
          f"10-step forecast {fc.values[-1]:.2f} "
          f"(model refits so far: {predictor.refits})")
    print(f"host-load sensor CPU use at 1 Hz: "
          f"{100 * sensor.cpu_fraction():.3f}% of one core")

    # 5. the flow sensor streams into a predictor fitted on what it has
    #    sampled so far, for five more periods
    flow_sensor.predictor = StreamingPredictor("AR(4)", flow_sensor.series(), horizon=3)
    world.net.engine.run_until(world.net.now + 50.0)
    flow_sensor.stop()
    flow_fc = flow_sensor.stats.last_forecast
    print(f"\nflow sensor data -> viz: {flow_sensor.stats.samples} samples, "
          f"last {fmt_rate(flow_sensor.series()[-1])}; "
          f"forecast 30 s ahead {fmt_rate(flow_fc[-1])}")

    # 6. GMA: the Master and the Modeler advertise themselves as
    #    producers in the deployment's directory agent, where the Master
    #    already finds its collectors; a consumer looks them up by event
    #    type and subscribes to the Modeler's flow predictions
    agent = remos.directory.agent
    register_producer(agent, CollectorProducer(remos.master))
    modeler_producer = ModelerProducer(remos.modeler)
    register_producer(agent, modeler_producer)
    (topo_producer,) = find_producers(agent, EVENT_TOPOLOGY)
    (flow_producer,) = find_producers(agent, EVENT_FLOW)
    print(f"\nGMA producers in the directory agent: {topo_producer.name} "
          f"({EVENT_TOPOLOGY}), {flow_producer.name} ({EVENT_FLOW})")
    consumer = CollectingConsumer()
    sub = flow_producer.subscribe(
        EVENT_FLOW, consumer, period_s=10.0,
        src=world.host("data", 0), dst=world.host("viz", 0),
    )
    world.net.engine.run_until(world.net.now + 30.0)
    sub.cancel()
    for ev in consumer.events:
        print(f"  t={ev.timestamp:7.1f}s {ev.type} from {ev.source}: "
              f"{fmt_rate(ev.payload.available_bps)} ({ev.payload.status})")
    deregister_producer(agent, modeler_producer)
    print(f"after the Modeler withdraws: "
          f"{len(find_producers(agent, EVENT_FLOW))} {EVENT_FLOW} producers")

    # 7. hierarchy: a top-level master that delegates to this grid's master
    top_dir = CollectorDirectory(DirectoryAgent(world.net))
    top_dir.register(remos.master, ["10.0.0.0/8", "192.168.0.0/16"],
                     site="grid-a", remote=True)
    top = MasterCollector("top-master", world.net, top_dir)
    resp = top.topology(
        TopologyRequest.of([world.host("compute", 0).ip, world.host("viz", 0).ip])
    )
    print(f"\ntop-level master answered with {len(resp.graph)} nodes, "
          f"{resp.graph.num_edges()} edges")

    # 8. the wire protocol: what actually crosses the TCP socket
    wire = encode_topology(resp.graph)
    again = decode_topology(wire)
    print(f"ASCII protocol round-trip: {len(wire.splitlines())} lines, "
          f"{len(again)} nodes parsed back")
    print("\nfirst lines on the wire:")
    for line in wire.splitlines()[:6]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
