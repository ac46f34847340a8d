"""Link failure and repair with control-plane reconvergence.

§6.2: "Remos currently assumes a fairly static environment, so network
failures ... can confuse Remos."  This module provides the failures:
take a link down (tearing the flows that crossed it), let routing and
spanning trees reconverge on the survivors, and bring it back later.

The *simulated network* reconverges immediately (routers and switches
do that on their own); the *monitoring system* only catches up when its
agents are refreshed and its caches flushed — which is exactly the
confusion window the paper describes, and what the robustness tests
measure.
"""

from __future__ import annotations

from repro.common.errors import TopologyError
from repro.netsim import bridging, routing
from repro.netsim.flows import Flow
from repro.netsim.topology import Link, Network


def fail_link(net: Network, link: Link) -> list[Flow]:
    """Take a link down; returns the flows it tore.

    The link object survives (counters keep their values, as real
    interface counters do across carrier loss); it simply stops
    carrying traffic and disappears from forwarding until
    :func:`repair_link`.
    """
    if link not in net.links:
        raise TopologyError("link is not up")
    broken = net.flows.flows_on(*link.channels())
    for flow in broken:
        net.flows.stop_flow(flow)
    # sync counters to the failure instant before traffic ceases
    for ch in link.channels():
        ch.sync(net.now)
    net.links.remove(link)
    link.a.link = None
    link.b.link = None
    _reconverge(net)
    return broken


def repair_link(net: Network, link: Link) -> None:
    """Bring a previously failed link back (idempotent)."""
    if link in net.links:
        return
    if link.a.link is not None or link.b.link is not None:
        raise TopologyError("an endpoint has been re-wired; cannot repair")
    # counters resume from their pre-failure values
    for ch in link.channels():
        ch.sync(net.now)
    link.a.link = link
    link.b.link = link
    net.links.append(link)
    _reconverge(net)


def _reconverge(net: Network) -> None:
    """Recompute routing tables, spanning trees, and FDBs."""
    routing.build_routing_tables(net)
    bridging.run_spanning_tree(net)
    bridging.populate_fdbs(net)
