"""Host mobility: re-homing a host to a different attachment point.

The paper's Bridge Collector "must monitor the location of nodes on the
network continuously" because "in wireless networks a mobile node may
move between basestations much more frequently" (§3.1.2).  This module
provides the ground-truth move: detach a host's link, re-attach it
elsewhere in the *same IP subnet* (L2 roaming — L3 mobility would need
readdressing), and recompute spanning trees and forwarding databases.

Flows traversing the old attachment are torn down, as a real handoff
breaks transport connections unless something like the dynamic-handoff
system of Karrer & Gross (paper ref [16]) re-establishes them; callers
get the broken flows back so they can model reconnection.
"""

from __future__ import annotations

from repro.common.errors import TopologyError
from repro.netsim import bridging
from repro.netsim.flows import Flow
from repro.netsim.topology import Host, Hub, Link, Network, Node, Switch


def rehome_host(
    net: Network,
    host: Host,
    new_attachment: Node,
    capacity_bps: float | None = None,
    latency_s: float = 0.0005,
) -> list[Flow]:
    """Move a single-homed host to a new switch/hub port.

    Returns the flows that were torn down by the move.  The host keeps
    its IP address, which must remain valid: the new attachment has to
    be in the same broadcast domain family (we verify post-move that
    the host can still reach its gateway's segment).
    """
    if len(host.interfaces) != 1 or host.interfaces[0].link is None:
        raise TopologyError(f"{host.name} is not a single-homed attached host")
    if not isinstance(new_attachment, (Switch, Hub)):
        raise TopologyError("hosts can only re-home onto switches or hubs")
    iface = host.interfaces[0]
    old_link = iface.link
    if old_link.other(iface).device is new_attachment:
        return []  # already there

    # Tear down flows crossing the old attachment.
    broken = net.flows.flows_on(*old_link.channels())
    for flow in broken:
        net.flows.stop_flow(flow)

    # Detach: the old peer port stays on its device, but carries no link.
    cap = capacity_bps if capacity_bps is not None else old_link.capacity_bps
    peer = old_link.other(iface)
    iface.link = None
    peer.link = None
    net.links.remove(old_link)

    # Attach to a fresh port on the new device.
    was_frozen = net._frozen
    net._frozen = False
    try:
        net.link(iface, new_attachment.add_interface(), cap, latency_s)
    finally:
        net._frozen = was_frozen

    # Recompute L2 state; routing is untouched (same subnet).
    bridging.run_spanning_tree(net)
    bridging.populate_fdbs(net)

    # Sanity: the host must still reach its gateway at L2.
    if host.gateway_ip is not None:
        gw_iface = net.iface_for_ip(host.gateway_ip)
        if gw_iface is not None:
            try:
                bridging.l2_path(net, iface, gw_iface)
            except TopologyError:
                raise TopologyError(
                    f"re-homing {host.name} onto {new_attachment.name} "
                    f"disconnects it from its gateway"
                ) from None
    return broken
