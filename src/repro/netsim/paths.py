"""End-to-end path computation: L3 forwarding glued to L2 spanning trees.

``compute_path`` walks a packet's journey the way the network would
forward it: at each L3 hop consult the host default route or the
router's longest-prefix-match table (:mod:`repro.netsim.routing`), then
cross the subnet on the segment's spanning tree
(:mod:`repro.netsim.bridging`).  The result is the exact sequence of
directed channels a fluid flow occupies — the ground truth that SNMP
octet counters, and therefore everything the collectors see, derive
from.

Forwarding state only changes when ``routing.build_routing_tables`` or
``bridging.run_spanning_tree`` rewrites it, so the walk is memoized per
:class:`Network` between those calls; both clear the memo themselves.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import obs
from repro.common.errors import TopologyError
from repro.netsim.bridging import l2_path
from repro.netsim.routing import resolve_l3_next_hop
from repro.netsim.topology import Channel, Host, Network, Node, Router

#: Safety bound on L3 hops; trips on routing loops.
MAX_HOPS = 64


def compute_path(net: Network, src: Host | str, dst: Host | str) -> list[Channel]:
    """Directed channels traversed from ``src`` to ``dst``.

    Accepts host objects or host names.  Raises
    :class:`~repro.common.errors.TopologyError` on unreachable
    destinations or forwarding loops (a failed walk is not remembered).
    Every call returns a list of its own.
    """
    if isinstance(src, str):
        src = net.host(src)
    if isinstance(dst, str):
        dst = net.host(dst)
    if src is dst:
        return []
    known = net._path_memo.get((src, dst))
    if known is not None:
        obs.counter("netsim.paths.cache", result="hit").inc()
        return list(known)
    obs.counter("netsim.paths.cache", result="miss").inc()
    channels = _walk(net, src, dst)
    net._path_memo[(src, dst)] = tuple(channels)
    return channels


def peek_path(net: Network, src: Host, dst: Host) -> Sequence[Channel]:
    """The channels :func:`compute_path` gives, read from its memo or
    walked afresh, with nothing recorded or remembered; the caller must
    not mutate the sequence."""
    if src is dst:
        return ()
    known = net._path_memo.get((src, dst))
    return known if known is not None else _walk(net, src, dst)


def _walk(net: Network, src: Host, dst: Host) -> list[Channel]:
    """Forward hop by hop from ``src`` until ``dst`` is reached."""
    dst_ip = dst.ip
    channels: list[Channel] = []
    current: Node = src
    for _ in range(MAX_HOPS):
        if current is dst:
            return channels
        if not isinstance(current, (Host, Router)):
            raise TopologyError(f"cannot forward from a {current.kind}")
        out_iface, hop_iface = resolve_l3_next_hop(net, current, dst_ip)
        channels.extend(l2_path(net, out_iface, hop_iface))
        current = hop_iface.device
    raise TopologyError(f"forwarding loop between {src.name} and {dst.name}")


def path_latency(channels: list[Channel]) -> float:
    """One-way propagation latency along a channel sequence."""
    return sum(ch.link.latency_s for ch in channels)


def path_capacity(channels: list[Channel]) -> float:
    """Raw bottleneck capacity along a channel sequence."""
    if not channels:
        return float("inf")
    return min(ch.capacity_bps for ch in channels)
