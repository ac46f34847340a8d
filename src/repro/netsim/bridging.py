"""L2 segments, spanning tree, and bridge forwarding databases.

An *L2 segment* (broadcast domain) is a maximal set of interfaces
connected through switches and hubs only — hosts and routers terminate
segments.  Within each segment we elect a spanning tree (lowest
bridge-id root, shortest path, deterministic tie-breaks) and then fill
every switch's forwarding database with an entry per station MAC, the
steady-state view a learning bridge converges to and exposes through
the Bridge-MIB ``dot1dTpFdbTable``.

Switch management MACs are stations too: real switches source SNMP
replies, so their MACs appear in neighbouring bridges' FDBs.  The
Bridge Collector's topology inference relies on this, as does the
original (Lowekamp et al., SIGCOMM 2001) algorithm.
"""

from __future__ import annotations

from repro.common.errors import TopologyError
from repro.common.graphwalk import add_edge, bfs_first_hops, bfs_path, components
from repro.netsim.address import MacAddress
from repro.netsim.topology import (
    Channel,
    Hub,
    Interface,
    Link,
    Network,
    Node,
    Switch,
)

#: FDB port value for a bridge's own (self) MAC entries.
SELF_PORT = 0


def _is_l2_forwarder(node: Node) -> bool:
    return isinstance(node, (Switch, Hub))


class Segment:
    """One broadcast domain: its links, forwarders, and attached stations."""

    def __init__(self, seg_id: int) -> None:
        self.id = seg_id
        self.links: list[Link] = []
        self.switches: list[Switch] = []
        self.hubs: list[Hub] = []
        #: host/router interfaces attached to this segment
        self.edge_ifaces: list[Interface] = []
        #: the spanning tree as an adjacency over attachment points (see
        #: _apoint): ``tree[p][q]`` is the link joining ``p`` and ``q``
        self.tree: dict[object, dict[object, Link]] = {}

    def station_macs(self) -> dict[MacAddress, Interface]:
        """All MACs visible on this segment (stations + switch mgmt)."""
        macs: dict[MacAddress, Interface] = {}
        for iface in self.edge_ifaces:
            if iface.mac is not None:
                macs[iface.mac] = iface
        for sw in self.switches:
            macs[sw.management_mac()] = sw.interfaces[0]
        return macs


def _apoint(iface: Interface) -> object:
    """Attachment point for segment discovery.

    Switches and hubs forward among all their ports, so the device is
    one point; hosts and routers do not forward, so each of their
    interfaces is its own point.
    """
    if _is_l2_forwarder(iface.device):
        return iface.device
    return iface


def discover_segments(net: Network) -> list[Segment]:
    """Partition all links into L2 segments via union over attachment points."""
    adj: dict[object, dict[object, None]] = {}
    for ln in net.links:
        add_edge(adj, _apoint(ln.a), _apoint(ln.b), None)
    segments: list[Segment] = []
    point_to_seg: dict[object, Segment] = {}
    for idx, comp in enumerate(sorted(components(adj), key=lambda c: min(str(x) for x in c))):
        seg = Segment(idx)
        for point in comp:
            point_to_seg[point] = seg
        for point in comp:
            if isinstance(point, Switch):
                seg.switches.append(point)
            elif isinstance(point, Hub):
                seg.hubs.append(point)
            elif isinstance(point, Interface):
                seg.edge_ifaces.append(point)
        seg.switches.sort(key=lambda s: s.name)
        seg.hubs.sort(key=lambda h: h.name)
        seg.edge_ifaces.sort(key=lambda i: i.fqname)
        segments.append(seg)
    # Every link (including parallel ones a simple graph would collapse)
    # goes to the segment of its endpoints.
    for ln in net.links:
        point_to_seg[_apoint(ln.a)].links.append(ln)
    return segments


def run_spanning_tree(net: Network) -> list[Segment]:
    """Elect a spanning tree per segment; mark blocked switch ports.

    Redundant links between switches are pruned by keeping the links
    whose bridge ids (``_edge_sort_key``) sort lowest — the minimum
    spanning tree, which is what removing the highest-keyed link of
    every loop leaves — approximating STP's designated-port election.
    A loop that cannot be broken at a switch port (pure hub/host loop)
    is a construction error.
    """
    net._path_memo.clear()  # L2 forwarding changes under every memoized path
    segments = discover_segments(net)
    blocked: set[int] = set()
    index: dict[object, Segment] = {}
    for seg in segments:
        tree: dict[object, dict[object, Link]] = {}
        kept: list[Link] = []
        for ln in seg.links:
            pa, pb = _apoint(ln.a), _apoint(ln.b)
            if pb in tree.get(pa, {}):
                # Parallel links: keep the first deterministically, block the rest.
                _block_link(ln, blocked)
                continue
            add_edge(tree, pa, pb, ln)
            kept.append(ln)
        # A segment is connected, so it has a loop exactly when it has as
        # many links as attachment points.  Then Kruskal: lowest key first,
        # and a link closing a loop is blocked; of equal keys (only ports
        # without a MAC can tie) the link added to the network later is.
        if len(kept) >= len(tree):
            tree = {}
            for ln in sorted(kept, key=_edge_sort_key):
                pa, pb = _apoint(ln.a), _apoint(ln.b)
                if pa is pb or bfs_path(tree, pa, pb) is not None:
                    _block_link(ln, blocked)
                else:
                    add_edge(tree, pa, pb, ln)
        seg.tree = tree
        for point in tree:
            index[point] = seg
        for sw in seg.switches:
            sw.blocked_ports = {
                i.index
                for i in sw.interfaces
                if i.link is not None and id(i.link) in blocked
            }
    net._segments = segments
    net._segment_index = index
    net._blocked_links = blocked
    return segments


def _block_link(ln: Link, blocked: set[int]) -> None:
    if not any(isinstance(end.device, Switch) for end in (ln.a, ln.b)):
        raise TopologyError(f"cannot break L2 loop at {ln!r}: no switch port to block")
    blocked.add(id(ln))


def _edge_sort_key(ln: Link) -> tuple[tuple[int, int], ...]:
    def bid(iface: Interface) -> tuple[int, int]:
        dev = iface.device
        if isinstance(dev, Switch):
            return dev.bridge_id
        return (1 << 20, iface.mac.value if iface.mac else 0)

    return tuple(sorted((bid(ln.a), bid(ln.b)), reverse=True))


def populate_fdbs(net: Network) -> None:
    """Fill each switch's FDB with one entry per station on its segment."""
    segments = net._segments or run_spanning_tree(net)
    for seg in segments:
        stations = seg.station_macs()
        for sw in seg.switches:
            sw.fdb = {}
            sw.fdb[sw.management_mac()] = SELF_PORT
            # each point's first hop from sw, and the sw port toward each
            reach = bfs_first_hops(seg.tree, sw)
            ports = {p: (x.a if x.a.device is sw else x.b).index for p, x in seg.tree[sw].items()}
            for mac, iface in stations.items():
                hit = reach.get(_apoint(iface))
                if hit is not None and mac != sw.management_mac():
                    sw.fdb[mac] = ports[hit[1]]


def l2_path(net: Network, src: Interface, dst: Interface) -> list[Channel]:
    """Directed channels traversed from ``src`` to ``dst`` along the
    segment's spanning tree.  Both interfaces must be on one segment."""
    if net._segments is None:
        raise TopologyError("network not frozen: no segments computed")
    ps, pd = _apoint(src), _apoint(dst)
    seg = net._segment_index.get(ps)
    if seg is not None and net._segment_index.get(pd) is seg:
        points = bfs_path(seg.tree, ps, pd)
        assert points is not None, "a segment's tree spans it"
        channels: list[Channel] = []
        for a, b in zip(points, points[1:]):
            ln = seg.tree[a][b]
            # orient: transmit from the interface on the `a` side
            if _apoint(ln.a) is a:
                channels.append(ln.channel_from(ln.a))
            else:
                channels.append(ln.channel_from(ln.b))
        return channels
    if ps is pd:
        return []
    raise TopologyError(f"{src.fqname} and {dst.fqname} are not on one L2 segment")


def segment_of(net: Network, iface: Interface) -> Segment:
    """The L2 segment an interface belongs to."""
    if net._segments is None:
        raise TopologyError("network not frozen: no segments computed")
    seg = net._segment_index.get(_apoint(iface))
    if seg is None:
        raise TopologyError(f"{iface.fqname} is not on any segment")
    return seg
