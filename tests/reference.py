"""Reference implementations reachable only from tests.

**Packet-level beacons.**  Every cluster, in every mode, carries its
beacons on the analytic fabric (``repro.onepipe.analytic``).
:class:`PacketBeacons` is the transport the fabric replays: one packet
per beacon per hop through ``Link.send``, with the fabric's four entry
points (``emit``, ``host_beacon``, ``post_merged``, ``post_merged_at``).
Build a cluster under :func:`on_packet_beacons` to get it in place of
the fabric; its packets reach ``on_beacon`` through ``Switch.receive``
and ``HostAgent._ingress``, the same entry the fabric calls.  This is
the only way to obtain that configuration — nothing under ``src/``
builds a ``PacketBeacons``, and no config field or CLI flag asks for
one.

**Per-host routing.**  :func:`per_host_routes` is the routing
computation ``repro.net.routing`` used before it routed by destination
class: one networkx reverse BFS per destination host, one private list
per (switch, host).  It returns tables instead of installing them, and
keeps the defect the class router fixed (a non-destination host at
distance d-1 is offered as a next hop), so the two agree exactly on
every graph where switches have no such host successor.

**Determine on networkx.**  :func:`determine` (with
:func:`alive_digraph`, :func:`can_send_to_roots` and
:func:`can_receive_from_roots`) is ``repro.onepipe.failure`` as it was
while the runtime kept a ``networkx.DiGraph`` beside the topology, moved
here verbatim; the plain-BFS version is checked against it.

Both references take the ``DiGraph`` the topology used to carry;
:func:`as_networkx` rebuilds it.  ``networkx`` is a ``dev`` dependency
for this file alone — nothing under ``src/`` imports it.
"""

from collections import deque
from typing import Dict, Iterable, List, Set, Tuple
from unittest import mock

import networkx as nx

from repro.net.link import Link
from repro.net.nic import Host
from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.onepipe import cluster as cluster_module
from repro.onepipe.failure import DeadLinkReport, failure_timestamp


class PacketBeacons:
    """The event-level beacon transport: a packet and a delivery event
    per beacon per hop, and a plain scheduler event per post."""

    def __init__(self, sim) -> None:
        self.sim = sim

    def emit(self, out_links, be_min, commit_min, auth) -> None:
        now = self.sim.now
        for link in out_links:
            beacon = Packet(
                PacketKind.BEACON, barrier_ts=be_min, commit_ts=commit_min,
                sent_at=now,
            )
            beacon.auth = auth
            link.send(beacon)

    def host_beacon(self, agent) -> None:
        # src/dst -1 (node-level); the egress hook stamps the barriers.
        beacon = Packet(PacketKind.BEACON)
        agent.host.send_packet(beacon)
        if agent._bft:
            # Read at arrival only, so tagging after the send is exact.
            beacon.auth = agent._beacon_auth(
                beacon.barrier_ts, beacon.commit_ts
            )

    def post_merged(self, delay, fn, args=()) -> None:
        self.sim.post(delay, fn, *args)

    def post_merged_at(self, t, fn, args=()) -> None:
        self.sim.post_at(t, fn, *args)


def on_packet_beacons(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every cluster it *constructs* on
    :class:`PacketBeacons` for that cluster's whole life (the transport
    is chosen once, at construction)."""
    with mock.patch.object(cluster_module, "BeaconFabric", PacketBeacons):
        return fn(*args, **kwargs)


def as_networkx(topo) -> nx.DiGraph:
    """The graph ``Topology`` used to hold: one node per switch and host
    (``obj=`` the node), one edge per link in ``topo.links`` order
    (``link=`` the link)."""
    graph = nx.DiGraph()
    for node in (*topo.switches.values(), *topo.hosts):
        graph.add_node(node.node_id, obj=node)
    for link in topo.links.values():
        graph.add_edge(link.src.node_id, link.dst.node_id, link=link)
    return graph


def reverse_bfs_distances(graph: nx.DiGraph, dst: str) -> Dict[str, int]:
    """Hop distance to host ``dst`` for every node with a forwarding
    path, never expanding out of a host other than ``dst`` itself."""
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        node_id = queue.popleft()
        if node_id != dst and isinstance(
            graph.nodes[node_id].get("obj"), Host
        ):
            continue  # hosts are leaves of the forwarding graph
        for pred in graph.predecessors(node_id):
            if pred not in dist:
                dist[pred] = dist[node_id] + 1
                queue.append(pred)
    return dist


def per_host_routes(
    graph: nx.DiGraph, hosts: Iterable[Host], exclude_links=frozenset()
) -> Dict[str, Dict[str, List[Link]]]:
    """``switch id -> dst host -> candidate links``, in the key and
    candidate order the per-host BFS installed them."""
    if exclude_links:
        working = nx.DiGraph()
        working.add_nodes_from(graph.nodes(data=True))
        for u, v, data in graph.edges(data=True):
            if data.get("link") not in exclude_links:
                working.add_edge(u, v, **data)
        graph = working
    tables: Dict[str, Dict[str, List[Link]]] = {
        node_id: {}
        for node_id, node in graph.nodes(data="obj")
        if isinstance(node, Switch)
    }
    for host in hosts:
        dst = host.node_id
        dist = reverse_bfs_distances(graph, dst)
        for node_id, node_dist in dist.items():
            if node_id == dst or node_id not in tables:
                continue  # hosts do not route
            for _, nbr, data in graph.out_edges(node_id, data=True):
                if dist.get(nbr, -1) == node_dist - 1:
                    tables[node_id].setdefault(dst, []).append(data["link"])
    return tables


def alive_digraph(graph: nx.DiGraph, dead_links: Set[Link]) -> nx.DiGraph:
    """The routing graph with dead links removed (directed)."""
    alive = nx.DiGraph()
    alive.add_nodes_from(graph.nodes)
    for u, v, data in graph.edges(data=True):
        if data.get("link") not in dead_links:
            alive.add_edge(u, v)
    return alive


def can_send_to_roots(alive: nx.DiGraph, roots: Iterable[str]) -> Set[str]:
    """Nodes with a directed path *to* at least one root."""
    senders: Set[str] = set()
    for root in roots:
        if root not in alive:
            continue
        senders.add(root)
        senders.update(nx.ancestors(alive, root))
    return senders


def can_receive_from_roots(alive: nx.DiGraph, roots: Iterable[str]) -> Set[str]:
    """Nodes with a directed path *from* at least one root."""
    receivers: Set[str] = set()
    for root in roots:
        if root not in alive:
            continue
        receivers.add(root)
        receivers.update(nx.descendants(alive, root))
    return receivers


def determine(
    graph: nx.DiGraph,
    reports: List[DeadLinkReport],
    roots: Iterable[str],
    host_ids: Iterable[str],
) -> Tuple[Set[str], Dict[str, int]]:
    """The Determine step: failed hosts and per-host failure timestamps."""
    dead_links = {report.link for report in reports}
    alive = alive_digraph(graph, dead_links)
    send_ok = can_send_to_roots(alive, roots)
    recv_ok = can_receive_from_roots(alive, roots)
    ok = send_ok & recv_ok
    failed_hosts = {h for h in host_ids if h not in ok}
    if not failed_hosts:
        return set(), {}
    # Group failed nodes into weakly connected regions so each region's
    # timestamp is the max last-commit across its own cut.  The region
    # that matters for the cut is the send-side one: the dead links the
    # correct neighbors reported originate there.
    failed_nodes = {node for node in graph.nodes if node not in send_ok}
    failed_nodes.update(h for h in failed_hosts)
    sub = alive.subgraph(failed_nodes).to_undirected(as_view=False)
    timestamps: Dict[str, int] = {}
    for component in nx.connected_components(sub):
        ts = failure_timestamp(set(component), reports)
        for node in component:
            if node in failed_hosts:
                timestamps[node] = ts
    for host_id in failed_hosts:
        timestamps.setdefault(host_id, 0)
    return failed_hosts, timestamps
