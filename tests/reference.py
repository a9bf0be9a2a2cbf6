"""Reference implementations reachable only from tests.

**Packet-level beacons.**

Outside ``MODE_BFT`` every cluster carries its beacons on the virtual
fabric (``repro.onepipe.analytic``); the event-level beacon code stays
in ``src/`` for BFT and for the per-link ``drop_filter`` fallback.  To
compare the fabric against it, build the cluster under
:func:`on_packet_beacons`: ``OnePipeCluster._install_fabric`` becomes a
no-op, so engines and host agents keep ``_fabric = None`` and send one
packet per beacon.  This is the only way to obtain that
configuration — there is no constructor argument, config field or CLI
flag for it.

**Per-host routing.**  :func:`per_host_routes` is the routing
computation ``repro.net.routing`` used before it routed by destination
class: one networkx reverse BFS per destination host, one private list
per (switch, host).  It returns tables instead of installing them, and
keeps the defect the class router fixed (a non-destination host at
distance d-1 is offered as a next hop), so the two agree exactly on
every graph where switches have no such host successor.
"""

from collections import deque
from typing import Dict, Iterable, List
from unittest import mock

import networkx as nx

from repro.net.link import Link
from repro.net.nic import Host
from repro.net.switch import Switch
from repro.onepipe.cluster import OnePipeCluster


def on_packet_beacons(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every cluster it *constructs* on
    event-level beacons for that cluster's whole life (the transport is
    chosen once, at construction)."""
    with mock.patch.object(
        OnePipeCluster, "_install_fabric", lambda cluster: None
    ):
        return fn(*args, **kwargs)


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
