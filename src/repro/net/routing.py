"""Shortest-path DAG routing with ECMP, computed per destination class.

Routes are computed over the *logical* routing graph (up/down switch
halves, paper Fig. 3), which is the ``Topology`` itself: ``switches``
and each switch's ``out_links``, in insertion order.  Among switches
this graph is a DAG — that is the property hierarchical barrier
aggregation relies on — while hosts appear as both sources (uplink
edges) and sinks (downlink edges) and never forward, so only
switch-to-switch edges are ever traversed.

Hosts attached to the same set of switches (a rack, in a fat-tree) are
the same destination for every other switch.  So there is one reverse
BFS per such *class*, from its attachment switches, and every switch at
distance >= 2 holds one immutable next-hop tuple — every outgoing link
on a shortest path, the ECMP set — that all hosts of the class share.
Only the attachment switch has a per-host entry: its downlink.

This generic computation reproduces up/down (valley-free) routing on
fat-trees without hard-coding the tier structure, so tests can build
irregular topologies and the controller can recompute routes after
failures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro.net.link import Link
from repro.net.nic import Host

if TYPE_CHECKING:  # topology imports this module
    from repro.net.topology import Topology


def _switch_dag(topology: Topology, exclude_links=frozenset()):
    """The live routing graph as plain adjacency, verified acyclic.

    Returns ``(successors, predecessors, downlinks)``: per switch its
    switch successors as ``(switch id, link)`` in edge order and its
    switch predecessors, and per host ``{attachment switch id: link}``.
    """
    switches = topology.switches
    successors: Dict[str, List[Tuple[str, Link]]] = {n: [] for n in switches}
    predecessors: Dict[str, List[str]] = {n: [] for n in switches}
    downlinks: Dict[str, Dict[str, Link]] = {}
    for node_id, switch in switches.items():
        edges = successors[node_id]
        for link in switch.out_links:
            if link in exclude_links:
                continue
            nbr = link.dst.node_id
            if nbr in switches:
                edges.append((nbr, link))
                predecessors[nbr].append(node_id)
            else:
                downlinks.setdefault(nbr, {})[node_id] = link
    indegree = {node_id: len(preds) for node_id, preds in predecessors.items()}
    peeled = [node_id for node_id, degree in indegree.items() if not degree]
    for node_id in peeled:  # Kahn: the list grows while it is walked
        for nbr, _link in successors[node_id]:
            indegree[nbr] -= 1
            if not indegree[nbr]:
                peeled.append(nbr)
    if len(peeled) != len(successors):
        raise ValueError(
            "switch routing graph must be a DAG (up/down logical split)"
        )
    return successors, predecessors, downlinks


def _reverse_bfs_distances(
    predecessors: Dict[str, List[str]], attached: Iterable[str]
) -> Dict[str, int]:
    """Hop distance to a host behind the ``attached`` switches (distance
    1) for every switch with a forwarding path to it."""
    dist = dict.fromkeys(attached, 1)
    queue = list(dist)
    for node_id in queue:  # grows while it is walked
        for pred in predecessors[node_id]:
            if pred not in dist:
                dist[pred] = dist[node_id] + 1
                queue.append(pred)
    return dist


def compute_routes(
    topology: Topology, hosts: Iterable[Host], exclude_links=frozenset()
) -> int:
    """Populate ``Switch.routes`` for every switch of ``topology``.

    ``exclude_links`` removes dead links before computation (the SDN
    controller reconfiguring routing tables on failure, paper §3.1).
    Returns the number of route entries installed (for diagnostics).
    """
    successors, predecessors, downlinks = _switch_dag(topology, exclude_links)
    tables = {
        node_id: switch.routes for node_id, switch in topology.switches.items()
    }
    # Destination class (its attachment switches) -> the (table, shared
    # next hops) pair of every switch at distance >= 2, and their total.
    classes: Dict[frozenset, Tuple[list, int]] = {}
    installed = 0
    for host in hosts:  # host order is every table's key order
        dst = host.node_id
        attached = downlinks.get(dst, {})
        key = frozenset(attached)
        if key not in classes:
            dist = _reverse_bfs_distances(predecessors, attached)
            entries = [
                (
                    tables[node_id],
                    tuple(
                        link
                        for nbr, link in successors[node_id]
                        if dist.get(nbr) == node_dist - 1
                    ),
                )
                for node_id, node_dist in dist.items()
                if node_dist > 1
            ]
            classes[key] = entries, sum(len(hops) for _table, hops in entries)
        entries, width = classes[key]
        for node_id, link in attached.items():
            tables[node_id][dst] = (link,)
        for table, hops in entries:
            table[dst] = hops
        installed += len(attached) + width
    return installed


def clear_routes(topology: Topology) -> None:
    """Remove all installed routes (before a recompute)."""
    for switch in topology.switches.values():
        switch.routes.clear()
