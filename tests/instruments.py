"""Test instruments for the network substrate: a one-rack topology and a
packet tap.  Neither is part of any runner; they keep unit tests small
and let them see individual packets."""

from dataclasses import replace
from typing import Callable, List, Tuple

from repro.net import Host, Link, Node, Packet, Topology, TopologyParams, build_fat_tree
from repro.sim import Simulator


def build_single_rack(
    sim: Simulator, n_hosts: int = 8, **overrides
) -> Tuple[Topology, List[Host]]:
    """A one-ToR topology for focused unit tests."""
    params = TopologyParams(
        n_pods=1,
        tors_per_pod=1,
        spines_per_pod=1,
        n_cores=1,
        hosts_per_tor=n_hosts,
    )
    if overrides:
        params = replace(params, **overrides)
    topo = build_fat_tree(sim, params)
    return topo, topo.hosts


class PacketTap:
    """Wraps a node's receive to observe the packets it gets."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.packets: List[Packet] = []
        self._original: Callable = node.receive
        node.receive = self._receive

    def _receive(self, packet: Packet, in_link: Link) -> None:
        self.packets.append(packet)
        self._original(packet, in_link)

    def detach(self) -> None:
        self.node.receive = self._original
