"""Data center network substrate.

Models the parts of a DCN that 1Pipe's correctness and performance depend
on (paper §3):

- :mod:`~repro.net.packet` — packets carrying the 1Pipe header (message
  timestamp, best-effort barrier, commit barrier, PSN, opcode).
- :mod:`~repro.net.link` — unidirectional FIFO links with bandwidth,
  propagation delay, bounded queues (tail drop), ECN marking and random
  corruption loss.
- :mod:`~repro.net.switch` — logical switches; each physical switch is
  split into an *up* and a *down* half so the routing topology is a DAG
  (paper Fig. 3), with a pluggable ordering engine (see
  :mod:`repro.onepipe.incarnations`).
- :mod:`~repro.net.topology` — multi-rooted tree (fat-tree/Clos) builder,
  including the paper's 32-host / 4 ToR / 4 spine / 2 core testbed.
- :mod:`~repro.net.nic` — hosts: NIC egress/ingress hooks, process
  endpoint registry, per-host clock.
- :mod:`~repro.net.rpc` — plain request/response messaging used by the
  non-1Pipe baselines (FaRM, 2PL, leader-follower replication).
- :mod:`~repro.net.transport` — flow control and DCTCP-style congestion
  control, plus background flow generators for the queuing experiments.
- :mod:`~repro.net.failures` — crash-stop failure injection for hosts,
  switches and links.
"""

from repro.net.failures import FailureInjector
from repro.net.link import Link
from repro.net.nic import Host
from repro.net.packet import Packet, PacketKind
from repro.net.rpc import Directory, Messenger, RpcEndpoint, RpcTimeout
from repro.net.switch import Node, Switch
from repro.net.topology import (
    Topology,
    TopologyParams,
    build_fat_tree,
    build_testbed,
)
from repro.net.transport import BackgroundFlow, DctcpState, SendWindow, TransportParams

__all__ = [
    "BackgroundFlow",
    "DctcpState",
    "Directory",
    "FailureInjector",
    "Host",
    "Link",
    "Messenger",
    "Node",
    "Packet",
    "PacketKind",
    "RpcEndpoint",
    "RpcTimeout",
    "SendWindow",
    "Switch",
    "Topology",
    "TopologyParams",
    "TransportParams",
    "build_fat_tree",
    "build_testbed",
]
