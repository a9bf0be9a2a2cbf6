"""Shared machinery for the total-order broadcast baselines."""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

from repro.net.nic import Host
from repro.net.rpc import Messenger
from repro.net.topology import Topology
from repro.sim import Simulator

# Delivery callback: fn(member_index, order_key, src_index, payload).
DeliverCallback = Callable[[int, Any, int, Any], None]

# First proc id allocated inside a group.  Proc ids feed the ECMP flow
# hash, so they must be a deterministic function of the group alone —
# a process-global counter would make back-to-back runs in one process
# route (and hence deliver) differently for the same seed.
PROC_ID_BASE = 10_000_000


class BroadcastMember:
    """One group member: a messenger endpoint plus delivery hooks."""

    def __init__(
        self,
        group: "BroadcastGroup",
        index: int,
        host: Host,
        cpu_ns_per_msg: int,
    ) -> None:
        self.group = group
        self.index = index
        self.host = host
        self.proc_id = group.next_proc_id()
        self.messenger = Messenger(host, self.proc_id, cpu_ns_per_msg)
        self.delivered_count = 0
        self.delivered_log: Optional[List] = None  # set by tests

    def record_delivery(self, order_key: Any, src: int, payload: Any) -> None:
        self.delivered_count += 1
        if self.delivered_log is not None:
            self.delivered_log.append((order_key, src, payload))
        if self.group.deliver_callback is not None:
            self.group.deliver_callback(self.index, order_key, src, payload)


class BroadcastGroup:
    """Base class: members placed on a topology paper-style."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_members: int,
        cpu_ns_per_msg: int = 200,
        payload_bytes: int = 64,
    ) -> None:
        if n_members < 2:
            raise ValueError("a broadcast group needs at least 2 members")
        self.sim = sim
        self.topology = topology
        # Subclasses that allocate helper processes (e.g. a sequencer)
        # may have primed the counter before calling ``super().__init__``.
        if not hasattr(self, "_proc_ids"):
            self._proc_ids = itertools.count(PROC_ID_BASE)
        self.payload_bytes = payload_bytes
        self.deliver_callback: Optional[DeliverCallback] = None
        self.members: List[BroadcastMember] = []
        for index, host in enumerate(topology.assign_hosts(n_members)):
            member = self._make_member(index, host, cpu_ns_per_msg)
            self.members.append(member)
        self._wire()

    def next_proc_id(self) -> int:
        """Allocate a group-local process id (deterministic per group)."""
        if not hasattr(self, "_proc_ids"):
            self._proc_ids = itertools.count(PROC_ID_BASE)
        return next(self._proc_ids)

    # Subclass hooks -----------------------------------------------------
    def _make_member(self, index: int, host: Host, cpu: int) -> BroadcastMember:
        return BroadcastMember(self, index, host, cpu)

    def _wire(self) -> None:
        """Register message handlers after all members exist."""

    def broadcast(self, sender_index: int, payload: Any) -> None:
        raise NotImplementedError

    # Utilities ----------------------------------------------------------
    def total_delivered(self) -> int:
        return sum(m.delivered_count for m in self.members)

    def enable_logging(self) -> None:
        for member in self.members:
            member.delivered_log = []
