"""In-network Paxos total order broadcast (ROADMAP item 4b).

The competitor from "Paxos Made Switch-y" / "NetPaxos": the consensus
roles run *inside the fabric*, in ``ProgrammableChipEngine``-style
ordering engines installed on the baseline switches.

- **Coordinator** — a core switch (``core0``).  It stamps every
  submitted value with the next Paxos *instance number* (sequence
  stamping at line rate) and multicasts an ``accept`` down to each pod
  that hosts group members.
- **Acceptors** — the aggregation layer.  The pod spine's down half
  and every member ToR's down half each keep a per-instance vote
  register; an accept gathers one vote per acceptor it traverses and
  is replicated down the distribution tree (spine -> member ToRs ->
  member hosts).
- **Learners** — the group members (host processes).  A learner
  delivers instance ``seq`` once it holds ``f + 1`` distinct acceptor
  votes for it, in instance order through a hold-back queue; copies
  short of quorum are dropped and counted.

Loss recovery is learner-driven: the coordinator piggybacks its latest
instance number on a periodic advert, and a learner that observes a
gap (or an advert beyond its frontier) sends a ``nack`` back up the
submit path, triggering a bounded re-multicast from the coordinator's
instance log (acceptors re-vote idempotently, learners deduplicate).

Fabric mechanics: consensus packets are pinned hop-by-hop — member ToR
up-half -> pod spine 0 up-half -> core0 -> pod spine 0 down-half ->
member ToR down-halves -> member hosts — with the ingress pipeline
delay charged per traversal (so switch stragglers slow consensus
exactly like they slow data).  A crashed switch silently eats the
packets it would relay, which is what stalls a pod's quorum and makes
recovery time measurable in the shootout.

Simplifications vs. a deployable P4xos, stated plainly: there is one
coordinator with no backup (a core0 crash halts ordering — counted,
not hidden), the ``f + 1`` quorum accumulates along a single
distribution path rather than across ``2f + 1`` independent acceptor
round trips, and vote registers are unbounded Python dicts rather than
fixed-size switch register arrays.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.common import BroadcastGroup, BroadcastMember
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.sim import Simulator

# Wire message types (payload[0] of the RAW packets the engines pin).
SUBMIT = "sp.submit"
ACCEPT = "sp.accept"
NACK = "sp.nack"
LATEST = "sp.latest"
_UPSTREAM = (SUBMIT, NACK)

# Per-packet processing cost of the consensus pipeline stages, on top
# of the switch's (straggler-scaled) forwarding delay.
CHIP_OP_NS = 8


def _sp_type(packet: Packet) -> Optional[str]:
    payload = packet.payload
    if (
        packet.kind == PacketKind.RAW
        and type(payload) is tuple
        and payload
        and type(payload[0]) is str
        and payload[0].startswith("sp.")
    ):
        return payload[0]
    return None


class _SpEngineBase:
    """Shared plumbing: pinned-path emission with pipeline delay."""

    def __init__(self, group: "SwitchPaxosBroadcast") -> None:
        self.group = group
        self.sim = group.sim
        self.switch: Optional[Switch] = None

    def attach(self, switch: Switch) -> None:
        self.switch = switch

    def _emit(self, link: Link, packet: Packet) -> None:
        """Forward after this switch's current ingress pipeline delay."""
        delay = self.switch.forwarding_delay_ns + CHIP_OP_NS
        self.sim.post(delay, self.switch.send_on, link, packet)


class _RelayEngine(_SpEngineBase):
    """Up-half engine: pins submit/nack traffic toward the coordinator."""

    def __init__(self, group, uplink: Link) -> None:
        super().__init__(group)
        self.uplink = uplink

    def on_packet(self, packet: Packet, in_link: Link) -> bool:
        if _sp_type(packet) in _UPSTREAM:
            self.group.relay_hops += 1
            self._emit(self.uplink, packet)
            return False
        return True


class _CoordinatorEngine(_SpEngineBase):
    """Core-switch coordinator: instance stamping + accept multicast."""

    def __init__(self, group) -> None:
        super().__init__(group)
        self.next_seq = 1
        # Instance log: seq -> (sender_index, payload).  Unbounded here;
        # a real chip would use a ring of registers.
        self.log: Dict[int, Tuple[int, Any]] = {}

    def on_packet(self, packet: Packet, in_link: Link) -> bool:
        sp = _sp_type(packet)
        if sp == SUBMIT:
            delay = self.switch.forwarding_delay_ns + CHIP_OP_NS
            self.sim.post(delay, self._on_submit, packet.payload[1])
            return False
        if sp == NACK:
            delay = self.switch.forwarding_delay_ns + CHIP_OP_NS
            self.sim.post(delay, self._on_nack, packet.payload[1])
            return False
        return True

    def _on_submit(self, body: Any) -> None:
        if self.switch.failed:
            return
        sender_index, payload = body
        seq = self.next_seq
        self.next_seq += 1
        self.log[seq] = (sender_index, payload)
        self.group.sequenced += 1
        self._multicast(seq)

    def _on_nack(self, body: Any) -> None:
        if self.switch.failed:
            return
        _member_index, from_seq = body
        self.group.nacks_handled += 1
        upto = min(self.next_seq, from_seq + self.group.nack_window)
        for seq in range(from_seq, upto):
            if seq in self.log:
                self._multicast(seq)

    def advertise(self) -> None:
        """Periodic latest-instance advert (tail-loss detection)."""
        if self.switch is None or self.switch.failed or self.next_seq == 1:
            return
        body = self.next_seq - 1
        for pod_link in self.group.pod_downlinks:
            self._emit(pod_link, self.group._make_packet(LATEST, body, 16))

    def _multicast(self, seq: int) -> None:
        sender_index, payload = self.log[seq]
        body = (seq, sender_index, payload, ())
        for pod_link in self.group.pod_downlinks:
            self._emit(
                pod_link,
                self.group._make_packet(ACCEPT, body, self.group.payload_bytes),
            )


class _AcceptorEngine(_SpEngineBase):
    """Down-half acceptor: per-instance vote register + replication.

    ``fanout`` maps each downstream branch to the link leading to it —
    member ToR down-halves for the pod spine, member hosts (as
    ``(proc_id, host_id, link)``) for a ToR.
    """

    def __init__(self, group, name: str) -> None:
        super().__init__(group)
        self.name = name
        self.register: Dict[int, Tuple[int, Any]] = {}
        self.switch_links: List[Link] = []
        self.host_links: List[Tuple[int, str, Link]] = []

    def on_packet(self, packet: Packet, in_link: Link) -> bool:
        sp = _sp_type(packet)
        if sp == ACCEPT:
            self._accept(packet.payload[1])
            return False
        if sp == LATEST:
            self._replicate(LATEST, packet.payload[1], 16)
            return False
        return True

    def _accept(self, body: Any) -> None:
        seq, sender_index, payload, votes = body
        value = (sender_index, payload)
        held = self.register.get(seq)
        if held is None:
            self.register[seq] = value
        elif held != value:
            # Conflicting value for a decided instance: refuse the vote
            # but still relay (the learner's quorum check catches it).
            self.group.vote_conflicts += 1
            self._replicate(
                ACCEPT, (seq, sender_index, payload, votes),
                self.group.payload_bytes,
            )
            return
        self._replicate(
            ACCEPT, (seq, sender_index, payload, votes + (self.name,)),
            self.group.payload_bytes,
        )

    def _replicate(self, sp: str, body: Any, size: int) -> None:
        for link in self.switch_links:
            self._emit(link, self.group._make_packet(sp, body, size))
        for proc_id, host_id, link in self.host_links:
            self._emit(
                link,
                self.group._make_packet(
                    sp, body, size, dst=proc_id, dst_host=host_id
                ),
            )


class _PaxosMember(BroadcastMember):
    def __init__(self, group, index, host, cpu):
        super().__init__(group, index, host, cpu)
        self.next_expected = 1
        self.pending: Dict[int, Tuple[int, Any]] = {}
        self.heard_max = 0
        self.last_nack_for = 0


class SwitchPaxosBroadcast(BroadcastGroup):
    """Total order broadcast via Paxos roles in the switches."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_members: int,
        cpu_ns_per_msg: int = 200,
        payload_bytes: int = 64,
        nack_interval_ns: int = 100_000,
        nack_window: int = 64,
        f: int = 1,
    ) -> None:
        self.nack_interval_ns = nack_interval_ns
        self.nack_window = nack_window
        self.quorum = f + 1
        # Shootout-facing counters.
        self.sequenced = 0
        self.relay_hops = 0
        self.nacks_sent = 0
        self.nacks_handled = 0
        self.no_quorum_drops = 0
        self.vote_conflicts = 0
        self.duplicate_accepts = 0
        super().__init__(
            sim, topology, n_members, cpu_ns_per_msg, payload_bytes
        )

    def _make_member(self, index, host, cpu):
        return _PaxosMember(self, index, host, cpu)

    # ------------------------------------------------------------------
    # Fabric wiring: install the consensus roles on the switch graph
    # ------------------------------------------------------------------
    def _wire(self) -> None:
        topo = self.topology
        # Anchor: a routable placeholder destination for upstream
        # packets; relay engines always intercept them before routing.
        self._anchor_host = topo.hosts[-1].node_id
        self._anchor_proc = self.next_proc_id()
        self._coord_proc = self.next_proc_id()

        # Member geography: pod -> tor name -> [members].
        pods: Dict[int, Dict[str, List[_PaxosMember]]] = {}
        for member in self.members:
            tor = topo.tor_of(member.host.node_id)  # "tor{p}.{t}"
            pod = int(tor[3:].split(".")[0])
            pods.setdefault(pod, {}).setdefault(tor, []).append(member)

        self.coordinator = _CoordinatorEngine(self)
        topo.switches["core0"].install_engine(self.coordinator)

        self.pod_downlinks: List[Link] = []
        self.acceptors: List[_AcceptorEngine] = []
        for pod in sorted(pods):
            spine_up = f"spine{pod}.0.up"
            spine_down = f"spine{pod}.0.down"
            topo.switches[spine_up].install_engine(
                _RelayEngine(self, topo.link(spine_up, "core0"))
            )
            self.pod_downlinks.append(topo.link("core0", spine_down))
            spine_acceptor = _AcceptorEngine(self, spine_down)
            topo.switches[spine_down].install_engine(spine_acceptor)
            self.acceptors.append(spine_acceptor)
            for tor in sorted(pods[pod]):
                tor_up, tor_down = f"{tor}.up", f"{tor}.down"
                topo.switches[tor_up].install_engine(
                    _RelayEngine(self, topo.link(tor_up, spine_up))
                )
                spine_acceptor.switch_links.append(
                    topo.link(spine_down, tor_down)
                )
                tor_acceptor = _AcceptorEngine(self, tor_down)
                topo.switches[tor_down].install_engine(tor_acceptor)
                self.acceptors.append(tor_acceptor)
                for member in pods[pod][tor]:
                    tor_acceptor.host_links.append((
                        member.proc_id,
                        member.host.node_id,
                        topo.link(tor_down, member.host.node_id),
                    ))

        for member in self.members:
            member.messenger.on(
                ACCEPT,
                lambda src, body, m=member: self._on_accept(m, body),
            )
            member.messenger.on(
                LATEST,
                lambda src, body, m=member: self._on_latest(m, body),
            )
        self._task = self.sim.every(self.nack_interval_ns, self._tick)

    def stop(self) -> None:
        self._task.cancel()

    def _make_packet(
        self,
        sp: str,
        body: Any,
        size_bytes: int,
        dst: int = -1,
        dst_host: str = "",
    ) -> Packet:
        return Packet(
            PacketKind.RAW,
            src=self._coord_proc,
            dst=dst,
            src_host="core0",
            dst_host=dst_host,
            payload_bytes=size_bytes,
            payload=(sp, body),
            sent_at=self.sim.now,
        )

    # ------------------------------------------------------------------
    # Submit path (member -> coordinator)
    # ------------------------------------------------------------------
    def broadcast(self, sender_index: int, payload: Any) -> None:
        member = self.members[sender_index]
        member.messenger.send(
            self._anchor_proc,
            self._anchor_host,
            SUBMIT,
            (sender_index, payload),
            size_bytes=self.payload_bytes,
        )

    # ------------------------------------------------------------------
    # Learner (member host)
    # ------------------------------------------------------------------
    def _on_accept(self, member: _PaxosMember, body: Any) -> None:
        seq, sender_index, payload, votes = body
        member.heard_max = max(member.heard_max, seq)
        if len(set(votes)) < self.quorum:
            self.no_quorum_drops += 1
            return
        if seq < member.next_expected or seq in member.pending:
            self.duplicate_accepts += 1
            return
        member.pending[seq] = (sender_index, payload)
        while member.next_expected in member.pending:
            src, item = member.pending.pop(member.next_expected)
            member.record_delivery(member.next_expected, src, item)
            member.next_expected += 1

    def _on_latest(self, member: _PaxosMember, body: Any) -> None:
        member.heard_max = max(member.heard_max, body)

    # ------------------------------------------------------------------
    # Gap detection / recovery
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self.coordinator.advertise()
        for member in self.members:
            if member.host.failed:
                continue
            if member.heard_max < member.next_expected:
                # Frontier is current: nothing known to be missing.
                member.last_nack_for = 0
                continue
            if member.last_nack_for != member.next_expected:
                # An instance >= next_expected exists but the frontier
                # moved since last tick — give in-flight traffic one
                # full interval before declaring a hole.
                member.last_nack_for = member.next_expected
                continue
            self.nacks_sent += 1
            member.messenger.send(
                self._anchor_proc,
                self._anchor_host,
                NACK,
                (member.index, member.next_expected),
                size_bytes=16,
            )
