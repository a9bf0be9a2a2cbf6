"""Nodes and logical switches.

Each *physical* switch is modelled as two *logical* switches — an **up**
half receiving from below and forwarding toward the core, and a **down**
half receiving from above and forwarding toward hosts — connected by a
loopback link (paper Fig. 3).  The routing topology over logical switches
is a DAG, which is what makes hierarchical barrier aggregation correct.

A switch forwards by consulting a routing table ``dst_host -> [out
links]`` (ECMP among ties) after a fixed pipeline delay.  Ordering
behaviour is pluggable via an *ordering engine* (see
:mod:`repro.onepipe.incarnations`): the engine sees every packet before it
is forwarded and owns the barrier registers and beacon generation.  A
switch with no engine is a plain DCN switch (used by baselines).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.obs.registry import GLOBAL_METRICS
from repro.sim import Simulator

_BEACON_KIND = PacketKind.BEACON


def _flow_hash(packet: Packet) -> int:
    """Deterministic 5-tuple-ish hash for ECMP (``hash()`` is salted per
    interpreter run, which would make simulations non-reproducible)."""
    h = 2166136261
    for part in (packet.src_host, packet.dst_host):
        for ch in part:
            h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
    h = ((h ^ (packet.src & 0xFFFF)) * 16777619) & 0xFFFFFFFF
    h = ((h ^ (packet.dst & 0xFFFF)) * 16777619) & 0xFFFFFFFF
    return h


class Node:
    """Anything a link can deliver to: switches and hosts."""

    def __init__(self, sim: Simulator, node_id: str) -> None:
        self.sim = sim
        self.node_id = node_id
        self.failed = False
        self.in_links: List[Link] = []
        self.out_links: List[Link] = []
        # Upper bound on max(link.last_data_tx) over out_links; bumped
        # by Link.send on every data enqueue.  Ordering engines use it
        # to prove "no recent data on any output link" without scanning.
        self._data_ceiling = 0
        # Wave-granular beacon egress (repro.onepipe.analytic): while
        # every out-link advances in lockstep the fabric parks a record
        # here that owes them their per-link send accounting.  Whatever
        # is about to read or disturb that state calls its ``settle()``
        # or ``unlock()`` first (Link does; see its lockstep section).
        self._lockstep = None

    def attach_in_link(self, link: Link) -> None:
        self.in_links.append(link)

    def attach_out_link(self, link: Link) -> None:
        if self._lockstep is not None:
            self._lockstep.unlock()  # the record covers the old fleet
        self.out_links.append(link)

    def receive(self, packet: Packet, in_link: Link) -> None:
        raise NotImplementedError

    def crash(self) -> None:
        """Fail-stop: silently drop everything from now on."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.node_id}>"


class OrderingEngine(Protocol):
    """Interface between a switch and its 1Pipe incarnation.

    Implementations live in :mod:`repro.onepipe.incarnations`.
    """

    def on_packet(self, packet: Packet, in_link: Link) -> bool:
        """Inspect/rewrite a non-beacon packet before forwarding.

        Returns True if the packet should still be forwarded.
        """
        ...

    def on_beacon(
        self, in_link: Link, be_ts: int, commit_ts: int, sent_at: int,
        auth: int,
    ) -> None:
        """Consume a beacon (beacons are hop-by-hop, never forwarded)."""
        ...

    def attach(self, switch: "Switch") -> None:
        """Called once when installed on a switch."""
        ...


class Switch(Node):
    """A logical (up or down) switch.

    Parameters
    ----------
    forwarding_delay_ns:
        Ingress-pipeline + queueing-decision latency applied to every
        packet before it is placed on the output link.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        forwarding_delay_ns: int = 250,
    ) -> None:
        super().__init__(sim, node_id)
        self.forwarding_delay_ns = forwarding_delay_ns
        # Healthy pipeline delay; kept so straggler injection (a slowed
        # pipeline, see repro.chaos) can be reverted exactly.
        self.base_forwarding_delay_ns = forwarding_delay_ns
        # dst host id -> candidate output links (ECMP set); the tuple is
        # shared by every destination of the class (net.routing).
        self.routes: Dict[str, Tuple[Link, ...]] = {}
        self.engine: Optional[OrderingEngine] = None
        self._ecmp_rng = sim.rng(f"switch.ecmp.{node_id}")
        self.ecmp_mode = "flow"  # "flow" (hash src,dst) or "packet" (spray)
        # Pre-bound so per-packet scheduling does not allocate a fresh
        # bound-method object on every forwarded packet.
        self._forward_cb = self._forward
        self.rx_packets = 0
        self.no_route_drops = 0
        metrics = getattr(sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_rx = metrics.counter("switch.rx_packets")
        self._m_no_route = metrics.counter("switch.no_route_drops")

    def install_engine(self, engine: OrderingEngine) -> None:
        self.engine = engine
        engine.attach(self)

    def set_straggler(self, factor: float) -> None:
        """Scale the ingress pipeline delay (gray-failure injection: an
        overloaded or degraded switch that forwards slowly but does not
        crash).  ``factor`` 1.0 restores the healthy delay."""
        if factor <= 0:
            raise ValueError(f"straggler factor must be positive: {factor}")
        self.forwarding_delay_ns = int(self.base_forwarding_delay_ns * factor)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_link: Link) -> None:
        if self.failed:
            return
        self.rx_packets += 1
        if self._metrics.enabled:
            self._m_rx.add()
        engine = self.engine
        if packet.kind is _BEACON_KIND:
            # Beacons normally travel on the analytic fabric, which calls
            # on_beacon itself; a beacon packet takes the same entry.  A
            # plain switch has no use for beacons.
            if engine is not None:
                engine.on_beacon(
                    in_link, packet.barrier_ts, packet.commit_ts,
                    packet.sent_at, packet.auth,
                )
            return
        if engine is not None and not engine.on_packet(packet, in_link):
            return
        # Packets arriving on the internal loopback already paid the
        # pipeline delay in the up half of this physical switch.
        if getattr(in_link, "internal", False):
            self.sim.post(0, self._forward_cb, packet)
        else:
            self.sim.post(self.forwarding_delay_ns, self._forward_cb, packet)

    def _forward(self, packet: Packet) -> None:
        if self.failed:
            return
        candidates = self.routes.get(packet.dst_host)
        if not candidates:
            self.no_route_drops += 1
            if self._metrics.enabled:
                self._m_no_route.add()
            return
        link = self._pick(candidates, packet)
        link.send(packet)

    def _pick(self, candidates: Tuple[Link, ...], packet: Packet) -> Link:
        if len(candidates) == 1:
            return candidates[0]
        if self.ecmp_mode == "packet":
            return candidates[self._ecmp_rng.randrange(len(candidates))]
        return candidates[_flow_hash(packet) % len(candidates)]

    def send_on(self, link: Link, packet: Packet) -> None:
        """Emit a locally generated packet on a specific link (the
        switch-Paxos engines' coordinator and acceptor traffic)."""
        if self.failed:
            return
        link.send(packet)
