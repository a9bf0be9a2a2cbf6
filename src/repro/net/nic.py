"""Hosts: NIC, process endpoints, and egress/ingress hooks.

A host owns:

- a synchronized monotonic clock (:mod:`repro.clock`);
- one uplink to its ToR and one downlink from it (single-homed, like the
  paper's testbed);
- a registry of *process endpoints* — the paper runs up to 16 1Pipe
  processes per host; packets are demultiplexed to endpoints by the
  ``dst`` process id;
- optional egress/ingress hooks installed by the 1Pipe host agent: the
  egress hook stamps barrier fields at the moment a packet enters the
  FIFO NIC queue (the "SmartNIC ideal" of §6.1 — guarantees timestamp
  monotonicity on the host→ToR link), and the ingress hook feeds barrier
  information to the receiver logic.

Hosts also model a simple per-endpoint CPU: delivering a message costs
``cpu_ns_per_msg``, which is what bounds 1Pipe's per-process throughput
in the paper (§7.2: "throughput of 1Pipe is limited by CPU processing and
RDMA messaging rate").
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.clock.clock import HostClock
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.switch import Node
from repro.obs.registry import GLOBAL_METRICS
from repro.sim import Simulator

# Delivered-message handler: fn(packet) -> None
PacketHandler = Callable[[Packet], None]


class Host(Node):
    """An end host with a single NIC."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        clock: Optional[HostClock] = None,
        nic_delay_ns: int = 250,
    ) -> None:
        super().__init__(sim, node_id)
        self.clock = clock if clock is not None else HostClock(sim)
        self.nic_delay_ns = nic_delay_ns
        self.uplink: Optional[Link] = None
        self._uplink_send: Optional[Callable[[Packet], bool]] = None
        self.downlink: Optional[Link] = None
        self.endpoints: Dict[int, PacketHandler] = {}
        # Hooks installed by the 1Pipe host agent (or left None).
        self.egress_hook: Optional[Callable[[Packet], None]] = None
        self.ingress_hook: Optional[Callable[[Packet, Link], bool]] = None
        self.tx_packets = 0
        self.rx_packets = 0
        self.undeliverable = 0
        metrics = getattr(sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_tx = metrics.counter("host.tx_packets")
        self._m_rx = metrics.counter("host.rx_packets")
        self._m_undeliverable = metrics.counter("host.undeliverable")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_uplink(self, link: Link) -> None:
        if self.uplink is not None:
            raise ValueError(f"{self.node_id} already has an uplink")
        self.uplink = link
        # Pre-bound so the per-packet schedule below does not allocate a
        # bound-method object for every send.
        self._uplink_send = link.send
        if link not in self.out_links:  # Topology.add_link attached it
            self.attach_out_link(link)

    def set_downlink(self, link: Link) -> None:
        if self.downlink is not None:
            raise ValueError(f"{self.node_id} already has a downlink")
        self.downlink = link
        if link not in self.in_links:
            self.attach_in_link(link)

    def register_endpoint(self, proc_id: int, handler: PacketHandler) -> None:
        if proc_id in self.endpoints:
            raise ValueError(f"duplicate endpoint {proc_id} on {self.node_id}")
        self.endpoints[proc_id] = handler

    def unregister_endpoint(self, proc_id: int) -> None:
        self.endpoints.pop(proc_id, None)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> bool:
        """Push a packet into the NIC egress queue.

        The egress hook (1Pipe agent) runs first so barrier stamping
        happens at the FIFO boundary; then the packet enters the uplink
        after the NIC processing delay.
        """
        if self.failed:
            return False
        send = self._uplink_send
        if send is None:
            raise RuntimeError(f"{self.node_id} has no uplink")
        packet.src_host = self.node_id
        packet.sent_at = self.sim.now
        if self.egress_hook is not None:
            self.egress_hook(packet)
        self.tx_packets += 1
        if self._metrics.enabled:
            self._m_tx.add()
        if self.nic_delay_ns:
            self.sim.post(self.nic_delay_ns, send, packet)
            return True
        return send(packet)

    def receive(self, packet: Packet, in_link: Link) -> None:
        if self.failed:
            return
        self.rx_packets += 1
        if self._metrics.enabled:
            self._m_rx.add()
        if self.ingress_hook is not None:
            consumed = self.ingress_hook(packet, in_link)
            if consumed:
                return
        if packet.kind == PacketKind.BEACON:
            return  # barrier beacons are host-agent traffic; no agent, drop
        self.deliver_local(packet)

    def deliver_local(self, packet: Packet) -> None:
        """Hand a packet to its destination endpoint on this host."""
        handler = self.endpoints.get(packet.dst)
        if handler is None:
            self.undeliverable += 1
            if self._metrics.enabled:
                self._m_undeliverable.add()
            return
        handler(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.node_id} endpoints={sorted(self.endpoints)}>"
