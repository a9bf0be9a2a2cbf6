"""The 1Pipe programming API (paper Table 1).

=============================================  =================================
Paper API                                      This library
=============================================  =================================
``onepipe_unreliable_send(vec[<dst, msg>])``   :meth:`OnePipeEndpoint.unreliable_send`
``onepipe_unreliable_recv()``                  :meth:`OnePipeEndpoint.on_unreliable_recv`
``onepipe_send_fail_callback(func)``           :meth:`OnePipeEndpoint.set_send_fail_callback`
``onepipe_reliable_send(vec[<dst, msg>])``     :meth:`OnePipeEndpoint.reliable_send`
``onepipe_reliable_recv()``                    :meth:`OnePipeEndpoint.on_reliable_recv`
``onepipe_proc_fail_callback(func)``           :meth:`OnePipeEndpoint.set_proc_fail_callback`
``onepipe_get_timestamp()``                    :meth:`OnePipeEndpoint.get_timestamp`
``onepipe_init() / onepipe_exit()``            endpoint construction / :meth:`close`
=============================================  =================================

Receives are callback-based because the endpoint lives inside a
discrete-event simulation; ``on_recv`` registers a single callback for
both services (with a ``reliable`` flag) and the per-service variants
filter accordingly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Sequence

from repro.net.packet import Packet, PacketKind
from repro.onepipe.config import OnePipeConfig
from repro.onepipe.receiver import ProcessReceiver
from repro.onepipe.sender import PendingMessage, ProcessSender, Scattering
from repro.sim import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.onepipe.hostagent import HostAgent


@dataclass(frozen=True)
class Message:
    """A delivered 1Pipe message."""

    ts: int
    src: int
    payload: Any
    reliable: bool


class OnePipeEndpoint:
    """One 1Pipe process: a sender role plus a receiver role (§2.1)."""

    def __init__(
        self,
        agent: "HostAgent",
        proc_id: int,
        config: OnePipeConfig,
        msg_ids: Iterator[int],
    ) -> None:
        self.agent = agent
        self.sim = agent.sim
        self.proc_id = proc_id
        self.config = config
        self.sender = ProcessSender(agent, proc_id, config, msg_ids)
        self.receiver = ProcessReceiver(agent, proc_id, config)
        self.receiver.deliver_callback = self._dispatch_delivery
        self._recv_callbacks: List[Callable[[Message], None]] = []
        self._unreliable_recv: Optional[Callable[[Message], None]] = None
        self._reliable_recv: Optional[Callable[[Message], None]] = None
        self._proc_fail_callback: Optional[Callable[[int, int], None]] = None
        self._pending_recalls = {}
        self._recall_ids = itertools.count(1)
        agent.add_endpoint(self)
        self.closed = False

    @property
    def host_id(self) -> str:
        return self.agent.host.node_id

    # ------------------------------------------------------------------
    # Table 1 surface
    # ------------------------------------------------------------------
    def unreliable_send(self, entries: Sequence[tuple]) -> Optional[Scattering]:
        """Best-effort scattering: at-most-once, totally ordered (§4)."""
        self._check_open()
        return self.sender.send(entries, reliable=False)

    def reliable_send(self, entries: Sequence[tuple]) -> Optional[Scattering]:
        """Reliable scattering: 2PC with restricted atomicity (§5)."""
        self._check_open()
        return self.sender.send(entries, reliable=True)

    def on_recv(self, callback: Callable[[Message], None]) -> None:
        """Receive every delivered message (both services), in order."""
        self._recv_callbacks.append(callback)

    def on_unreliable_recv(self, callback: Callable[[Message], None]) -> None:
        self._unreliable_recv = callback

    def on_reliable_recv(self, callback: Callable[[Message], None]) -> None:
        self._reliable_recv = callback

    def set_send_fail_callback(
        self, callback: Callable[[int, int, Any], None]
    ) -> None:
        """``callback(ts, dst, payload)`` on detected loss / peer failure."""
        self.sender.send_fail_callback = callback

    def set_proc_fail_callback(self, callback: Callable[[int, int], None]) -> None:
        """``callback(failed_proc, failure_ts)`` during failure handling."""
        self._proc_fail_callback = callback

    def get_timestamp(self) -> int:
        """Current host timestamp (monotonic, synchronized)."""
        return self.agent.clock.now()

    def close(self) -> None:
        """onepipe_exit(): detach from the host agent."""
        self.closed = True
        self.agent.remove_endpoint(self.proc_id)

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"endpoint {self.proc_id} is closed")

    # ------------------------------------------------------------------
    # Packet dispatch (called by the host agent)
    # ------------------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        kind = packet.kind
        if kind in (PacketKind.DATA, PacketKind.RDATA):
            self.receiver.on_data_packet(packet)
        elif kind == PacketKind.ACK:
            _tag, msg_id, ecn = packet.payload
            self.sender.on_ack(msg_id, ecn)
        elif kind == PacketKind.NAK:
            _tag, msg_id = packet.payload
            self.sender.on_nak(msg_id)
        elif kind == PacketKind.RECALL:
            self._on_recall(packet)
        elif kind == PacketKind.RECALL_ACK:
            self._on_recall_ack(packet)

    def _dispatch_delivery(
        self, ts: int, src: int, payload: Any, reliable: bool
    ) -> None:
        message = Message(ts, src, payload, reliable)
        for callback in self._recv_callbacks:
            callback(message)
        if reliable:
            if self._reliable_recv is not None:
                self._reliable_recv(message)
        elif self._unreliable_recv is not None:
            self._unreliable_recv(message)

    # ------------------------------------------------------------------
    # Recall exchange (paper §5.2 Recall step)
    # ------------------------------------------------------------------
    def start_recall(self, msg: PendingMessage) -> Future:
        """Recall one scattering sibling at its receiver; the returned
        future resolves when the receiver confirmed the discard."""
        done = Future(self.sim)
        self._pending_recalls[msg.msg_id] = (msg, done)
        self._send_recall(msg, attempt=0)
        return done

    def _send_recall(self, msg: PendingMessage, attempt: int) -> None:
        entry = self._pending_recalls.get(msg.msg_id)
        if entry is None:
            return
        if attempt > self.config.max_retransmissions:
            controller = self.agent.controller
            if controller is not None:
                controller.forward_recall(self, msg)
            return
        packet = Packet(
            PacketKind.RECALL,
            src=self.proc_id,
            dst=msg.dst,
            dst_host=msg.dst_host,
            msg_id=msg.msg_id,
            payload=("recall", msg.msg_id),
        )
        self.agent.host.send_packet(packet)
        self.sim.schedule(
            self.config.rtx_timeout_ns * (attempt + 1),
            self._send_recall,
            msg,
            attempt + 1,
        )

    def _on_recall(self, packet: Packet) -> None:
        self.receiver.discard_message(packet.src, packet.msg_id)
        reply = Packet(
            PacketKind.RECALL_ACK,
            src=self.proc_id,
            dst=packet.src,
            dst_host=packet.src_host,
            msg_id=packet.msg_id,
            payload=("recall_ack", packet.msg_id),
        )
        self.agent.host.send_packet(reply)

    def _on_recall_ack(self, packet: Packet) -> None:
        self.confirm_recall(packet.msg_id)

    def confirm_recall(self, msg_id: int) -> None:
        """Mark one recalled message as confirmed discarded (also used by
        the controller for undeliverable recalls)."""
        entry = self._pending_recalls.pop(msg_id, None)
        if entry is None:
            return
        msg, done = entry
        self.sender.finish_recall(msg)
        done.try_resolve(True)

    # ------------------------------------------------------------------
    # Receiver recovery (paper §5.2)
    # ------------------------------------------------------------------
    def recover(self) -> Future:
        """Recover after this process was declared failed (§5.2).

        Contacts the controller for the failure notifications and
        undeliverable recall messages issued since the failure, applies
        them to the receive buffer, then delivers every remaining
        buffered message — by construction exactly the messages every
        correct receiver in the same scatterings delivered.  The future
        resolves with the number of messages delivered.

        Afterwards this endpoint must not send again: the paper requires
        the process to re-join 1Pipe as a *new* process
        (:meth:`repro.onepipe.cluster.OnePipeCluster.add_endpoint`).
        """
        controller = self.agent.controller
        if controller is None:
            raise RuntimeError("recovery requires a controller")
        done = Future(self.sim)
        delay = self.config.ctrl_delay_ns

        def _fetch() -> None:
            failures, recalls = controller.recovery_info(self.proc_id)
            self.sim.schedule(delay, _apply, failures, recalls)

        def _apply(failures, recalls) -> None:
            for src_proc, msg_id in recalls:
                self.receiver.discard_message(src_proc, msg_id)
            for failed_proc, failure_ts in failures:
                if failed_proc != self.proc_id:
                    self.receiver.discard_from(failed_proc, failure_ts)
            # Everything that survived discard was committed before the
            # failure: deliver it unconditionally (barrier = +inf).
            delivered = self.receiver.flush(2**62, 2**62)
            self.closed = True  # the old identity must not send again
            done.try_resolve(delivered)

        self.sim.schedule(delay, _fetch)
        return done

    # ------------------------------------------------------------------
    def run_proc_fail_callbacks(self, failures: List[tuple]) -> None:
        if self._proc_fail_callback is None:
            return
        for failed_proc, failure_ts in failures:
            self._proc_fail_callback(failed_proc, failure_ts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OnePipeEndpoint proc={self.proc_id} host={self.host_id}>"
