"""lib1pipe sender: send buffer, scattering credits, ACKs, 2PC commit.

Send path (paper §6.1):

1. ``send()`` places a scattering in the wait queue (fails if full).
2. A scattering is *dispatched* when credits are available on every
   destination's send window (min of congestion and receive windows).
   The head of the queue reserves credits incrementally and never
   releases them — this guarantees large scatterings eventually go out —
   while later scatterings may overtake it when their credits are fully
   available (at the cost of the reserved credits, §6.1).
3. Timestamps are assigned at NIC egress by the host agent (the
   "SmartNIC ideal"), so the host→ToR link carries monotone timestamps.
4. Best-effort messages set an ACK timeout; on expiry the send-failure
   callback fires (no retransmission, §2.1).  Reliable messages
   retransmit on a timer (Prepare phase of 2PC, §5.1) and escalate to
   controller forwarding after ``max_retransmissions`` (§5.2).
5. The sender's **commit barrier** is ``min(clock, oldest unACKed
   reliable timestamp)``: every reliable message with a smaller
   timestamp has been ACKed by all its receivers.  The host agent stamps
   it into every egress packet, implementing the Commit phase without
   separate commit packets (beacons carry it on idle links).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.net.packet import Packet, PacketKind, fragment_sizes
from repro.net.transport import SendWindow
from repro.obs.registry import GLOBAL_METRICS
from repro.onepipe.config import MODE_BFT, OnePipeConfig
from repro.sim import Future
from repro.sim.trace import GLOBAL_TRACER

if TYPE_CHECKING:  # pragma: no cover
    from repro.onepipe.hostagent import HostAgent

# A scattering entry: (dst_proc, payload) or (dst_proc, payload, size).
ScatterEntry = Tuple


class PendingMessage:
    """One message of a scattering, tracked until ACKed or failed."""

    __slots__ = (
        "msg_id",
        "dst",
        "dst_host",
        "payload",
        "size",
        "n_frags",
        "reliable",
        "scattering",
        "ts",
        "acked",
        "failed",
        "recalled",
        "rtx_count",
        "timer",
    )

    def __init__(
        self,
        msg_id: int,
        dst: int,
        dst_host: str,
        payload: Any,
        size: int,
        n_frags: int,
        reliable: bool,
        scattering: "Scattering",
    ) -> None:
        self.msg_id = msg_id
        self.dst = dst
        self.dst_host = dst_host
        self.payload = payload
        self.size = size
        self.n_frags = n_frags
        self.reliable = reliable
        self.scattering = scattering
        self.ts: Optional[int] = None
        self.acked = False
        self.failed = False
        self.recalled = False
        self.rtx_count = 0
        self.timer = None


class Scattering:
    """A group of messages sharing one timestamp (paper §2.1)."""

    def __init__(self, sim, msgs: List[PendingMessage], reliable: bool) -> None:
        self.msgs = msgs
        self.reliable = reliable
        self.ts: Optional[int] = None
        self.dispatched = False
        # Resolves True when every message is ACKed (reliable) or when
        # dispatched (best effort); resolves False on failure/recall.
        self.completed: Future = Future(sim)
        self.reserved: Dict[int, int] = {}  # dst -> reserved fragment credits

    @property
    def n_acked(self) -> int:
        return sum(1 for m in self.msgs if m.acked)

    def all_acked(self) -> bool:
        return all(m.acked for m in self.msgs)


class ProcessSender:
    """Sender half of a 1Pipe process endpoint."""

    def __init__(
        self,
        agent: "HostAgent",
        proc_id: int,
        config: OnePipeConfig,
        msg_ids: Iterator[int],
        max_wait_queue: int = 4096,
    ) -> None:
        self.agent = agent
        self._msg_ids = msg_ids  # shared by every sender of the cluster
        self.sim = agent.sim
        self.clock = agent.clock
        self.proc_id = proc_id
        self.config = config
        self._tracer = getattr(self.sim, "tracer", None) or GLOBAL_TRACER
        self._trace_id = f"send.{proc_id}"
        metrics = getattr(self.sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_scatterings = metrics.counter("sender.scatterings_sent")
        self._m_messages = metrics.counter("sender.messages_sent")
        self._m_rtx = metrics.counter("sender.retransmissions")
        self._m_failures = metrics.counter("sender.send_failures")
        self.max_wait_queue = max_wait_queue
        self.windows: Dict[int, SendWindow] = {}
        self.wait_queue: deque[Scattering] = deque()
        self.unacked: Dict[int, PendingMessage] = {}
        # Min-heap of (ts, msg_id) for unACKed *reliable* messages; the
        # head (after lazy cleanup) bounds the commit barrier.
        self._commit_heap: List[Tuple[int, int]] = []
        self.send_fail_callback: Optional[Callable[[int, int, Any], None]] = None
        self.failed_peers: set = set()
        # Send-side CPU: fragments leave serialized at cpu_ns_per_msg
        # apart — the per-process messaging rate of §7.2 bounds sends
        # and receives alike (a scattering to N receivers costs N sends).
        self._cpu_free_at = 0
        # Fragments queued in the send CPU, FIFO: (scattering,
        # fallback_ts).  The host's best-effort barrier promise must not
        # exceed the oldest queued fragment's (eventual) timestamp, or a
        # beacon interleaving between fragments would break the promise.
        self._egress_queue: deque = deque()
        # Statistics.
        self.scatterings_sent = 0
        self.messages_sent = 0
        self.retransmissions = 0
        self.send_failures = 0
        # MODE_BFT: the process key used to MAC the payload of every
        # final fragment (docs/BYZANTINE.md); receivers verify, so a
        # host agent tampering with egress data cannot go undetected.
        self._bft_key = 0
        if config.mode == MODE_BFT:
            from repro.byz.keys import get_key_registry, proc_key_id

            self._bft_key = get_key_registry(self.sim).key_of(
                proc_key_id(proc_id)
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(
        self, entries: Sequence[ScatterEntry], reliable: bool
    ) -> Optional[Scattering]:
        """Queue a scattering; returns None if the send buffer is full."""
        if not entries:
            raise ValueError("a scattering needs at least one message")
        if len(self.wait_queue) >= self.max_wait_queue:
            return None
        msgs = []
        scattering = Scattering(self.sim, msgs, reliable)
        for entry in entries:
            if len(entry) == 2:
                dst, payload = entry
                size = 64
            else:
                dst, payload, size = entry
            if dst in self.failed_peers:
                # Sending to a known-failed process fails immediately.
                self._fail_message_immediately(scattering, dst, payload)
                continue
            msgs.append(
                PendingMessage(
                    msg_id=next(self._msg_ids),
                    dst=dst,
                    dst_host=self.agent.directory.host_of(dst),
                    payload=payload,
                    size=size,
                    n_frags=len(fragment_sizes(size, self.config.mtu_payload)),
                    reliable=reliable,
                    scattering=scattering,
                )
            )
        if not msgs:
            scattering.completed.try_resolve(False)
            return scattering
        self.wait_queue.append(scattering)
        self._try_dispatch()
        return scattering

    def commit_barrier_value(self, now_host_time: int) -> int:
        """The commit promise to stamp on egress packets.

        All reliable messages from this process with timestamp strictly
        below the returned value are fully ACKed, and all future reliable
        messages will carry timestamps at or above it.
        """
        heap = self._commit_heap
        while heap:
            ts, msg_id = heap[0]
            pending = self.unacked.get(msg_id)
            if pending is None or pending.acked:
                heapq.heappop(heap)
                continue
            return min(now_host_time, ts)
        return now_host_time

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _window(self, dst: int) -> SendWindow:
        window = self.windows.get(dst)
        if window is None:
            window = SendWindow(self.config.transport)
            self.windows[dst] = window
        return window

    def _try_dispatch(self) -> None:
        # Head of queue: reserve incrementally, never release (§6.1).
        made_progress = True
        while self.wait_queue and made_progress:
            made_progress = False
            head = self.wait_queue[0]
            if self._reserve_for(head, partial=True):
                self.wait_queue.popleft()
                self._launch(head)
                made_progress = True
        # Later scatterings may overtake the blocked head if their
        # credits are fully available right now.
        if self.wait_queue:
            overtakers = []
            for scattering in list(self.wait_queue)[1:]:
                if self._reserve_for(scattering, partial=False):
                    overtakers.append(scattering)
            for scattering in overtakers:
                self.wait_queue.remove(scattering)
                self._launch(scattering)

    def _reserve_for(self, scattering: Scattering, partial: bool) -> bool:
        """Try to reserve fragment credits for every message.

        ``partial=True`` (queue head): keep whatever could be reserved.
        ``partial=False``: all-or-nothing, rolling back on failure.
        """
        taken: List[Tuple[SendWindow, int]] = []
        complete = True
        for msg in scattering.msgs:
            needed = msg.n_frags - scattering.reserved.get(msg.msg_id, 0)
            if needed <= 0:
                continue
            window = self._window(msg.dst)
            if window.reserve(needed):
                scattering.reserved[msg.msg_id] = msg.n_frags
                taken.append((window, needed))
            elif partial:
                # Grab whatever is available to make forward progress.
                available = max(0, window.available())
                if available > 0 and window.reserve(available):
                    scattering.reserved[msg.msg_id] = (
                        scattering.reserved.get(msg.msg_id, 0) + available
                    )
                complete = False
            else:
                complete = False
                break
        if not complete and not partial:
            for window, amount in taken:
                window.reserved -= amount
            for msg in scattering.msgs:
                scattering.reserved.pop(msg.msg_id, None)
        return complete

    def _launch(self, scattering: Scattering) -> None:
        scattering.dispatched = True
        self.scatterings_sent += 1
        if self._metrics.enabled:
            self._m_scatterings.add()
            self._m_messages.add(len(scattering.msgs))
        config = self.config
        for msg in scattering.msgs:
            window = self._window(msg.dst)
            window.launch(msg.n_frags)
            scattering.reserved.pop(msg.msg_id, None)
            self.unacked[msg.msg_id] = msg
            self.messages_sent += 1
            self._transmit(msg)
            timeout = (
                config.rtx_timeout_ns if msg.reliable else config.ack_timeout_ns
            )
            # Loss timers run from when the last fragment actually left
            # the send CPU, not from submission — otherwise large
            # scatterings retransmit while still serializing out.
            egress_done = max(self.sim.now, self._cpu_free_at)
            msg.timer = self.sim.schedule_at(
                egress_done + timeout, self._on_timer, msg
            )
        if not scattering.reliable:
            # Best effort: "completion" means handed to the network.
            scattering.completed.try_resolve(True)

    def _transmit(self, msg: PendingMessage) -> None:
        kind = PacketKind.RDATA if msg.reliable else PacketKind.DATA
        sizes = fragment_sizes(msg.size, self.config.mtu_payload)
        cpu = self.config.cpu_ns_per_msg
        for index, frag_bytes in enumerate(sizes):
            last = index == len(sizes) - 1
            packet = Packet(
                kind,
                src=self.proc_id,
                dst=msg.dst,
                dst_host=msg.dst_host,
                psn=index,
                msg_id=msg.msg_id,
                last_frag=last,
                payload_bytes=frag_bytes,
                payload=msg.payload if last else None,
                meta={"scat": msg.scattering, "n_frags": len(sizes)},
            )
            if last and self._bft_key:
                from repro.byz.keys import mac

                packet.auth = mac(self._bft_key, msg.msg_id, repr(msg.payload))
            if cpu:
                start = max(self.sim.now, self._cpu_free_at)
                self._cpu_free_at = start + cpu
                self._egress_queue.append(
                    (msg.scattering, self.clock.now())
                )
                self.sim.schedule_at(
                    self._cpu_free_at, self._send_queued, packet
                )
            else:
                self.agent.host.send_packet(packet)

    def _send_queued(self, packet: Packet) -> None:
        self._egress_queue.popleft()
        self.agent.host.send_packet(packet)

    def be_barrier_floor(self, now: int) -> int:
        """Lower bound of the timestamps of packets still queued in the
        send CPU (the host's barrier promise must not pass them)."""
        queue = self._egress_queue
        if not queue:
            return now
        scattering, fallback_ts = queue[0]
        return scattering.ts if scattering.ts is not None else fallback_ts

    # ------------------------------------------------------------------
    # Timestamp assignment (called by the host agent at NIC egress)
    # ------------------------------------------------------------------
    def on_ts_assigned(self, scattering: Scattering, ts: int) -> None:
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, self._trace_id, "ts_assign",
                ts=ts, reliable=scattering.reliable,
                msg_ids=tuple(m.msg_id for m in scattering.msgs),
            )
        for msg in scattering.msgs:
            msg.ts = ts
            if msg.reliable:
                heapq.heappush(self._commit_heap, (ts, msg.msg_id))

    # ------------------------------------------------------------------
    # ACK / NAK / timer handling
    # ------------------------------------------------------------------
    def on_ack(self, msg_id: int, ecn_echo: bool) -> None:
        msg = self.unacked.get(msg_id)
        if msg is None or msg.acked:
            return
        msg.acked = True
        if msg.timer is not None:
            msg.timer.cancel()
            msg.timer = None
        window = self._window(msg.dst)
        for _ in range(msg.n_frags):
            window.on_ack(ecn_echo)
        del self.unacked[msg_id]
        scattering = msg.scattering
        if scattering.reliable and scattering.all_acked():
            scattering.completed.try_resolve(True)
        self._try_dispatch()

    def on_nak(self, msg_id: int) -> None:
        """The receiver rejected the message (arrived after its barrier)."""
        msg = self.unacked.get(msg_id)
        if msg is None or msg.acked:
            return
        self._fail_pending(msg)

    def _on_timer(self, msg: PendingMessage) -> None:
        if msg.acked or msg.failed or msg.recalled:
            return
        if not msg.reliable:
            self._fail_pending(msg)
            return
        if msg.dst in self.failed_peers:
            return
        if msg.rtx_count >= self.config.max_retransmissions:
            self._escalate(msg)
            return
        msg.rtx_count += 1
        self.retransmissions += 1
        if self._metrics.enabled:
            self._m_rtx.add()
        self._transmit(msg)
        backoff = self.config.rtx_timeout_ns << min(msg.rtx_count, 4)
        egress_done = max(self.sim.now, self._cpu_free_at)
        msg.timer = self.sim.schedule_at(
            egress_done + backoff, self._on_timer, msg
        )

    def _fail_pending(self, msg: PendingMessage) -> None:
        """Declare a best-effort message lost (callback, free credits)."""
        if msg.acked or msg.failed:
            return
        msg.failed = True
        self.send_failures += 1
        if self._metrics.enabled:
            self._m_failures.add()
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, self._trace_id, "send_fail",
                msg_id=msg.msg_id, dst=msg.dst, reliable=msg.reliable,
                ts=msg.ts,
            )
        if msg.timer is not None:
            msg.timer.cancel()
            msg.timer = None
        window = self._window(msg.dst)
        for _ in range(msg.n_frags):
            window.on_loss_detected()
        self.unacked.pop(msg.msg_id, None)
        if msg.reliable:
            # A reliable message declared undeliverable without the
            # failure procedure (NAK, or no controller to escalate to):
            # the scattering cannot commit.
            msg.scattering.completed.try_resolve(False)
        if self.send_fail_callback is not None:
            self.send_fail_callback(
                msg.ts if msg.ts is not None else -1, msg.dst, msg.payload
            )
        self._try_dispatch()

    def _fail_message_immediately(
        self, scattering: Scattering, dst: int, payload: Any
    ) -> None:
        self.send_failures += 1
        if self._metrics.enabled:
            self._m_failures.add()
        if self.send_fail_callback is not None:
            self.send_fail_callback(-1, dst, payload)

    def _escalate(self, msg: PendingMessage) -> None:
        """Retransmissions exhausted: ask the controller to forward
        (paper §5.2, Controller Forwarding)."""
        controller = self.agent.controller
        if controller is None:
            self._fail_pending(msg)
            return
        controller.forward_message(self, msg)

    # ------------------------------------------------------------------
    # Failure handling (paper §5.2 Recall step, sender side)
    # ------------------------------------------------------------------
    def handle_peer_failure(self, failed_proc: int) -> List[PendingMessage]:
        """Discard unACKed messages to ``failed_proc``.

        Returns the messages of *reliable scatterings* that now need a
        recall at their other receivers; the host agent drives the
        recall exchange.
        """
        self.failed_peers.add(failed_proc)
        to_recall: List[PendingMessage] = []
        for msg in list(self.unacked.values()):
            if msg.dst != failed_proc:
                continue
            msg.failed = True
            if msg.timer is not None:
                msg.timer.cancel()
                msg.timer = None
            window = self._window(msg.dst)
            for _ in range(msg.n_frags):
                window.on_loss_detected()
            del self.unacked[msg.msg_id]
            scattering = msg.scattering
            if scattering.reliable:
                for sibling in scattering.msgs:
                    if sibling.dst != failed_proc and not sibling.recalled:
                        sibling.recalled = True
                        to_recall.append(sibling)
                scattering.completed.try_resolve(False)
            if self.send_fail_callback is not None:
                self.send_fail_callback(
                    msg.ts if msg.ts is not None else -1, msg.dst, msg.payload
                )
        return to_recall

    def finish_recall(self, msg: PendingMessage) -> None:
        """A recalled sibling is confirmed discarded at its receiver:
        release it so the commit barrier can advance past it."""
        if msg.timer is not None:
            msg.timer.cancel()
            msg.timer = None
        pending = self.unacked.pop(msg.msg_id, None)
        if pending is not None:
            window = self._window(msg.dst)
            for _ in range(msg.n_frags):
                window.on_loss_detected()
        self._try_dispatch()
