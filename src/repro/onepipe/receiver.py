"""lib1pipe receiver: reorder buffer and barrier-gated delivery.

Receive path (paper §4.1, §5.1):

1. Arriving fragments are assembled into messages keyed by
   ``(src, msg_id)``.
2. Assembled messages enter a priority queue ordered by the total-order
   key ``(timestamp, sender, msg_id)``, and an end-to-end ACK is
   returned (both services ACK: best effort uses it for loss
   *detection*, reliable for loss *recovery*).
3. Delivery is gated by barriers: a best-effort message is delivered
   when the best-effort barrier passes its timestamp; a reliable message
   when the commit barrier does.  Both services share one queue, and a
   best-effort message also waits for the commit barrier, so it never
   overtakes an uncommitted reliable message with a smaller timestamp —
   giving one consistent total order across services (what the paper's
   KVS relies on when mixing read-only/best-effort with write/reliable
   traffic).
4. A message whose timestamp is below the barrier already used for
   delivery arrived too late: it is dropped and a NAK returned (§4.1).
   Duplicates of already-delivered messages are re-ACKed silently
   (retransmissions whose ACK was lost).

The receiver also implements the Discard step of failure handling
(§5.2): dropping buffered messages from a failed sender beyond its
failure timestamp, and discarding recalled scattering messages.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.net.packet import Packet, PacketKind
from repro.obs.registry import GLOBAL_METRICS
from repro.onepipe.config import MODE_BFT, OnePipeConfig
from repro.sim.trace import GLOBAL_TRACER

# Delivered-message callback: fn(ts, src, payload, reliable) -> None.
DeliverCallback = Callable[[int, int, Any, bool], None]


class _Assembling:
    """Fragments of a not-yet-complete message."""

    __slots__ = ("ts", "n_frags", "frags", "payload", "bytes", "ecn")

    def __init__(self, ts: int, n_frags: int) -> None:
        self.ts = ts
        self.n_frags = n_frags
        self.frags: Set[int] = set()
        self.payload: Any = None
        self.bytes = 0
        self.ecn = False


class ProcessReceiver:
    """Receiver half of a 1Pipe process endpoint."""

    def __init__(self, agent, proc_id: int, config: OnePipeConfig) -> None:
        self.agent = agent
        self.sim = agent.sim
        self.proc_id = proc_id
        self.config = config
        self._tracer = getattr(self.sim, "tracer", None) or GLOBAL_TRACER
        self._trace_id = f"recv.{proc_id}"
        metrics = getattr(self.sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_delivered = metrics.counter("receiver.delivered")
        self._m_late_naks = metrics.counter("receiver.late_naks")
        self._m_duplicates = metrics.counter("receiver.duplicates")
        self._m_discarded = metrics.counter("receiver.discarded_on_failure")
        # How far past a message's timestamp the releasing barrier had
        # advanced at delivery (floor - ts, both in the sender-clock
        # timestamp domain) — the reorder-wait half of eq. 4.1.
        self._m_delivery_lag = metrics.histogram("receiver.delivery_lag_ns")
        self.deliver_callback: Optional[DeliverCallback] = None
        # Reorder buffer: (ts, src, msg_id, reliable, payload, size, key)
        # where key is the (src, msg_id) tuple — carried along so flush can
        # probe/discard the bookkeeping sets without re-allocating a tuple
        # per message.  (ts, src, msg_id) is unique, so heap comparisons
        # never reach the payload.
        self._heap: List[Tuple] = []
        self._tombstones: Set[Tuple[int, int]] = set()
        # Messages currently buffered (heap), for retransmission dedup.
        self._buffered: Set[Tuple[int, int]] = set()
        self._assembling: Dict[Tuple[int, int], _Assembling] = {}
        self._delivered_ids: Dict[int, Dict[int, int]] = {}
        # Failure cutoffs: src proc -> failure timestamp (discard >= ts).
        self._fail_cutoff: Dict[int, int] = {}
        # Barrier floors used for late detection (values at last flush).
        self._be_floor = 0
        self._commit_floor = 0
        self._cpu_free_at = 0
        # Statistics.
        self.delivered_count = 0
        self.late_naks = 0
        self.duplicates = 0
        self.out_of_order_arrivals = 0
        self._max_arrival_ts = 0
        self.arrivals = 0
        self.buffer_bytes = 0
        self.max_buffer_bytes = 0
        self.discarded_on_failure = 0
        self.last_delivered_ts = -1
        # --- BFT hardening (MODE_BFT only; docs/BYZANTINE.md) ----------
        self._bft = config.mode == MODE_BFT
        # Per-sender high-water mark (max_ts, msg_id_at_max): a newer
        # msg_id carrying a *smaller* timestamp proves the sender
        # stamped below a barrier it already promised (§2.1 timestamps
        # are non-decreasing in send order on FIFO paths).
        self._ts_high: Dict[int, Tuple[int, int]] = {}
        self.byz_rejected = 0
        self._m_byz_ts_reject = None      # registered on first rejection
        self._m_byz_auth_reject = None

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def on_data_packet(self, packet: Packet) -> None:
        """Handle a DATA/RDATA fragment addressed to this process."""
        key = (packet.src, packet.msg_id)
        if key in self._tombstones:
            return  # recalled or discarded; ignore stragglers
        cutoff = self._fail_cutoff.get(packet.src)
        if cutoff is not None and packet.msg_ts >= cutoff:
            return  # sender failed before committing this timestamp
        if self._bft and not self._bft_admit(packet):
            return
        delivered = self._delivered_ids.get(packet.src)
        if (delivered is not None and packet.msg_id in delivered) or (
            key in self._buffered
        ):
            # Retransmission of something already buffered or delivered:
            # the original ACK was lost; re-ACK, do not re-buffer.
            self.duplicates += 1
            if self._metrics.enabled:
                self._m_duplicates.add()
            self._send_ack(packet)
            return

        entry = self._assembling.get(key)
        if entry is None:
            n_frags = packet.meta.get("n_frags", 1) if packet.meta else 1
            entry = _Assembling(packet.msg_ts, n_frags)
            self._assembling[key] = entry
        if packet.psn in entry.frags:
            return  # duplicate fragment from a retransmission
        entry.frags.add(packet.psn)
        entry.bytes += packet.payload_bytes
        entry.ecn = entry.ecn or packet.ecn
        if packet.last_frag:
            entry.payload = packet.payload
        if len(entry.frags) < entry.n_frags:
            return
        del self._assembling[key]
        self._on_message(packet, entry, key)

    def _bft_admit(self, packet: Packet) -> bool:
        """MODE_BFT ingress checks: timestamp regression and payload MAC.

        Rejections NAK the packet (so a correct-but-confused sender
        fails fast instead of retransmitting forever) and accuse the
        sender through the host agent; the controller evicts it via the
        standard Discard/Recall flow (docs/BYZANTINE.md).
        """
        src = packet.src
        high = self._ts_high.get(src)
        if (
            high is not None
            and packet.msg_id > high[1]
            and packet.msg_ts < high[0]
        ):
            self._bft_reject(
                packet, "ts_regression",
                f"msg_id={packet.msg_id} ts={packet.msg_ts} below "
                f"high-water ts={high[0]} (msg_id={high[1]})",
            )
            if self._metrics.enabled:
                if self._m_byz_ts_reject is None:
                    self._m_byz_ts_reject = self._metrics.counter(
                        "byz.ts_regressions_rejected"
                    )
                self._m_byz_ts_reject.add()
            return False
        if packet.last_frag:
            from repro.byz.keys import get_key_registry, mac, proc_key_id

            key = get_key_registry(self.sim).key_of(proc_key_id(src))
            if packet.auth != mac(key, packet.msg_id, repr(packet.payload)):
                self._bft_reject(
                    packet, "payload_auth",
                    f"msg_id={packet.msg_id} payload MAC invalid",
                )
                if self._metrics.enabled:
                    if self._m_byz_auth_reject is None:
                        self._m_byz_auth_reject = self._metrics.counter(
                            "byz.payload_auth_failures"
                        )
                    self._m_byz_auth_reject.add()
                return False
        if high is None or packet.msg_ts > high[0]:
            self._ts_high[src] = (packet.msg_ts, packet.msg_id)
        return True

    def _bft_reject(self, packet: Packet, reason: str, detail: str) -> None:
        self.byz_rejected += 1
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, self._trace_id, "byz_reject",
                reason=reason, src=packet.src, msg_id=packet.msg_id,
                ts=packet.msg_ts,
            )
        self._send_nak(packet)
        self.agent.accuse_sender(
            self.proc_id, packet.src, f"{reason}: {detail}"
        )

    def _on_message(
        self, packet: Packet, entry: _Assembling, key: Tuple[int, int]
    ) -> None:
        ts = entry.ts
        reliable = packet.kind == PacketKind.RDATA
        self.arrivals += 1
        if ts < self._max_arrival_ts:
            self.out_of_order_arrivals += 1
        else:
            self._max_arrival_ts = ts
        floor = self._commit_floor if reliable else self._be_floor
        if ts < floor:
            # Arrived after its barrier already passed: too late (§4.1).
            self.late_naks += 1
            if self._metrics.enabled:
                self._m_late_naks.add()
            if self._tracer.enabled:
                self._tracer.trace(
                    self.sim.now, self._trace_id, "late_nak",
                    ts=ts, src=packet.src, msg_id=packet.msg_id,
                    reliable=reliable, floor=floor,
                )
            self._send_nak(packet)
            return
        self._send_ack(packet, ecn=entry.ecn)
        heapq.heappush(
            self._heap,
            (
                ts,
                packet.src,
                packet.msg_id,
                reliable,
                entry.payload,
                entry.bytes,
                key,
            ),
        )
        self._buffered.add(key)
        self.buffer_bytes += entry.bytes
        if self.buffer_bytes > self.max_buffer_bytes:
            self.max_buffer_bytes = self.buffer_bytes

    # ------------------------------------------------------------------
    # Barrier-gated delivery
    # ------------------------------------------------------------------
    def flush(self, be_barrier: int, commit_barrier: int) -> int:
        """Deliver everything the barriers allow; returns count delivered."""
        if be_barrier > self._be_floor:
            self._be_floor = be_barrier
        if commit_barrier > self._commit_floor:
            self._commit_floor = commit_barrier
        delivered = 0
        heap = self._heap
        heappop = heapq.heappop
        tombstones = self._tombstones
        buffered = self._buffered
        be_floor = self._be_floor
        commit_floor = self._commit_floor
        while heap:
            entry = heap[0]
            key = entry[6]
            if tombstones and key in tombstones:
                heappop(heap)
                tombstones.discard(key)
                buffered.discard(key)
                self.buffer_bytes -= entry[5]
                continue
            ts = entry[0]
            if entry[3]:  # reliable
                if ts >= commit_floor:
                    break
            else:
                if ts >= be_floor:
                    break
                # Merged total order: the heap alone only gates
                # best-effort behind *buffered* reliable messages.  A
                # reliable message still being retransmitted (lost on a
                # gray link) is invisible here, and only the commit
                # barrier proves nothing reliable below ``ts`` can still
                # arrive.  Without this gate, chaos campaigns deliver a
                # retransmitted reliable message below an already-
                # delivered best-effort timestamp.
                if ts >= commit_floor:
                    break
            heappop(heap)
            buffered.discard(key)
            self.buffer_bytes -= entry[5]
            self._deliver(ts, entry[1], entry[2], entry[4], entry[3])
            delivered += 1
        return delivered

    def _deliver(
        self, ts: int, src: int, msg_id: int, payload: Any, reliable: bool
    ) -> None:
        self.delivered_count += 1
        self.last_delivered_ts = ts
        if self._metrics.enabled:
            self._m_delivered.add()
            floor = self._commit_floor if reliable else self._be_floor
            self._m_delivery_lag.observe(floor - ts)
        if self._tracer.enabled:
            # The delivery trace the conformance checker (repro.verify)
            # diffs against the reference oracle: unlike the public
            # Message callback it carries the wire-level msg_id.
            self._tracer.trace(
                self.sim.now, self._trace_id, "deliver",
                ts=ts, src=src, msg_id=msg_id, reliable=reliable,
                payload=payload,
            )
        delivered = self._delivered_ids.setdefault(src, {})
        delivered[msg_id] = ts
        if len(delivered) > 4096:
            self._prune_delivered(src)
        if self.deliver_callback is None:
            return
        cpu = self.config.cpu_ns_per_msg
        if cpu:
            start = max(self.sim.now, self._cpu_free_at)
            self._cpu_free_at = start + cpu
            self.sim.schedule_at(
                self._cpu_free_at, self.deliver_callback, ts, src, payload, reliable
            )
        else:
            self.deliver_callback(ts, src, payload, reliable)

    def _prune_delivered(self, src: int) -> None:
        """Forget ancient delivered ids (duplicates can no longer arrive:
        their timestamps are far below the barrier and would be NAKed).

        The horizon must trail the *slower* of the two barriers: a reliable
        message is delivered (and retransmitted) against the commit barrier,
        so when the commit barrier lags the best-effort one, a horizon from
        ``_be_floor`` alone would forget ids whose retransmissions are still
        in flight — those would then be NAKed as "late" instead of re-ACKed
        as duplicates, making the sender believe a delivered message failed.
        """
        floor = min(self._be_floor, self._commit_floor)
        horizon = floor - 10 * self.config.ack_timeout_ns
        delivered = self._delivered_ids[src]
        self._delivered_ids[src] = {
            msg_id: ts for msg_id, ts in delivered.items() if ts >= horizon
        }

    # ------------------------------------------------------------------
    # Failure handling (paper §5.2 Discard + Recall, receiver side)
    # ------------------------------------------------------------------
    def discard_from(self, failed_proc: int, failure_ts: int) -> int:
        """Discard buffered messages from ``failed_proc`` at or beyond its
        failure timestamp; earlier ones stay deliverable (restricted
        atomicity).  Returns the number discarded."""
        self._fail_cutoff[failed_proc] = failure_ts
        discarded = 0
        for ts, src, msg_id, _rel, _payload, _size, key in self._heap:
            if src == failed_proc and ts >= failure_ts:
                if key not in self._tombstones:
                    self._tombstones.add(key)
                    discarded += 1
        # In-flight partial messages past the cutoff are dropped too; they
        # count as discarded just like fully buffered ones.
        for key in list(self._assembling):
            src, _msg_id = key
            if src == failed_proc and self._assembling[key].ts >= failure_ts:
                del self._assembling[key]
                discarded += 1
        self.discarded_on_failure += discarded
        if discarded and self._metrics.enabled:
            self._m_discarded.add(discarded)
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, self._trace_id, "discard_from",
                failed_proc=failed_proc, failure_ts=failure_ts,
                discarded=discarded,
            )
        return discarded

    def discard_message(self, src: int, msg_id: int) -> bool:
        """Discard one (recalled) message; True if it was present/known."""
        delivered = self._delivered_ids.get(src)
        if delivered is not None and msg_id in delivered:
            return False  # already delivered: recall arrived too late
        self._tombstones.add((src, msg_id))
        self._assembling.pop((src, msg_id), None)
        return True

    # ------------------------------------------------------------------
    # Control packets back to senders
    # ------------------------------------------------------------------
    def _send_ack(self, packet: Packet, ecn: bool = False) -> None:
        self._send_control(packet, PacketKind.ACK, ("ack", packet.msg_id, ecn))

    def _send_nak(self, packet: Packet) -> None:
        self._send_control(packet, PacketKind.NAK, ("nak", packet.msg_id))

    def _send_control(self, packet: Packet, kind: PacketKind, payload) -> None:
        reply = Packet(
            kind,
            src=self.proc_id,
            dst=packet.src,
            dst_host=packet.src_host,
            msg_id=packet.msg_id,
            payload_bytes=self.config.ack_bytes,
            payload=payload,
        )
        self.agent.host.send_packet(reply)
