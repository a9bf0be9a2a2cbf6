"""Unidirectional FIFO links.

A link models the output queue of the upstream node plus the wire:

- **Serialization**: packets occupy the wire for ``wire_bytes * 8 /
  bandwidth`` — back-to-back packets queue behind each other (FIFO), which
  is the property barrier aggregation relies on (paper §4.1).
- **Propagation**: fixed one-way delay.
- **Tail drop**: if the queue backlog (bytes waiting to start
  serialization) would exceed capacity, the packet is dropped — data
  center switches are shallow-buffered (paper §3.2).
- **ECN**: packets are marked when the backlog at enqueue exceeds the ECN
  threshold, feeding the DCTCP-style congestion control in
  :mod:`repro.net.transport`.
- **Corruption loss**: each packet is independently dropped with
  ``loss_rate`` probability (models the 1e-8…1e-1 sweeps of Fig. 9b and
  Fig. 15b).
- **Burst loss**: a Gilbert–Elliott two-state process (good/bad) layered
  on top of the i.i.d. corruption loss, for gray-failure experiments
  where losses cluster (flapping optics, incast drops) instead of being
  independent.
- **Degradation**: a runtime-settable bandwidth multiplier and extra
  propagation delay model a degraded-but-alive link (autoneg fallback to
  a lower rate, a rerouted optical path) — the other gray-failure staple.

Links can be taken down (``fail()``) for failure experiments: a failed
link silently discards traffic, which is exactly what crash-stop looks
like to the other end.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.obs.registry import GLOBAL_METRICS
from repro.sim import Simulator
from repro.net.packet import (
    BEACON_BYTES,
    HEADER_OVERHEAD_BYTES,
    Packet,
    PacketKind,
)

_BEACON_KIND = PacketKind.BEACON

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.switch import Node


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """100 Gbps == 12.5 bytes/ns."""
    return gbps / 8.0


class Link:
    """One direction of a cable between two nodes.

    Parameters
    ----------
    sim, name:
        Simulator and a unique, human-readable link name
        (``"h0->tor0.up"``).
    src, dst:
        The endpoint nodes; ``dst.receive(packet, self)`` is invoked on
        delivery.
    bandwidth_gbps, prop_delay_ns:
        Wire characteristics.
    queue_capacity_bytes:
        Tail-drop threshold; ``None`` disables drops (infinite buffer).
    ecn_threshold_bytes:
        Backlog above which packets are ECN-marked; ``None`` disables.
    loss_rate:
        Independent per-packet corruption probability.
    """

    # Links are the hottest objects of a fat-tree run (every beacon and
    # data packet does a dozen attribute operations per hop); __slots__
    # turns those into fixed-offset loads.  ``_ingress`` and
    # ``_cpu_buf`` belong to the ordering engines (bound ingress record,
    # switch-CPU coalescing buffer) but must be declared here.
    __slots__ = (
        "sim", "name", "src", "dst", "bytes_per_ns", "bandwidth_gbps",
        "prop_delay_ns", "queue_capacity_bytes", "ecn_threshold_bytes",
        "loss_rate", "_rng", "_burst", "_burst_bad", "_burst_rng",
        "degraded_bandwidth_factor", "degraded_extra_delay_ns", "up",
        "_drop_filter", "_busy_until", "_backlog_bytes", "_backlog_fifo",
        "_deliver_cb", "_beacon_ser_ns", "_last_tx_time", "last_data_tx",
        "_tx_packets", "_tx_bytes", "dropped_overflow", "dropped_corruption",
        "dropped_burst", "dropped_down", "ecn_marked", "_metrics",
        "_m_tx_packets", "_m_tx_bytes", "_m_drop_overflow",
        "_m_drop_corruption", "_m_drop_burst", "_m_drop_down", "_m_ecn",
        "_ingress", "_cpu_buf", "internal", "_beacon_fast", "_clean",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        src: "Node",
        dst: "Node",
        bandwidth_gbps: float = 100.0,
        prop_delay_ns: int = 100,
        queue_capacity_bytes: Optional[int] = 200_000,
        ecn_threshold_bytes: Optional[int] = 80_000,
        loss_rate: float = 0.0,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_gbps}")
        if prop_delay_ns < 0:
            raise ValueError(f"negative propagation delay: {prop_delay_ns}")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        self.sim = sim
        self.name = name
        self.src = src
        self.dst = dst
        self.bytes_per_ns = gbps_to_bytes_per_ns(bandwidth_gbps)
        self.bandwidth_gbps = bandwidth_gbps
        self.prop_delay_ns = int(prop_delay_ns)
        self.queue_capacity_bytes = queue_capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.loss_rate = loss_rate
        self._rng = sim.rng(f"link.loss.{name}") if loss_rate > 0 else None
        # Gilbert–Elliott burst loss: (p_good_to_bad, p_bad_to_good,
        # loss_good, loss_bad); None means disabled.
        self._burst = None
        self._burst_bad = False
        self._burst_rng = None
        # Degraded mode: <1.0 slows serialization; extra delay adds to
        # propagation.  Both default to the healthy values.
        self.degraded_bandwidth_factor = 1.0
        self.degraded_extra_delay_ns = 0
        self.up = True
        # Optional selective drop predicate (failure injection in tests:
        # e.g. drop only data packets while letting beacons through);
        # assigned through the ``drop_filter`` property.
        self._drop_filter = None
        # Maintained conjunction "delivery cannot drop here": up, no
        # burst chain, no loss stream, no filter.  The analytic fabric's
        # ingress reads this one flag instead of the four conditions.
        self._clean = self._rng is None

        self._busy_until = 0  # when the last queued packet finishes serializing
        self._backlog_bytes = 0  # bytes queued but not yet fully serialized
        # FIFO of (finish_serializing_time, size) for packets still counted
        # in the backlog.  Drained lazily at the next send/inspection instead
        # of via a scheduled dequeue event per packet, which halves the
        # simulator events a busy link generates.
        self._backlog_fifo: deque = deque()
        # Pre-bound delivery callback: avoids allocating a fresh bound-method
        # object for every packet scheduled.
        self._deliver_cb = self._deliver
        # Beacons are the dominant packet population at scale and all have
        # the same wire size, so their serialization time is precomputed
        # (recomputed when degradation changes the rate).
        self._beacon_ser_ns = int(BEACON_BYTES / self.bytes_per_ns)
        # Last time a packet was enqueued (beacon logic).  Read through
        # the ``last_tx_time`` view, like the two tx counters below: a
        # lockstep source node (Node._lockstep) may owe this link waves.
        self._last_tx_time = 0
        # Last non-beacon enqueue: data packets carry fresh barriers in
        # the programmable-chip incarnation, so links busy with data do
        # not need beacons even if a beacon was just relayed on them.
        self.last_data_tx = 0
        # Config-constant precondition for the analytic fabric's idle
        # beacon cycle: with the queue fully drained a beacon can never
        # tail-drop or ECN-mark on this link.  Capacity and ECN are set
        # only at construction, so this never needs recomputing.
        self._beacon_fast = (
            queue_capacity_bytes is None or queue_capacity_bytes >= BEACON_BYTES
        ) and (ecn_threshold_bytes is None or ecn_threshold_bytes >= 0)

        # Statistics.
        self._tx_packets = 0
        self._tx_bytes = 0
        self.dropped_overflow = 0
        self.dropped_corruption = 0
        self.dropped_burst = 0
        self.dropped_down = 0
        self.ecn_marked = 0
        # Cluster-wide aggregate metrics (shared across all links).
        metrics = getattr(sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_tx_packets = metrics.counter("link.tx_packets")
        self._m_tx_bytes = metrics.counter("link.tx_bytes")
        self._m_drop_overflow = metrics.counter("link.dropped_overflow")
        self._m_drop_corruption = metrics.counter("link.dropped_corruption")
        self._m_drop_burst = metrics.counter("link.dropped_burst")
        self._m_drop_down = metrics.counter("link.dropped_down")
        self._m_ecn = metrics.counter("link.ecn_marked")
        # Engine-owned state (see __slots__): None until an ordering
        # engine attaches this link.
        self._ingress = None
        self._cpu_buf = None
        # Set by Topology.add_link: an internal up<->down pairing link
        # inside one physical switch (zero forwarding delay).
        self.internal = False

    # ------------------------------------------------------------------
    def set_loss_rate(self, loss_rate: float) -> None:
        """Change the corruption probability (used by loss-sweep benches)."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        self.loss_rate = loss_rate
        if loss_rate > 0 and self._rng is None:
            self._rng = self.sim.rng(f"link.loss.{self.name}")
            self._clean = False

    def set_burst_loss(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        """Enable Gilbert–Elliott two-state burst loss.

        Per delivered packet the chain first transitions (good→bad with
        ``p_good_to_bad``, bad→good with ``p_bad_to_good``), then drops
        the packet with the loss probability of the current state.  Mean
        burst length is ``1 / p_bad_to_good`` packets.  Independent of —
        and applied before — the i.i.d. ``loss_rate``.
        """
        for label, p in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} out of range: {p}")
        self._burst = (p_good_to_bad, p_bad_to_good, loss_good, loss_bad)
        self._clean = False
        if self._burst_rng is None:
            self._burst_rng = self.sim.rng(f"link.burst.{self.name}")

    def clear_burst_loss(self) -> None:
        """Disable burst loss and reset the chain to the good state."""
        self._burst = None
        self._burst_bad = False
        self._refresh_clean()

    @property
    def burst_state_bad(self) -> bool:
        """Whether the Gilbert–Elliott chain is in the bad state."""
        return self._burst_bad

    def set_degradation(
        self, bandwidth_factor: float = 1.0, extra_delay_ns: int = 0
    ) -> None:
        """Degrade the link: multiply bandwidth, add propagation delay.

        ``bandwidth_factor`` scales the serialization rate (0.1 turns a
        100 Gbps link into a 10 Gbps one); ``extra_delay_ns`` is added to
        the one-way propagation delay.  Validated like the constructor
        arguments: the multiplier must be positive and the added delay
        non-negative.
        """
        if bandwidth_factor <= 0:
            raise ValueError(
                f"bandwidth factor must be positive: {bandwidth_factor}"
            )
        if extra_delay_ns < 0:
            raise ValueError(f"negative extra delay: {extra_delay_ns}")
        self._unlock_src()  # owed waves settle at the old beacon rate
        self.degraded_bandwidth_factor = float(bandwidth_factor)
        self.degraded_extra_delay_ns = int(extra_delay_ns)
        self._beacon_ser_ns = int(
            BEACON_BYTES / (self.bytes_per_ns * self.degraded_bandwidth_factor)
        )

    def clear_degradation(self) -> None:
        self._unlock_src()
        self.degraded_bandwidth_factor = 1.0
        self.degraded_extra_delay_ns = 0
        self._beacon_ser_ns = int(BEACON_BYTES / self.bytes_per_ns)

    @property
    def degraded(self) -> bool:
        return (
            self.degraded_bandwidth_factor != 1.0
            or self.degraded_extra_delay_ns != 0
        )

    def fail(self) -> None:
        """Take the link down: subsequent sends are silently discarded."""
        self._unlock_src()  # a down link drops at enqueue: not lockstep
        self.up = False
        self._clean = False

    def recover(self) -> None:
        self.up = True
        self._refresh_clean()

    @property
    def drop_filter(self):
        return self._drop_filter

    @drop_filter.setter
    def drop_filter(self, predicate) -> None:
        # Consulted at delivery only, so send accounting — owed by a
        # lockstep source or not — is unaffected.
        self._drop_filter = predicate
        self._refresh_clean()

    def _refresh_clean(self) -> None:
        self._clean = (
            self.up
            and self._burst is None
            and self._rng is None
            and self._drop_filter is None
        )

    # ------------------------------------------------------------------
    # Lockstep egress (repro.onepipe.analytic): while the source node is
    # locked, this link's send accounting is owed, not written.  Every
    # reader or writer of that state below first settles or unlocks.
    # ------------------------------------------------------------------
    def _unlock_src(self) -> None:
        lock = self.src._lockstep
        if lock is not None:
            lock.unlock()

    def _settle_src(self) -> None:
        lock = self.src._lockstep
        if lock is not None:
            lock.settle()

    @property
    def last_tx_time(self) -> int:
        self._settle_src()
        return self._last_tx_time

    @property
    def tx_packets(self) -> int:
        self._settle_src()
        return self._tx_packets

    @property
    def tx_bytes(self) -> int:
        self._settle_src()
        return self._tx_bytes

    def _drain_backlog(self, now: int) -> None:
        """Retire backlog entries whose serialization has finished."""
        fifo = self._backlog_fifo
        backlog = self._backlog_bytes
        while fifo and fifo[0][0] <= now:
            backlog -= fifo.popleft()[1]
        self._backlog_bytes = backlog

    @property
    def queue_bytes(self) -> int:
        """Current backlog (for tests and ECN diagnostics)."""
        # Draining can retire the one serialized beacon the lockstep
        # shape stands on, so settling is not enough: unlock.
        self._unlock_src()
        if self._backlog_fifo:
            self._drain_backlog(self.sim.now)
        return self._backlog_bytes

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet``; returns False if it was dropped.

        The caller (a node) has already made its forwarding decision; the
        link applies queueing, marking, loss, and schedules delivery.
        """
        sim = self.sim
        now = sim.now
        src = self.src
        if src._lockstep is not None:
            src._lockstep.unlock()  # a real packet joins the queue
        self._last_tx_time = now
        if packet.kind == _BEACON_KIND:
            # Fast path: beacons all share one wire size, so the
            # serialization time is the precomputed per-link constant.
            size = BEACON_BYTES
            serialization = self._beacon_ser_ns
        else:
            self.last_data_tx = now
            # Per-node ceiling over last_data_tx of its outgoing links;
            # lets ordering engines skip the idle-link scan entirely
            # when the whole switch has been data-silent long enough.
            src._data_ceiling = now
            size = packet.payload_bytes + HEADER_OVERHEAD_BYTES
            serialization = int(
                size / (self.bytes_per_ns * self.degraded_bandwidth_factor)
            )
        if not self.up:
            self.dropped_down += 1
            if self._metrics.enabled:
                self._m_drop_down.add()
            return False
        fifo = self._backlog_fifo
        backlog = self._backlog_bytes
        if fifo:
            # _drain_backlog, inlined: this runs once per packet sent.
            while fifo and fifo[0][0] <= now:
                backlog -= fifo.popleft()[1]
            self._backlog_bytes = backlog
        if (
            self.queue_capacity_bytes is not None
            and backlog + size > self.queue_capacity_bytes
        ):
            self.dropped_overflow += 1
            if self._metrics.enabled:
                self._m_drop_overflow.add()
            return False
        if (
            self.ecn_threshold_bytes is not None
            and backlog > self.ecn_threshold_bytes
        ):
            packet.ecn = True
            self.ecn_marked += 1
            if self._metrics.enabled:
                self._m_ecn.add()

        busy_until = self._busy_until
        done_serializing = (busy_until if busy_until > now else now) + serialization
        self._busy_until = done_serializing
        self._backlog_bytes = backlog + size
        fifo.append((done_serializing, size))
        self._tx_packets += 1
        self._tx_bytes += size
        if self._metrics.enabled:
            self._m_tx_packets.add()
            self._m_tx_bytes.add(size)

        sim.post_at(
            done_serializing + self.prop_delay_ns + self.degraded_extra_delay_ns,
            self._deliver_cb,
            packet,
        )
        return True

    def _burst_drops(self) -> bool:
        """Advance the Gilbert–Elliott chain one packet; True to drop."""
        p_good_to_bad, p_bad_to_good, loss_good, loss_bad = self._burst
        rng = self._burst_rng
        if self._burst_bad:
            if rng.random() < p_bad_to_good:
                self._burst_bad = False
        elif rng.random() < p_good_to_bad:
            self._burst_bad = True
        loss = loss_bad if self._burst_bad else loss_good
        return loss > 0 and rng.random() < loss

    def _deliver(self, packet: Packet) -> None:
        if not self.up:
            # The link went down while the packet was in flight.
            self.dropped_down += 1
            if self._metrics.enabled:
                self._m_drop_down.add()
            return
        if self._burst is not None and self._burst_drops():
            self.dropped_burst += 1
            if self._metrics.enabled:
                self._m_drop_burst.add()
            return
        if self._rng is not None and self._rng.random() < self.loss_rate:
            self.dropped_corruption += 1
            if self._metrics.enabled:
                self._m_drop_corruption.add()
            return
        if self._drop_filter is not None and self._drop_filter(packet):
            self.dropped_corruption += 1
            if self._metrics.enabled:
                self._m_drop_corruption.add()
            return
        self.dst.receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {state} backlog={self._backlog_bytes}B>"
