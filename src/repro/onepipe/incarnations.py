"""The three in-network incarnations of 1Pipe (paper §6.2).

All three maintain two barrier register files per logical switch — one
for the best-effort barrier, one for the commit barrier — and differ in
*where* aggregation happens:

- :class:`ProgrammableChipEngine` (§6.2.1, Tofino/P4): every packet
  updates its input link's registers and is re-stamped with the minimum
  before forwarding; beacons are generated only on idle output links.
- :class:`SwitchCpuEngine` (§6.2.2): the switching chip forwards data
  packets untouched; only beacons carry barriers, processed by the
  switch CPU with a per-beacon delay, and new beacons are broadcast on
  every output link each interval (busy or not).
- :class:`HostDelegationEngine` (§6.2.3): identical control flow to the
  switch CPU, with the per-hop delay enlarged by the switch↔representative
  RTT (this is the configuration the paper's testbed evaluation uses).

Engines also own link liveness (§4.2): an input link with no traffic for
``beacon_timeout_multiplier`` intervals is declared dead — removed from
the best-effort plane immediately (decentralized) and reported to the
controller for the commit plane, which removes it at the Resume step of
failure handling (§5.2).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.switch import Switch
from repro.onepipe.analytic import BeaconFabric
from repro.obs.registry import GLOBAL_METRICS
from repro.onepipe.barrier import BarrierRegisterFile
from repro.onepipe.config import (
    MODE_BFT,
    MODE_CHIP,
    MODE_HOST_DELEGATE,
    MODE_SWITCH_CPU,
    OnePipeConfig,
)
from repro.sim import Simulator

# failure_listener(switch_id, dead_link, last_commit_barrier)
FailureListener = Callable[[str, Link, int], None]


class _OrderingEngineBase:
    """Register files, beacons, and liveness shared by all incarnations."""

    def __init__(
        self,
        sim: Simulator,
        config: OnePipeConfig,
        fabric: BeaconFabric,
        failure_listener: Optional[FailureListener] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.failure_listener = failure_listener
        self.switch: Optional[Switch] = None
        self.be = BarrierRegisterFile()
        self.commit = BarrierRegisterFile()
        # The beacon transport (repro.onepipe.analytic): emissions,
        # cascade relays and their settle windows all go through it.
        self._fabric = fabric
        self._last_rx: Dict[Link, int] = {}
        self._dead: set = set()
        # Conservative lower bounds for the periodic scans: ``_rx_floor``
        # under-estimates min(_last_rx) over live links, ``_tx_floor``
        # under-estimates min(last_tx_time) over output links.  Both
        # tracked quantities only ever increase, so a stale floor stays
        # a valid lower bound — the scans skip entirely while the bound
        # proves nothing can have timed out, and recompute the floor on
        # each full pass.  Start pessimistic: scan until proven idle.
        self._rx_floor = -1
        self._tx_floor = -1
        # Config reads hot enough to cache (the config is frozen).
        self._settle_ns = config.cascade_settle_ns
        self._dead_timeout = config.link_dead_timeout_ns
        self._task = None
        self.beacons_sent = 0
        self.links_declared_dead = 0
        metrics = getattr(sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_beacons = metrics.counter("engine.beacons_sent")
        self._m_dead_links = metrics.counter("engine.links_declared_dead")
        # One-hop beacon latency as seen at this engine's ingress
        # (every beacon record carries its emission instant).
        self._m_beacon_hop = metrics.histogram("engine.beacon_hop_ns")
        # Cascade state: barrier waves propagate with a short settle
        # window per hop instead of waiting a full beacon tick — with
        # synchronized host beacons this is what makes delivery latency
        # ~interval/2 + skew (nearly) independent of hop count (§4.2,
        # §7.2).  The settle window coalesces the almost-simultaneous
        # beacons of one wave so the relayed beacon carries the wave's
        # full aggregated minimum.
        self._emitted_be = 0
        self._emitted_commit = 0
        self._cascade_pending = False
        # Analytic-fabric fast-path flag: True only while this is a
        # plain chip engine with no dead links and no pending registers
        # (the steady state), where "no relay pending" implies "minima
        # ≤ emitted pair".  Cleared — conservatively, and never re-set
        # — by every path that can create dead/pending state or break
        # that implication (_scan_liveness, rejoin_link, controller
        # demotions, a relay swallowed by a crashed switch); False just
        # routes the fabric through the exact slow path.
        self._fp = type(self) is ProgrammableChipEngine
        # Gray-failure straggler knob: >1.0 slows this switch's beacon
        # processing (CPU incarnations) or forwarding pipeline (chip).
        self.straggle_factor = 1.0
        # Byzantine knob (repro.chaos byz_corrupt_beacon): a non-zero
        # offset is added to the barrier minima of every *emitted*
        # beacon — the switch-resident state lies to its neighbors.
        # The register files themselves stay honest, so the corruption
        # is exactly a wire-level lie, not a local state corruption.
        self.beacon_corruption_ns = 0

    # ------------------------------------------------------------------
    def attach(self, switch: Switch) -> None:
        self.switch = switch
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            self.be.attach_tracer(tracer, f"{switch.node_id}.be", self.sim)
            self.commit.attach_tracer(
                tracer, f"{switch.node_id}.commit", self.sim
            )
        metrics = getattr(self.sim, "metrics", None)
        if metrics is not None:
            self.be.attach_metrics(metrics)
            self.commit.attach_metrics(metrics)
        for link in switch.in_links:
            self.be.add_link(link)
            self.commit.add_link(link)
            self._last_rx[link] = self.sim.now
            self._bind_ingress(link)
        # Tick half an interval out of phase with the synchronized host
        # beacons: beacon waves (which arrive just after each host tick)
        # are relayed by the cascade, and the periodic tick only emits
        # keep-alives on links no wave has refreshed for a full interval.
        self._task = self.sim.every(
            self.config.beacon_interval_ns,
            self._tick,
            phase=self.config.beacon_interval_ns // 2,
        )

    def _bind_ingress(self, link: Link) -> None:
        """Bind the in-link's ingress record: everything the per-packet
        and per-beacon hot paths would otherwise chase through this
        engine, in one tuple — both interned slots first (``on_packet``
        and ``on_beacon`` index them), then this engine, both register
        files and their value lists.  A link has exactly one destination engine, so
        hanging the record off the link is safe; re-bound on rejoin
        (fresh slots)."""
        be = self.be
        commit = self.commit
        link._ingress = (
            be.slot_of(link), commit.slot_of(link), self,
            be, commit, be._values, commit._values,
        )

    def detach(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    # ------------------------------------------------------------------
    # Gray-failure injection (repro.chaos)
    # ------------------------------------------------------------------
    def set_straggler(self, factor: float) -> None:
        """Make this switch's ordering work ``factor``× slower.

        In the CPU incarnations the per-beacon processing delay is
        scaled (a straggling switch CPU / representative host, §6.2.2–3);
        in the chip incarnation the forwarding pipeline itself is scaled.
        Barriers go stale downstream but safety is unaffected — exactly
        the gray failure a chaos campaign must show 1Pipe survives.
        ``factor`` 1.0 restores healthy speed.
        """
        if factor <= 0:
            raise ValueError(f"straggler factor must be positive: {factor}")
        self.straggle_factor = float(factor)
        self._apply_straggler()

    def _apply_straggler(self) -> None:
        """Chip incarnation: ordering happens in the pipeline itself."""
        if self.switch is not None:
            self.switch.set_straggler(self.straggle_factor)

    def set_beacon_corruption(self, offset_ns: int) -> None:
        """Inflate (positive) or deflate (negative) emitted beacon minima.

        Models a compromised or corrupted switch ordering engine
        (docs/BYZANTINE.md): inflation advances downstream barriers past
        timestamps still in flight (breaking the barrier promise);
        deflation stalls downstream delivery.  0 restores honesty.
        """
        self.beacon_corruption_ns = int(offset_ns)

    # ------------------------------------------------------------------
    # Liveness (§4.2) and failure-handling hooks (§5.2)
    # ------------------------------------------------------------------
    def _note_arrival(self, in_link: Link) -> None:
        self._last_rx[in_link] = self.sim.now
        if in_link in self._dead:
            self.rejoin_link(in_link)

    def _scan_liveness(self) -> None:
        timeout = self.config.link_dead_timeout_ns
        now = self.sim.now
        if now - self._rx_floor <= timeout:
            # No live link can have gone silent for longer than the
            # floor has, and the floor is within the timeout: the full
            # scan would declare nothing dead.
            return
        floor = now
        dead = self._dead
        for link, last in self._last_rx.items():
            if link in dead:
                continue
            if now - last <= timeout:
                if last < floor:
                    floor = last
                continue
            self._dead.add(link)
            self._fp = False
            self.links_declared_dead += 1
            if self._metrics.enabled:
                self._m_dead_links.add()
            # Best-effort plane: decentralized removal (§4.2).
            if self.be.has_link(link):
                self.be.remove_link(link)
            if self.failure_listener is not None:
                # Commit plane waits for the controller's Resume (§5.2).
                last_commit = self.commit.register_value(link)
                self.failure_listener(self.switch.node_id, link, last_commit)
            elif self.commit.has_link(link):
                self.commit.remove_link(link)
        self._rx_floor = floor

    def remove_commit_link(self, link: Link) -> None:
        """Resume step: the controller authorizes dropping the dead link
        from the commit plane so commit barriers advance again.

        If the link came back to life (and rejoined in pending state)
        between the report and the Resume, it is left alone — a pending
        link cannot stall the commit barrier anyway.
        """
        if link in self._dead and self.commit.has_link(link):
            self.commit.remove_link(link)

    def rejoin_link(self, link: Link) -> None:
        """A previously dead link carries traffic again: re-admit it in
        pending state so emitted barriers stay monotone (§4.2)."""
        self._fp = False
        self._dead.discard(link)
        self._last_rx[link] = self.sim.now
        if not self.be.has_link(link):
            self.be.join_link(link)
        if not self.commit.has_link(link):
            self.commit.join_link(link)
        else:
            # Reported dead but still active in the commit plane (the
            # controller's Resume hasn't evicted it): its stale register
            # value would wedge the commit barrier permanently, since
            # Resume skips links no longer dead.  Demote to pending so
            # it only counts again once it has caught up.
            self.commit.demote_link(link)
        self._bind_ingress(link)

    # ------------------------------------------------------------------
    def _emit_beacons(self, out_links) -> None:
        """Emit one beacon per output link, coalesced into a single event.

        The barrier minima are read once here (they are identical for
        every link of the batch — Equation 4.1 aggregates over *input*
        links only) and one scheduler event fans the beacons out, instead
        of one event plus one minimum computation per port.

        The beacons must not bypass data packets still in the ingress
        pipeline: a data packet received just before this batch is
        generated carries (and *is*) an older timestamp, and would be
        overtaken on the egress link — breaking the barrier promise.
        Charge beacons the same pipeline delay as forwarded packets.
        """
        self.beacons_sent += len(out_links)
        if self._metrics.enabled:
            self._m_beacons.add(len(out_links))
        be_min = self.be._min_cache
        if be_min is None:
            be_min = self.be.minimum()
        commit_min = self.commit._min_cache
        if commit_min is None:
            commit_min = self.commit.minimum()
        self._fabric.post_merged(
            self.switch.forwarding_delay_ns,
            self._send_beacons,
            (out_links, be_min, commit_min),
        )

    def _send_beacons(self, out_links, be_min: int, commit_min: int) -> None:
        switch = self.switch
        if switch is None or switch.failed:
            return
        # BFT emitters tag the beacon over the honest minima *before*
        # any corruption is applied: a corrupting engine cannot produce
        # a valid tag for values it lied about (it signs what its
        # registers actually say), which is what lets hardened
        # neighbors reject the lie.  0 in every other mode.
        auth = self._beacon_auth(be_min, commit_min)
        corrupt = self.beacon_corruption_ns
        if corrupt:
            # Applied to the emitted values only: the lie is wire-level,
            # not a local state corruption.
            be_min = max(0, be_min + corrupt)
            commit_min = max(0, commit_min + corrupt)
        self._fabric.emit(out_links, be_min, commit_min, auth)
        if out_links is switch.out_links:
            # Full-fleet emission: every output link's last_tx_time is
            # exactly now (sends stamp it even when the link is down or
            # dropping), so the idle-scan floor is exact.
            self._tx_floor = self.sim.now

    def _beacon_auth(self, be_min: int, commit_min: int) -> int:
        """Simulated MAC for emitted beacons; 0 outside MODE_BFT."""
        return 0

    def _links_needing_beacons(self, now: int) -> list:
        """Output links that need an explicit barrier beacon right now."""
        raise NotImplementedError

    def _maybe_cascade(self) -> None:
        """Schedule a wave relay when the aggregated minimum rises.

        The relay fires after ``cascade_settle_ns`` so it coalesces the
        almost-simultaneous per-wave beacons of every input link (§4.2)
        into one downstream beacon carrying the full wave minimum.
        """
        if self._cascade_pending:
            return
        if (
            self.be.minimum() <= self._emitted_be
            and self.commit.minimum() <= self._emitted_commit
        ):
            return
        self._cascade_pending = True
        self._fabric.post_merged(self._settle_ns, self._cascade_fire)

    def _cascade_fire(self) -> None:
        self._cascade_pending = False
        if self.switch is None or self.switch.failed:
            # The relay this wave was owed never happens, so the minima
            # can now sit above the emitted pair with no relay pending —
            # the one state the fabric's fast ingress (which re-checks
            # the trigger only when a minimum's last holder retires)
            # must never meet.
            self._fp = False
            return
        be_min = self.be._min_cache
        self._emitted_be = (
            be_min if be_min is not None else self.be.minimum()
        )
        commit_min = self.commit._min_cache
        self._emitted_commit = (
            commit_min if commit_min is not None else self.commit.minimum()
        )
        needs = self._links_needing_beacons(self.sim.now)
        if needs:
            self._emit_beacons(needs)

    def _tick(self) -> None:
        # Keep-alive: links silent for a full interval (no data, no
        # cascade beacons — e.g. the barrier is stalled by a dead input)
        # still get a beacon carrying the stale minimum, so downstream
        # liveness timers stay calm while the barrier cannot advance.
        if self.switch is None or self.switch.failed:
            return
        now = self.sim.now
        if now - self._rx_floor > self._dead_timeout:
            # Only pay the liveness-scan call when the floor cannot
            # prove the scan would be a no-op (same guard it re-checks).
            self._scan_liveness()
        interval = self.config.beacon_interval_ns
        if now - self._tx_floor >= interval:
            floor = now
            idle = []
            for link in self.switch.out_links:
                last = link.last_tx_time
                if now - last >= interval:
                    idle.append(link)
                if last < floor:
                    floor = last
            self._tx_floor = floor
            if idle:
                self._emit_beacons(idle)

    def on_packet(self, packet: Packet, in_link: Link) -> bool:
        """A data packet (and every non-beacon kind) at ingress; True to
        forward it."""
        raise NotImplementedError

    def on_beacon(
        self, in_link: Link, be_ts: int, commit_ts: int, sent_at: int,
        auth: int,
    ) -> None:
        """A beacon from ``in_link``: its barriers, emission instant and
        simulated MAC (0 unless the emitter runs MODE_BFT).  Beacons are
        strictly hop-by-hop — consumed here, relayed by the cascade.
        The transport has already replayed ``Switch.receive``'s failed
        check and rx accounting."""
        raise NotImplementedError


class ProgrammableChipEngine(_OrderingEngineBase):
    """Per-packet aggregation in the forwarding pipeline (§6.2.1)."""

    def on_packet(self, packet: Packet, in_link: Link) -> bool:
        # Runs once per packet on every engine switch — the hottest
        # method of a fat-tree run, so liveness bookkeeping and the
        # cascade trigger are inlined rather than delegated.
        if self.switch.failed:
            return False
        self._last_rx[in_link] = self.sim.now
        if self._dead and in_link in self._dead:
            self.rejoin_link(in_link)
        # Equation (4.1): update the input link register, then stamp the
        # packet with the minimum across all input links.  Attached
        # links carry cached interned slots (index-addressed update);
        # links fed to the engine without attach fall back to id lookup.
        be = self.be
        commit = self.commit
        slots = getattr(in_link, "_ingress", None)
        if slots is not None:
            be.update_slot(slots[0], packet.barrier_ts)
            commit.update_slot(slots[1], packet.commit_ts)
        else:
            be.update(in_link, packet.barrier_ts)
            commit.update(in_link, packet.commit_ts)
        be_min = be._min_cache
        if be_min is None:
            be_min = be.minimum()
        commit_min = commit._min_cache
        if commit_min is None:
            commit_min = commit.minimum()
        packet.barrier_ts = be_min
        packet.commit_ts = commit_min
        # _maybe_cascade, inlined with the minima already in hand.
        if not self._cascade_pending and (
            be_min > self._emitted_be or commit_min > self._emitted_commit
        ):
            self._cascade_pending = True
            self._fabric.post_merged(self._settle_ns, self._cascade_fire)
        return True

    def on_beacon(
        self, in_link: Link, be_ts: int, commit_ts: int, sent_at: int,
        auth: int,
    ) -> None:
        self._last_rx[in_link] = self.sim.now
        if self._dead and in_link in self._dead:
            self.rejoin_link(in_link)
        be = self.be
        commit = self.commit
        slots = in_link._ingress
        be.update_slot(slots[0], be_ts)
        commit.update_slot(slots[1], commit_ts)
        be_min = be._min_cache
        if be_min is None:
            be_min = be.minimum()
        commit_min = commit._min_cache
        if commit_min is None:
            commit_min = commit.minimum()
        if self._metrics.enabled:
            self._m_beacon_hop.observe(self.sim.now - sent_at)
        if not self._cascade_pending and (
            be_min > self._emitted_be or commit_min > self._emitted_commit
        ):
            self._cascade_pending = True
            self._fabric.post_merged(self._settle_ns, self._cascade_fire)

    def _links_needing_beacons(self, now: int) -> list:
        # Chip mode: any forwarded *data* packet refreshes barriers, so
        # beacons are only needed on links without recent data traffic.
        half = self.config.beacon_interval_ns // 2
        switch = self.switch
        if now - switch._data_ceiling >= half:
            # The switch-wide ceiling proves every output link has been
            # data-silent for at least half an interval — the common
            # case outside bursts, so skip the per-link scan.  Callers
            # only iterate the result, never mutate it.
            return switch.out_links
        return [
            link
            for link in switch.out_links
            if now - link.last_data_tx >= half
        ]


class SwitchCpuEngine(_OrderingEngineBase):
    """Beacon-only aggregation on the switch CPU (§6.2.2).

    Data packets traverse the chip untouched; received beacons update the
    registers after ``processing_delay_ns`` (OS stack + CPU), and the CPU
    broadcasts fresh beacons on every output link each interval.  Beacons
    landing within one processing window are interrupt-coalesced into a
    single register flush (exact under Equation 4.1 — see ``__init__``).
    """

    def __init__(
        self,
        sim: Simulator,
        config: OnePipeConfig,
        fabric: BeaconFabric,
        failure_listener: Optional[FailureListener] = None,
        processing_delay_ns: Optional[int] = None,
    ) -> None:
        super().__init__(sim, config, fabric, failure_listener)
        self.processing_delay_ns = (
            processing_delay_ns
            if processing_delay_ns is not None
            else config.switch_cpu_delay_ns
        )
        # Interrupt coalescing: beacons arriving within one CPU
        # processing window are buffered per input link (keeping only
        # the per-link maxima) and applied by a single flush event,
        # instead of one scheduler event per beacon.  Equation (4.1)
        # only ever takes the max of each register with the arriving
        # barrier, so folding the max into the buffer is exact; the
        # barrier promise is already valid when a beacon arrives (links
        # are FIFO), so applying several at once — each no later than
        # its own processing delay — is safe.  The buffer itself lives
        # on the links (``link._cpu_buf``, a [be, commit] pair or None)
        # with ``_buf_links`` tracking which links are dirty in arrival
        # order — index-addressed state instead of a dict rebuilt every
        # window.
        self._buf_links: list = []
        self._flush_pending = False

    def on_packet(self, packet: Packet, in_link: Link) -> bool:
        if self.switch.failed:
            return False
        self._note_arrival(in_link)
        return True  # data forwarded by the chip, barriers untouched

    def on_beacon(
        self, in_link: Link, be_ts: int, commit_ts: int, sent_at: int,
        auth: int,
    ) -> None:
        self._note_arrival(in_link)
        if self._metrics.enabled:
            self._m_beacon_hop.observe(self.sim.now - sent_at)
        buffered = in_link._cpu_buf
        if buffered is None:
            in_link._cpu_buf = [be_ts, commit_ts]
            self._buf_links.append(in_link)
        else:
            if be_ts > buffered[0]:
                buffered[0] = be_ts
            if commit_ts > buffered[1]:
                buffered[1] = commit_ts
        if not self._flush_pending:
            self._flush_pending = True
            self.sim.post(
                int(self.processing_delay_ns * self.straggle_factor),
                self._cpu_flush,
            )

    def _apply_straggler(self) -> None:
        # The chip still forwards data at full speed; only the CPU (or
        # representative host) that processes beacons straggles.
        pass

    def _cpu_flush(self) -> None:
        self._flush_pending = False
        links = self._buf_links
        if not links:
            return
        self._buf_links = []
        be = self.be
        commit = self.commit
        for in_link in links:
            be_barrier, commit_ts = in_link._cpu_buf
            in_link._cpu_buf = None
            if be.has_link(in_link):
                be.update(in_link, be_barrier)
            if commit.has_link(in_link):
                commit.update(in_link, commit_ts)
        # Relay the wave onward (the per-hop CPU delay was already paid).
        self._maybe_cascade()

    def _links_needing_beacons(self, now: int) -> list:
        # CPU mode: data packets do not carry barriers, so every output
        # link gets wave beacons whether busy or not (§6.2.2).  Returns
        # the live list (callers only iterate it); the identity also
        # lets _send_beacons recognize a full-fleet emission.
        return self.switch.out_links


class HostDelegationEngine(SwitchCpuEngine):
    """Beacon processing delegated to a representative host (§6.2.3).

    Control flow is the switch-CPU design; the per-hop delay additionally
    covers the switch↔host round trip (beacons detour through the
    representative) plus host processing.  The representative host itself
    is implicit — its latency contribution is folded into
    ``processing_delay_ns``, which is exactly how the paper models the
    expected delay of this incarnation.
    """

    def __init__(
        self,
        sim: Simulator,
        config: OnePipeConfig,
        fabric: BeaconFabric,
        failure_listener: Optional[FailureListener] = None,
    ) -> None:
        super().__init__(
            sim,
            config,
            fabric,
            failure_listener,
            processing_delay_ns=config.host_delegate_delay_ns,
        )


class BftChipEngine(ProgrammableChipEngine):
    """BFT-hardened chip incarnation (``MODE_BFT``, docs/BYZANTINE.md).

    The fail-stop chip engine trusts every beacon; this one does not:

    - **Authentication** — every emitted beacon carries a simulated MAC
      over ``(be_min, commit_min)`` under the emitter's key
      (:mod:`repro.byz.keys`).  Ingress beacons whose tag does not
      verify against the upstream neighbor's key are dropped *before*
      they refresh liveness or touch a register, and the emitter is
      accused to the controller.  A beacon-corrupting switch therefore
      starves its own links (they look silent downstream) instead of
      poisoning the barrier plane, and the standard §4.2/§5.2 liveness
      machinery degrades around it.
    - **f+1 cross-check** — an authenticated beacon observation only
      advances a register to the floor of the last ``byz_f + 1``
      observations on that link, so one lying (but validly signed)
      observation can move the minimum by at most one beacon interval.
    - **Graceful degradation** — accusations demote the suspect's links
      to pending via :meth:`BarrierRegisterFile.demote_link` (through
      the controller), never wedging the commit barrier.
    """

    def __init__(
        self,
        sim: Simulator,
        config: OnePipeConfig,
        fabric: BeaconFabric,
        failure_listener: Optional[FailureListener] = None,
    ) -> None:
        super().__init__(sim, config, fabric, failure_listener)
        from repro.byz.keys import get_key_registry

        self._keys = get_key_registry(sim)
        self._my_key = 0  # derived at attach (needs the switch identity)
        # accusation_listener(accuser_id, suspect_id, detail) — wired by
        # the cluster when a controller is present.
        self.accusation_listener = None
        # Per-link window of recent authenticated observations
        # (be, commit); a register only advances to the window minimum.
        self._observed: Dict[Link, list] = {}
        self._accused: set = set()
        # Per-sender (max msg_ts, msg_id at max) over data packets from
        # directly attached hosts: a ToR up-engine sees every egress
        # packet of its hosts in send order, so a timestamp that
        # regresses against a higher msg_id is proof of a lying sender —
        # even when its scatterings go to disjoint receivers whose local
        # high-waters never witness the regression.
        self._send_high: Dict[int, Tuple[int, int]] = {}
        self.beacons_rejected = 0
        # Registered lazily (first rejection/deferral) so fail-stop
        # metrics snapshots never grow new zero-valued counters and
        # existing observe reports stay byte-identical.
        self._m_byz_rejected = None
        self._m_byz_deferrals = None

    def attach(self, switch: Switch) -> None:
        super().attach(switch)
        self._my_key = self._keys.key_of(switch.node_id)

    def _beacon_auth(self, be_min: int, commit_min: int) -> int:
        from repro.byz.keys import mac

        return mac(self._my_key, be_min, commit_min)

    # ------------------------------------------------------------------
    def _accuse(self, suspect: str, detail: str) -> None:
        if suspect in self._accused:
            return
        self._accused.add(suspect)
        listener = self.accusation_listener
        if listener is not None:
            listener(self.switch.node_id, suspect, detail)

    def _staged_minima(self, in_link: Link, be: int, commit: int):
        """Fold an observation into the link's cross-check window and
        return the (be, commit) values the registers may adopt now."""
        window = self._observed.get(in_link)
        if window is None:
            self._observed[in_link] = window = []
        window.append((be, commit))
        depth = self.config.byz_f + 1
        if len(window) > depth:
            del window[0]
        if len(window) < depth:
            return 0, 0  # not yet confirmed by f+1 observations
        staged_be = min(entry[0] for entry in window)
        staged_commit = min(entry[1] for entry in window)
        if staged_be < be or staged_commit < commit:
            if self._metrics.enabled:
                if self._m_byz_deferrals is None:
                    self._m_byz_deferrals = self._metrics.counter(
                        "byz.crosscheck_deferrals"
                    )
                self._m_byz_deferrals.add()
        return staged_be, staged_commit

    # ------------------------------------------------------------------
    def on_beacon(
        self, in_link: Link, be_ts: int, commit_ts: int, sent_at: int,
        auth: int,
    ) -> None:
        from repro.byz.keys import mac

        emitter = in_link.src.node_id
        if auth != mac(self._keys.key_of(emitter), be_ts, commit_ts):
            # Forged or corrupted: drop before liveness/register
            # bookkeeping (the link looks silent) and accuse once.
            self.beacons_rejected += 1
            if self._metrics.enabled:
                if self._m_byz_rejected is None:
                    self._m_byz_rejected = self._metrics.counter(
                        "byz.beacons_rejected"
                    )
                self._m_byz_rejected.add()
            self._accuse(
                emitter,
                f"beacon auth failure on {in_link.name} "
                f"(be={be_ts} commit={commit_ts})",
            )
            return
        self._note_arrival(in_link)
        if self._metrics.enabled:
            self._m_beacon_hop.observe(self.sim.now - sent_at)
        staged_be, staged_commit = self._staged_minima(
            in_link, be_ts, commit_ts
        )
        be = self.be
        commit = self.commit
        if be.has_link(in_link):
            be.update(in_link, staged_be)
        if commit.has_link(in_link):
            commit.update(in_link, staged_commit)
        self._maybe_cascade()

    def on_packet(self, packet: Packet, in_link: Link) -> bool:
        if self.switch.failed:
            return False
        # Data path: identical to the chip incarnation.  Data barrier
        # stamps are bounded by the beacon plane (each hop's registers
        # only advance through authenticated, cross-checked beacons or
        # the hop's own aggregation), so no per-packet MAC is needed
        # here — the hot path stays at chip speed.
        # Only timestamped payload kinds participate: ACK/NAK/RECALL and
        # controller traffic carry msg_id bookkeeping but a zero msg_ts,
        # so including them would frame every honest process as a
        # timestamp-regressing liar on its first acknowledgment.
        if (
            packet.last_frag
            and (
                packet.kind == PacketKind.DATA
                or packet.kind == PacketKind.RDATA
            )
            and getattr(in_link.src, "uplink", None) is not None
        ):
            high = self._send_high.get(packet.src)
            if (
                high is not None
                and packet.msg_id > high[1]
                and packet.msg_ts < high[0]
            ):
                self._accuse(
                    ("proc", packet.src),
                    f"egress timestamp regression: msg {packet.msg_id} "
                    f"ts={packet.msg_ts} after msg {high[1]} ts={high[0]}",
                )
            elif high is None or packet.msg_ts > high[0]:
                self._send_high[packet.src] = (packet.msg_ts, packet.msg_id)
        return super().on_packet(packet, in_link)


def make_engine(
    sim: Simulator,
    config: OnePipeConfig,
    fabric: BeaconFabric,
    failure_listener: Optional[FailureListener] = None,
):
    """Engine factory for the configured incarnation."""
    if config.mode == MODE_CHIP:
        return ProgrammableChipEngine(sim, config, fabric, failure_listener)
    if config.mode == MODE_SWITCH_CPU:
        return SwitchCpuEngine(sim, config, fabric, failure_listener)
    if config.mode == MODE_HOST_DELEGATE:
        return HostDelegationEngine(sim, config, fabric, failure_listener)
    if config.mode == MODE_BFT:
        return BftChipEngine(sim, config, fabric, failure_listener)
    raise ValueError(f"unknown mode {config.mode!r}")
