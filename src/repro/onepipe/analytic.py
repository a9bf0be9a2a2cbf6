"""Analytic (virtual) beacon fabric: barrier waves without packets.

This is the one beacon transport: every engine, host agent and
incarnation, BFT included, sends and receives its beacons here.

At scale, beacons dominate the event population (paper §4.3: they are
O(hosts × switch ports) per interval) — yet a beacon *carries* barrier
information, it never creates it (§4.2).  In event-level simulation each
beacon costs a packet allocation, a ``link.send``, one scheduler event
per link for the delivery, and a ``receive`` dispatch.  The fabric
replaces all of that with wave advance — its unit of work is the *wave*,
not the link:

- **Virtual sends** replay the link's beacon accounting exactly
  (``last_tx_time``, tail drop, ECN counters, serialization occupancy,
  backlog FIFO, tx statistics) without constructing a packet, so data
  packets sharing the link observe byte-identical queueing.
- **Lockstep egress**: a full-fleet emission (``out_links is
  switch.out_links``) that leaves every out-link up and in the
  idle-beacon queue shape — exactly one serializing beacon, nothing
  else queued — *locks* the emitting switch (``node._lockstep``).  While
  locked, an emission whose previous wave has serialized on every link
  would take the same idle cycle on each of them, so it is O(arrival
  groups): bump the wave instant and the owed-wave count, post the
  cached ``(arrival offset, links)`` plan.  The per-link writes are
  *owed* and settled in one pass the moment anything could observe or
  disturb them — ``Link.send`` of a real packet, a partial emission or
  one meeting a beacon still on the wire, ``fail()``,
  ``set_/clear_degradation`` (the plan's offsets and the settle rate
  change), ``attach_out_link``,
  ``queue_bytes`` (it drains the serialized beacon the shape stands
  on, so it unlocks rather than settles) — and ``tx_packets``,
  ``tx_bytes`` and ``last_tx_time`` are settling views.  Hosts (one
  out-link) never lock.  Nothing selects this: the eager link-by-link
  loop is where a switch locks, and where it lands when unlocked.
- **Batched arrivals**: beacons are grouped by arrival time into one
  scheduler event per distinct arrival instant — merged *across*
  emissions under a sequence guard (below), so one synchronized wave
  stage (every ToR relaying at the same instant, every host ticking at
  the same instant) collapses into a handful of events, and consecutive
  entries of one kind (arrival groups, host NIC hops) share one replay
  call.
- **Bound ingress** hands each arrival to the destination's
  ``on_beacon`` (switch engine register updates and cascade triggers,
  host agent barrier floors), inlined for the steady-state chip engine
  and the fail-stop host agent.  Each in-link carries one record bound
  by its destination engine (``_bind_ingress``: slots, engine,
  register files, value lists) and one maintained ``_clean`` flag (up,
  no burst chain, no loss stream, no filter), so a clean arrival into a
  steady-state chip engine is one unpack plus the two register
  max-merges.  The cascade trigger is re-evaluated only when a cached
  minimum is invalid, i.e. the arrival retired a minimum's last holder:
  on the fast path (``engine._fp``) "no relay pending" implies "minima
  <= emitted pair", so with both caches valid it cannot fire.  The one
  event that breaks the implication — ``_cascade_fire`` returning early
  on a crashed switch — clears ``_fp``.

Order-exactness of the merge: the simulator fires same-time events in
posting (sequence) order, so a bucket that replays its entries in
append order is exact as long as no *foreign* event targeting the same
instant holds a sequence number between two merged entries.  Foreign
posts to *other* instants are harmless — they cannot fire inside the
bucket's instant — so the fabric only has to watch for collisions: it
registers every open bucket's instant in ``Simulator._fabric_times``,
and the scheduling entry points bump ``Simulator._fabric_epoch`` when
a schedule targets a registered instant.  On an epoch change the
fabric closes every open bucket (already-posted buckets still fire
with the entries they collected; later appends start fresh buckets
with later sequence numbers, which is exactly where the event-level
run would have placed them relative to the colliding event).  This
collision watch is what lets one bucket absorb appends across
periodic-task reschedules and data traffic, collapsing a whole wave
stage — every host NIC hop, every cascade settle, every relay
emission, every receiver flush of one synchronized instant — into a
single scheduler event each.

Randomized elements do NOT break exactness: Gilbert–Elliott burst
chains, i.i.d. corruption loss, and receiver-side loss draw from
per-link / per-host RNG streams in chronological arrival order, and the
fabric performs the *same draws from the same streams at the same
simulated instants* as the event-level path would.  A ``drop_filter``
(an arbitrary predicate over packet objects) only acts at delivery, so
it stays virtual too: the filter is shown a transient probe packet at
arrival, exactly where ``Link._deliver`` would consult it.

Authentication rides the record: each beacon record carries the
emitter's simulated MAC (0 outside the BFT incarnation), computed over
the honest minima before any ``beacon_corruption_ns`` applies, and the
destination's ``on_beacon`` verifies it.

Fidelity contract: delivery traces, oracle verdicts, barrier/cascade
timing, RNG streams, liveness state, and beacon/packet counters are
byte-identical to sending one packet per beacon per hop (the reference
transport in ``tests/reference.py``); only
``Simulator.events_processed`` (fewer scheduler events) and PacketTap
captures (no packets to tap) differ.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.packet import BEACON_BYTES, Packet, PacketKind
from repro.obs.registry import GLOBAL_METRICS

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.onepipe.hostagent import HostAgent
    from repro.sim import Simulator


class _Lockstep:
    """A switch whose out-links advance as one unit (module docstring,
    "Lockstep egress").  Lives at ``node._lockstep`` while locked."""

    __slots__ = ("node", "plan", "max_ser", "last", "owed")

    def __init__(self, node, now: int, plan: list) -> None:
        self.node = node
        # [(arrival offset from the wave instant, links)] in the order
        # an eager emission would post its arrival groups.
        self.plan = plan
        self.max_ser = max(link._beacon_ser_ns for link in node.out_links)
        self.last = now  # instant of the latest wave
        self.owed = 0  # waves whose per-link accounting is unwritten

    def settle(self) -> None:
        """Write the owed per-link accounting: exactly what ``owed``
        idle beacon cycles, the last one at ``last``, leave behind."""
        owed = self.owed
        if owed:
            self.owed = 0
            last = self.last
            for link in self.node.out_links:
                link._last_tx_time = last
                link._busy_until = done = last + link._beacon_ser_ns
                link._backlog_fifo[0] = (done, BEACON_BYTES)
                link._tx_packets += owed
                link._tx_bytes += owed * BEACON_BYTES

    def unlock(self) -> None:
        self.settle()
        self.node._lockstep = None


class BeaconFabric:
    """Virtual beacon transport shared by every emitter of one cluster."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._metrics = getattr(sim, "metrics", None) or GLOBAL_METRICS
        # Open merge buckets: absolute time -> list of (fn, args)
        # entries replayed in append order.  Guarded by the collision
        # epoch (module docstring); a bucket removes itself from this
        # table (and its instant from ``sim._fabric_times``) when it
        # fires or is orphaned by an epoch change.
        self._open: dict = {}
        self._epoch = sim._fabric_epoch
        # Stable bound-method objects for _run's run-batching:
        # ``self._deliver_many`` creates a fresh bound method on every
        # attribute access, so the identity check there must use these.
        self._deliver_many_cb = self._deliver_many
        self._host_nic_many_cb = self._host_nic_many
        # Diagnostics (docs/PERF.md): how many beacons travelled, and
        # how many switch emissions went out as one locked wave.
        self.virtual_beacons = 0
        self.lockstep_waves = 0

    # ------------------------------------------------------------------
    # Host-emitted beacons (HostAgent._beacon_tick)
    # ------------------------------------------------------------------
    def host_beacon(self, agent: "HostAgent") -> None:
        """Replay ``Host.send_packet`` for one host beacon.

        The caller has already done the tick-side bookkeeping
        (``beacons_sent``, metrics).  Clock reads happen here — at the
        same instant ``_stamp_egress`` would read them — because
        ``HostClock.now()`` advances slew state and must be called on
        the event-level schedule.  A BFT host tags the barriers with its
        simulated MAC.
        """
        host = agent.host
        clock_now = agent.clock.now()
        be, commit = agent.local_barriers(clock_now)
        auth = agent._beacon_auth(be, commit) if agent._bft else 0
        host.tx_packets += 1
        if host._metrics.enabled:
            host._m_tx.add()
        now = self.sim.now
        beacon = (host.uplink, be, commit, now, auth)
        if host.nic_delay_ns:
            self._run(
                now + host.nic_delay_ns, self._host_nic_many_cb
            ).append(beacon)
        else:
            self._host_nic_many((beacon,))

    def _host_nic_many(self, beacons) -> None:
        """The NIC-delay event for a run of host beacons (every host
        that ticked at one instant, back to back in one bucket): each
        reaches its uplink queue.  Hosts have one out-link and never
        lock; the idle cycle is inlined as in :meth:`emit`."""
        now = self.sim.now
        metrics_on = self._metrics.enabled
        B = BEACON_BYTES
        count = 0
        # Uplinks are alike, so a run's arrivals mostly share one
        # instant: look its arrival run up once.  Nothing below posts or
        # schedules.
        run_at = run = None
        for link, be, commit, sent_at, auth in beacons:
            fifo = link._backlog_fifo
            if (
                link._beacon_fast
                and link.up
                and link._busy_until <= now
                and link._backlog_bytes == B
                and len(fifo) == 1
            ):
                link._last_tx_time = now
                link._busy_until = done = now + link._beacon_ser_ns
                fifo[0] = (done, B)
                link._tx_packets += 1
                link._tx_bytes += B
                if metrics_on:
                    link._m_tx_packets.add()
                    link._m_tx_bytes.add(B)
                count += 1
                arrival = (
                    done + link.prop_delay_ns + link.degraded_extra_delay_ns
                )
            else:
                arrival = self._virtual_link_send(link, now)
                if arrival is None:
                    continue
            if arrival != run_at:
                run_at = arrival
                run = self._run(arrival, self._deliver_many_cb)
            run.append(((link,), be, commit, sent_at, auth))
        self.virtual_beacons += count

    # ------------------------------------------------------------------
    # Switch-emitted beacons (_OrderingEngineBase._send_beacons)
    # ------------------------------------------------------------------
    def emit(
        self, out_links, be_min: int, commit_min: int, auth: int
    ) -> None:
        """Replay one coalesced beacon emission across ``out_links``
        (``auth``: the emitter's simulated MAC, 0 outside BFT): as
        one locked wave if the emitting node is in lockstep, else link
        by link (which is also where the node locks)."""
        now = self.sim.now
        metrics_on = self._metrics.enabled
        B = BEACON_BYTES
        run = self._run
        dm = self._deliver_many_cb
        node = out_links[0].src
        full_fleet = out_links is node.out_links
        lock = node._lockstep
        if lock is not None:
            if full_fleet and lock.last + lock.max_ser <= now:
                # Every out-link's previous beacon has serialized, so
                # each would take the idle cycle below: owe it.
                lock.last = now
                lock.owed += 1
                count = len(out_links)
                self.virtual_beacons += count
                self.lockstep_waves += 1
                if metrics_on:
                    link = out_links[0]  # counters are cluster-wide
                    link._m_tx_packets.add(count)
                    link._m_tx_bytes.add(count * B)
                for offset, links in lock.plan:
                    run(now + offset, dm).append(
                        (links, be_min, commit_min, now, auth)
                    )
                return
            lock.unlock()  # partial fleet, or a wave still on the wire
        # Stays True iff this is a full-fleet emission (of a switch:
        # hosts have one out-link) that leaves every link up and
        # holding exactly one serializing beacon.
        lockable = full_fleet and len(out_links) > 1
        batch = None
        count = 0
        for link in out_links:
            fifo = link._backlog_fifo
            if (
                link._beacon_fast
                and link.up
                and link._busy_until <= now
                and link._backlog_bytes == B
                and len(fifo) == 1
            ):
                # Idle beacon cycle (the steady state): the only queued
                # entry is the previous, already-serialized beacon.  The
                # general path would drain it (backlog B -> 0) and
                # enqueue this one (0 -> B): replace in place, skip the
                # drain, the capacity check (_beacon_fast rules out tail
                # drop and ECN on an empty queue), and the backlog write.
                link._last_tx_time = now
                link._busy_until = done = now + link._beacon_ser_ns
                fifo[0] = (done, B)
                link._tx_packets += 1
                link._tx_bytes += B
                if metrics_on:
                    link._m_tx_packets.add()
                    link._m_tx_bytes.add(B)
                count += 1
                arrival = (
                    done + link.prop_delay_ns + link.degraded_extra_delay_ns
                )
            else:
                arrival = self._virtual_link_send(link, now)
                if arrival is None:
                    lockable = False
                    continue
                if link._backlog_bytes != B or not link._beacon_fast:
                    lockable = False  # something else is queued too
            if batch is None:
                batch = {arrival: [link]}
            else:
                bucket = batch.get(arrival)
                if bucket is None:
                    batch[arrival] = [link]
                else:
                    bucket.append(link)
        self.virtual_beacons += count
        if batch is not None:
            for arrival, links in batch.items():
                run(arrival, dm).append(
                    (links, be_min, commit_min, now, auth)
                )
            if lockable:
                node._lockstep = _Lockstep(
                    node, now,
                    [(arrival - now, links) for arrival, links in batch.items()],
                )

    # ------------------------------------------------------------------
    # The virtual link (Link.send beacon path, minus the packet)
    # ------------------------------------------------------------------
    def _virtual_link_send(self, link: "Link", now: int):
        """Mirror of ``Link.send`` for a beacon; returns the arrival
        time, or None if the link dropped it at enqueue."""
        link._last_tx_time = now
        if not link.up:
            link.dropped_down += 1
            if link._metrics.enabled:
                link._m_drop_down.add()
            return None
        fifo = link._backlog_fifo
        backlog = link._backlog_bytes
        if fifo:
            while fifo and fifo[0][0] <= now:
                backlog -= fifo.popleft()[1]
            link._backlog_bytes = backlog
        if (
            link.queue_capacity_bytes is not None
            and backlog + BEACON_BYTES > link.queue_capacity_bytes
        ):
            link.dropped_overflow += 1
            if link._metrics.enabled:
                link._m_drop_overflow.add()
            return None
        if (
            link.ecn_threshold_bytes is not None
            and backlog > link.ecn_threshold_bytes
        ):
            # The event-level path would set packet.ecn, which nothing
            # reads on a consumed beacon; only counters.
            link.ecn_marked += 1
            if link._metrics.enabled:
                link._m_ecn.add()
        busy_until = link._busy_until
        done = (busy_until if busy_until > now else now) + link._beacon_ser_ns
        link._busy_until = done
        link._backlog_bytes = backlog + BEACON_BYTES
        fifo.append((done, BEACON_BYTES))
        link._tx_packets += 1
        link._tx_bytes += BEACON_BYTES
        if link._metrics.enabled:
            link._m_tx_packets.add()
            link._m_tx_bytes.add(BEACON_BYTES)
        self.virtual_beacons += 1
        return done + link.prop_delay_ns + link.degraded_extra_delay_ns

    # ------------------------------------------------------------------
    # Merge buckets (collision-epoch guarded; see module docstring)
    # ------------------------------------------------------------------
    def post_merged(self, delay: int, fn, args: tuple = ()) -> None:
        """Schedule ``fn(*args)`` like ``sim.post`` but merged into the
        per-instant bucket, if one is still open for that instant.
        (Body kept in lockstep with :meth:`post_merged_at` — this is a
        hot path, worth skipping the delegation.)"""
        sim = self.sim
        t = sim.now + delay
        if sim._fabric_epoch != self._epoch:
            self._close_all()
        entries = self._open.get(t)
        if entries is None:
            entries = [(fn, args)]
            self._open[t] = entries
            sim.post_at(t, self._fire_merged, t, entries)
            times = sim._fabric_times
            times[t] = times.get(t, 0) + 1
        else:
            entries.append((fn, args))

    def post_merged_at(self, t: int, fn, args: tuple = ()) -> None:
        sim = self.sim
        if sim._fabric_epoch != self._epoch:
            # A foreign schedule targeted an open bucket's instant; its
            # event now sits between the bucket's entries and anything
            # appended from here on.  Close every bucket (they keep and
            # fire what they already collected) and start fresh.
            self._close_all()
        entries = self._open.get(t)
        if entries is None:
            entries = [(fn, args)]
            self._open[t] = entries
            # Post first, register second: the bucket's own post must
            # not count as a collision with itself.
            sim.post_at(t, self._fire_merged, t, entries)
            times = sim._fabric_times
            times[t] = times.get(t, 0) + 1
        else:
            entries.append((fn, args))

    def _close_all(self) -> None:
        times = self.sim._fabric_times
        for t in self._open:
            self._unregister(times, t)
        self._open.clear()
        self._epoch = self.sim._fabric_epoch

    @staticmethod
    def _unregister(times: dict, t: int) -> None:
        n = times.get(t, 0)
        if n <= 1:
            times.pop(t, None)
        else:
            times[t] = n - 1

    def _run(self, t: int, run_cb) -> list:
        """``post_merged_at`` specialized for runs: the list the next
        item for ``run_cb`` (one of the stable ``_*_many_cb`` bound
        methods, which replay a list of items) at instant ``t`` must be
        appended to — before anything else is posted.

        Consecutive items of one kind landing in the same bucket share
        a single entry — one replay prologue for the whole run — and
        only an entry of another kind in between (whose relative order
        must be preserved) starts a new one.
        """
        sim = self.sim
        if sim._fabric_epoch != self._epoch:
            self._close_all()
        entries = self._open.get(t)
        if entries is None:
            items: list = []
            self._open[t] = entries = [(run_cb, (items,))]
            sim.post_at(t, self._fire_merged, t, entries)
            times = sim._fabric_times
            times[t] = times.get(t, 0) + 1
            return items
        last = entries[-1]
        if last[0] is run_cb:
            return last[1][0]
        items = []
        entries.append((run_cb, (items,)))
        return items

    def _fire_merged(self, t: int, entries) -> None:
        """Replay one instant's merged entries in append order — which
        the collision epoch guarantees is event-level firing order."""
        if self._open.get(t) is entries:
            del self._open[t]
            self._unregister(self.sim._fabric_times, t)
        for fn, args in entries:
            fn(*args)

    def _deliver_many(self, groups) -> None:
        """Replay ``Link._deliver`` + ``dst.receive`` for a run of
        arrival groups ``(links, be, commit, sent_at, auth)`` — one
        prologue for every group the bucket collected back to back."""
        now = self.sim.now
        metrics_on = self._metrics.enabled
        post_merged = self.post_merged
        for links, be, commit, sent_at, auth in groups:
            for link in links:
                if not link._clean and self._link_drops(
                    link, be, commit, sent_at, auth
                ):
                    continue
                dst = link.dst
                if dst.failed:
                    continue
                dst.rx_packets += 1
                if metrics_on:
                    dst._m_rx.add()
                bound = link._ingress
                if bound is not None:
                    # Bound by the destination's ordering engine
                    # (_OrderingEngineBase._bind_ingress).
                    bslot, cslot, engine, bef, cof, bvals, cvals = bound
                    if not engine._fp:
                        engine.on_beacon(link, be, commit, sent_at, auth)
                        continue
                    # ProgrammableChipEngine.on_beacon in the steady
                    # state (active slots, no dead links), inlined: two
                    # BarrierRegisterFile.update_slot max-merges ...
                    engine._last_rx[link] = now
                    current = bvals[bslot]
                    if be > current:
                        bvals[bslot] = be
                        if current == bef._min_cache:
                            n = bef._min_count - 1
                            if n > 0:
                                bef._min_count = n
                            else:
                                bef._min_cache = None
                    current = cvals[cslot]
                    if commit > current:
                        cvals[cslot] = commit
                        if current == cof._min_cache:
                            n = cof._min_count - 1
                            if n > 0:
                                cof._min_count = n
                            else:
                                cof._min_cache = None
                    if metrics_on:
                        engine._m_beacon_hop.observe(now - sent_at)
                    # ... and the cascade trigger, which can only fire
                    # if the arrival retired a minimum's last holder
                    # (module docstring, "Bound ingress").
                    if (
                        bef._min_cache is None or cof._min_cache is None
                    ) and not engine._cascade_pending:
                        # BarrierRegisterFile.minimum(), inlined (every
                        # slot of a fast-path engine is active).
                        be_min = bef._min_cache
                        if be_min is None:
                            bef._min_cache = be_min = min(bvals)
                            bef._min_count = bvals.count(be_min)
                        commit_min = cof._min_cache
                        if commit_min is None:
                            cof._min_cache = commit_min = min(cvals)
                            cof._min_count = cvals.count(commit_min)
                        if (
                            be_min > engine._emitted_be
                            or commit_min > engine._emitted_commit
                        ):
                            engine._cascade_pending = True
                            post_merged(
                                engine._settle_ns, engine._cascade_fire
                            )
                    continue
                agent = getattr(dst, "onepipe_agent", None)
                if agent is None:
                    # Plain switch / agent-less host — beacon dropped,
                    # exactly like the packet handlers.
                    continue
                if agent._bft:
                    agent.on_beacon(link, be, commit, sent_at, auth)
                    continue
                # HostAgent.on_beacon without a MAC to verify, inlined.
                loss_rng = agent._loss_rng
                if (
                    loss_rng is not None
                    and loss_rng.random() < agent.receiver_loss_rate
                ):
                    agent.receiver_drops += 1
                    if metrics_on:
                        agent._m_rx_drops.add()
                    continue
                if metrics_on:
                    agent._m_beacon_hop.observe(now - sent_at)
                changed = False
                if be > agent.rx_be_barrier:
                    agent.rx_be_barrier = be
                    changed = True
                if commit > agent.rx_commit_barrier:
                    agent.rx_commit_barrier = commit
                    changed = True
                if changed and not agent._flush_scheduled:
                    agent._flush_scheduled = True
                    self.post_merged_at(now, agent._flush)

    def _link_drops(
        self, link: "Link", be: int, commit: int, sent_at: int, auth: int
    ) -> bool:
        """``Link._deliver``'s drop checks for a link that is not
        ``_clean``: the same draws from the same per-link streams the
        event-level path makes, in the same chronological order."""
        metrics_on = self._metrics.enabled
        if not link.up:
            link.dropped_down += 1
            if metrics_on:
                link._m_drop_down.add()
            return True
        if link._burst is not None and link._burst_drops():
            link.dropped_burst += 1
            if metrics_on:
                link._m_drop_burst.add()
            return True
        if link._rng is not None and link._rng.random() < link.loss_rate:
            link.dropped_corruption += 1
            if metrics_on:
                link._m_drop_corruption.add()
            return True
        if link._drop_filter is not None:
            # ``_deliver`` shows the filter a packet — so must we: the
            # beacon packet the emitter would have sent (host beacons
            # carry src_host, as Host.send_packet stamps it).
            probe = Packet(PacketKind.BEACON, barrier_ts=be, commit_ts=commit)
            if getattr(link.src, "uplink", None) is not None:
                probe.src_host = link.src.node_id
            probe.sent_at = sent_at
            probe.auth = auth
            if link._drop_filter(probe):
                link.dropped_corruption += 1
                if metrics_on:
                    link._m_drop_corruption.add()
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BeaconFabric virtual={self.virtual_beacons} "
            f"lockstep_waves={self.lockstep_waves}>"
        )
