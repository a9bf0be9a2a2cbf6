"""The highly available network controller (paper §5.2, §6.1).

The controller coordinates failure handling for reliable 1Pipe.  It is
reached over the management network — modelled as a fixed one-way delay
(``ctrl_delay_ns``) independent of the data plane, matching the paper's
assumption that production and management networks do not fail together.

The seven steps of §5.2:

1. **Detect** — switch engines report dead input links with the last
   commit barrier their register held.
2. **Determine** — after a short batching window (so the several link
   reports of one switch crash coalesce), graph analysis
   (:mod:`repro.onepipe.failure`) yields failed processes and failure
   timestamps.
3. **Broadcast** — every correct host agent is told ``(proc, ts)``.
4. **Discard** / 5. **Recall** / 6. **Callback** — performed by the host
   agents; each replies with a completion.
7. **Resume** — once all completions arrive, engines drop the dead links
   from the commit plane so commit barriers advance again.

State transitions (failure records, undeliverable recalls) go through a
pluggable replicator — :class:`LocalReplicator` commits immediately;
:class:`repro.consensus.raft.RaftReplicator` commits through a Raft
quorum, adding the consensus latency the paper's etcd-backed controller
would.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.routing import clear_routes, compute_routes
from repro.net.rpc import Directory
from repro.net.topology import Topology
from repro.obs.registry import GLOBAL_METRICS
from repro.onepipe.config import MODE_BFT, OnePipeConfig
from repro.onepipe.failure import DeadLinkReport, determine, equivocal_reports
from repro.sim import Simulator
from repro.sim.trace import GLOBAL_TRACER


class LocalReplicator:
    """Trivial replicator: commits every proposal immediately."""

    def propose(self, _entry: Any, on_commit: Callable[[], None]) -> None:
        on_commit()


class RecoveryRecord:
    """One completed failure-handling episode (benchmark material)."""

    __slots__ = (
        "first_report_time",
        "determine_time",
        "resume_time",
        "failed_procs",
        "dead_links",
    )

    def __init__(self, first_report_time: int) -> None:
        self.first_report_time = first_report_time
        self.determine_time: Optional[int] = None
        self.resume_time: Optional[int] = None
        self.failed_procs: List[Tuple[int, int]] = []
        self.dead_links: List[str] = []

    @property
    def duration_ns(self) -> int:
        if self.resume_time is None:
            raise ValueError("recovery episode not finished")
        return self.resume_time - self.first_report_time


class Controller:
    """Replicated SDN controller coordinating 1Pipe failure handling."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: OnePipeConfig,
        directory: Directory,
        replicator: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config
        self.directory = directory
        self._tracer = getattr(sim, "tracer", None) or GLOBAL_TRACER
        metrics = getattr(sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_reports = metrics.counter("controller.dead_link_reports")
        self._m_recoveries = metrics.counter("controller.recoveries")
        self._m_forwards = metrics.counter("controller.forwarded_messages")
        # Detect→Resume latency of completed episodes (§5.2, Fig. 10).
        self._m_recovery_ns = metrics.histogram("controller.recovery_ns")
        self.replicator = replicator if replicator is not None else LocalReplicator()
        # Wired by the cluster after construction.
        self.agents: Dict[str, Any] = {}     # host_id -> HostAgent
        self.engines: Dict[str, Any] = {}    # switch_id -> ordering engine
        self.proc_endpoints: Dict[int, Any] = {}  # proc -> OnePipeEndpoint

        self._roots = [
            node_id for node_id in topology.switches if node_id.startswith("core")
        ]
        if not self._roots:
            # Single-rack test topologies: attach at the spine/ToR tops.
            self._roots = [
                node_id
                for node_id in topology.switches
                if node_id.endswith(".up")
            ]
        self._reports: List[DeadLinkReport] = []
        self._report_engines: Dict[Link, Any] = {}
        self._all_dead_links: Set[Link] = set()
        self._episode: Optional[RecoveryRecord] = None
        self._batch_timer = None
        self.failed_procs: Dict[int, int] = {}  # proc -> failure ts
        self.failed_hosts: Set[str] = set()
        self.undeliverable_recalls: Dict[int, List[Tuple[int, int]]] = {}
        self.recoveries: List[RecoveryRecord] = []
        self.forwarded_messages = 0
        # --- BFT hardening (MODE_BFT only; docs/BYZANTINE.md) ----------
        self._bft = config.mode == MODE_BFT
        self._keys = None
        if self._bft:
            from repro.byz.keys import get_key_registry

            self._keys = get_key_registry(sim)
        # Per-(reporter, link) sequence numbers: next to issue on the
        # listener side, highest accepted on the verify side.  Fresh
        # sequence + valid MAC is what makes replayed notices inert.
        self._report_seq_issue: Dict[Tuple[str, str], int] = {}
        self._report_seq_seen: Dict[Tuple[str, str], int] = {}
        self.reports_rejected = 0
        self.equivocal_report_count = 0
        # Accusations (time, accuser, suspect, detail) and the evictions
        # they caused (time, proc, detail) — the Byzantine monitor reads
        # these to bound detection latency.
        self.accusations: List[Tuple[int, Any, Any, str]] = []
        self.evictions: List[Tuple[int, int, str]] = []
        self._demoted_components: Set[str] = set()
        self._m_byz_notices = None   # registered on first rejection
        self._m_byz_accusations = None
        self._m_byz_evictions = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_agent(self, agent) -> None:
        self.agents[agent.host.node_id] = agent

    def register_engine(self, switch_id: str, engine) -> None:
        self.engines[switch_id] = engine

    def register_endpoint(self, endpoint) -> None:
        self.proc_endpoints[endpoint.proc_id] = endpoint

    def make_failure_listener(self):
        """The callback installed on every ordering engine."""

        def listener(switch_id: str, link: Link, last_commit: int) -> None:
            if self._bft:
                # The reporter authenticates its notice: MAC over the
                # report fields plus a per-(reporter, link) sequence
                # number, so a forged or replayed notice fails admission
                # in _receive_report.
                from repro.byz.keys import mac

                seq_key = (switch_id, link.name)
                seq = self._report_seq_issue.get(seq_key, 0) + 1
                self._report_seq_issue[seq_key] = seq
                report = DeadLinkReport(
                    switch_id, link, last_commit,
                    auth=mac(
                        self._keys.key_of(switch_id), link.name,
                        last_commit, seq,
                    ),
                    seq=seq,
                )
            else:
                report = DeadLinkReport(switch_id, link, last_commit)
            # Detect-step report travels over the management network.
            self.sim.schedule(
                self.config.ctrl_delay_ns, self._receive_report, report
            )

        return listener

    def make_accusation_listener(self):
        """Callback BFT switch engines use to accuse a misbehaving peer:
        a beacon emitter (plain node id) or an attached sender process
        (a ``("proc", proc_id)`` suspect)."""

        def listener(accuser_id: str, suspect, detail: str) -> None:
            if isinstance(suspect, tuple) and suspect[0] == "proc":
                self.accuse_process(accuser_id, suspect[1], detail)
            else:
                self.accuse_component(accuser_id, suspect, detail)

        return listener

    def receive_external_report(self, report: DeadLinkReport) -> None:
        """Entry point for reports not produced by a registered engine
        (the chaos layer's forged-notice adversary injects here)."""
        self.sim.schedule(self.config.ctrl_delay_ns, self._receive_report, report)

    # ------------------------------------------------------------------
    # Detect / Determine
    # ------------------------------------------------------------------
    def _receive_report(self, report: DeadLinkReport) -> None:
        if self._bft and not self._admit_report(report):
            return
        if self._episode is None:
            self._episode = RecoveryRecord(self.sim.now)
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, "controller", "dead_link_report",
                reporter=report.reporter, link=report.link.name,
                last_commit=report.last_commit,
            )
        if self._metrics.enabled:
            self._m_reports.add()
        self._reports.append(report)
        self._report_engines[report.link] = self.engines.get(report.reporter)
        self._episode.dead_links.append(report.link.name)
        if self._batch_timer is None:
            # Batch briefly so the many reports of one switch crash (one
            # per neighbor) are handled as a single episode.
            window = 2 * self.config.beacon_interval_ns
            self._batch_timer = self.sim.schedule(window, self._determine)

    def _admit_report(self, report: DeadLinkReport) -> bool:
        """MODE_BFT: drop dead-link notices that are forged (bad MAC) or
        replayed (stale sequence number).  Honest engines stamp both in
        :meth:`make_failure_listener`; an adversary holds no switch key,
        so it can neither mint a fresh notice nor re-submit an old one."""
        from repro.byz.keys import mac

        expected = mac(
            self._keys.key_of(report.reporter),
            report.link.name,
            report.last_commit,
            report.seq,
        )
        seq_key = (report.reporter, report.link.name)
        last_seen = self._report_seq_seen.get(seq_key, 0)
        if report.auth != expected or report.seq <= last_seen:
            reason = "forged" if report.auth != expected else "replayed"
            self.reports_rejected += 1
            if self._metrics.enabled:
                if self._m_byz_notices is None:
                    self._m_byz_notices = self._metrics.counter(
                        "byz.notices_rejected"
                    )
                self._m_byz_notices.add()
            if self._tracer.enabled:
                self._tracer.trace(
                    self.sim.now, "controller", "notice_rejected",
                    reporter=report.reporter, link=report.link.name,
                    reason=reason,
                )
            return False
        self._report_seq_seen[seq_key] = report.seq
        return True

    def _determine(self) -> None:
        self._batch_timer = None
        episode = self._episode
        episode.determine_time = self.sim.now
        if self._bft:
            # Cross-check the batch: two notices naming the same link
            # with different cut timestamps means some reporter lied.
            # determine() already takes the conservative max, so the
            # disagreement cannot under-report — but it is evidence.
            contested = equivocal_reports(self._reports)
            if contested:
                self.equivocal_report_count += len(contested)
                if self._tracer.enabled:
                    for link, reports in sorted(
                        contested.items(), key=lambda kv: kv[0].name
                    ):
                        self._tracer.trace(
                            self.sim.now, "controller", "equivocal_reports",
                            link=link.name,
                            reporters=tuple(r.reporter for r in reports),
                        )
        host_ids = [host.node_id for host in self.topology.hosts]
        failed_hosts, host_ts = determine(
            self.topology, self._reports, self._roots, host_ids
        )
        new_failures: List[Tuple[int, int]] = []
        for host_id in failed_hosts:
            if host_id in self.failed_hosts:
                continue
            self.failed_hosts.add(host_id)
            agent = self.agents.get(host_id)
            if agent is None:
                continue
            for proc_id in agent.endpoints:
                failure_ts = host_ts[host_id]
                self.failed_procs[proc_id] = failure_ts
                new_failures.append((proc_id, failure_ts))
        episode.failed_procs = list(new_failures)
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, "controller", "determine",
                failed_procs=tuple(new_failures),
                dead_links=tuple(sorted(episode.dead_links)),
            )

        def _committed() -> None:
            if new_failures:
                self._broadcast(new_failures)
            else:
                # No process failed (core link/switch): straight to Resume.
                self._resume()

        self.replicator.propose(("failures", tuple(new_failures)), _committed)

    # ------------------------------------------------------------------
    # Broadcast / completions / Resume
    # ------------------------------------------------------------------
    def _broadcast(self, failures: List[Tuple[int, int]]) -> None:
        correct_agents = [
            agent
            for host_id, agent in self.agents.items()
            if host_id not in self.failed_hosts and not agent.host.failed
        ]
        remaining = [len(correct_agents)]
        if not correct_agents:
            self._resume()
            return

        def _one_done(_future) -> None:
            # Completion message back over the management network.
            self.sim.schedule(self.config.ctrl_delay_ns, _count)

        def _count() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self._resume()

        # The controller contacts processes one after another (its CPU
        # serializes), which is why the paper's recovery delay grows
        # with system scale (§7.2: 3..15 us per host).
        per_host_cost = 2_000
        for index, agent in enumerate(correct_agents):
            self.sim.schedule(
                self.config.ctrl_delay_ns + index * per_host_cost,
                lambda a=agent: a.on_proc_failures(failures).add_callback(
                    _one_done
                ),
            )

    def _resume(self) -> None:
        episode = self._episode
        if episode is None:
            # Two report batches can race to Resume: when fresh reports
            # arrive while a Broadcast is still in flight, both the
            # broadcast's completion path and the new batch's Determine
            # call _resume; whichever runs first handles every
            # accumulated report and clears the episode.
            return
        for report in self._reports:
            engine = self._report_engines.get(report.link)
            if engine is not None:
                self.sim.schedule(
                    self.config.ctrl_delay_ns,
                    engine.remove_commit_link,
                    report.link,
                )
        # Reconfigure routing tables around the dead links (the SDN
        # controller's job, §3.1), so retransmissions take live paths.
        self._all_dead_links.update(report.link for report in self._reports)
        self.sim.schedule(self.config.ctrl_delay_ns, self._reroute)
        episode.resume_time = self.sim.now + self.config.ctrl_delay_ns
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, "controller", "resume",
                dead_links=len(self._reports),
                failed_procs=tuple(p for p, _ts in episode.failed_procs),
            )
        self.recoveries.append(episode)
        if self._metrics.enabled:
            self._m_recoveries.add()
            self._m_recovery_ns.observe(episode.duration_ns)
        self._episode = None
        self._reports = []
        self._report_engines = {}

    def _reroute(self) -> None:
        clear_routes(self.topology)
        alive_hosts = [
            host
            for host in self.topology.hosts
            if host.node_id not in self.failed_hosts
        ]
        compute_routes(
            self.topology, alive_hosts, exclude_links=self._all_dead_links
        )

    # ------------------------------------------------------------------
    # Byzantine accusations (MODE_BFT; docs/BYZANTINE.md)
    # ------------------------------------------------------------------
    def accuse_process(self, accuser_proc: int, suspect_proc: int, detail: str) -> None:
        """A receiver caught a sender misbehaving (timestamp regression,
        bad payload MAC).  Travels over the management network."""
        self.sim.schedule(
            self.config.ctrl_delay_ns,
            self._handle_proc_accusation,
            accuser_proc,
            suspect_proc,
            detail,
        )

    def accuse_component(self, accuser_id: str, suspect_id: str, detail: str) -> None:
        """A switch engine or host agent caught a beacon emitter lying
        (bad beacon MAC)."""
        self.sim.schedule(
            self.config.ctrl_delay_ns,
            self._handle_component_accusation,
            accuser_id,
            suspect_id,
            detail,
        )

    def _record_accusation(self, accuser, suspect, detail: str) -> None:
        self.accusations.append((self.sim.now, accuser, suspect, detail))
        if self._metrics.enabled:
            if self._m_byz_accusations is None:
                self._m_byz_accusations = self._metrics.counter("byz.accusations")
            self._m_byz_accusations.add()
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, "controller", "accusation",
                accuser=accuser, suspect=suspect, detail=detail,
            )

    def _handle_proc_accusation(
        self, accuser_proc: int, suspect_proc: int, detail: str
    ) -> None:
        self._record_accusation(accuser_proc, suspect_proc, detail)
        if suspect_proc in self.failed_procs:
            return
        try:
            host_id = self.directory.host_of(suspect_proc)
        except KeyError:
            return
        if host_id in self.failed_hosts:
            return
        agent = self.agents.get(host_id)
        if agent is None:
            return
        # Evict the whole host (the paper's failure unit): every process
        # on it is marked failed at the accusation-time clock, which is
        # conservative — only messages the adversary stamps *after* its
        # eviction fall above the cutoff.  The cutoff lives in the
        # *message-timestamp* domain (host clocks read epoch + true
        # time, modulo bounded skew), not raw simulator time: receivers
        # compare it against egress timestamps.
        clock_sync = getattr(self.topology, "clock_sync", None)
        epoch_ns = clock_sync.epoch_ns if clock_sync is not None else 0
        failure_ts = epoch_ns + self.sim.now
        self.failed_hosts.add(host_id)
        new_failures: List[Tuple[int, int]] = []
        for proc_id in agent.endpoints:
            if proc_id in self.failed_procs:
                continue
            self.failed_procs[proc_id] = failure_ts
            new_failures.append((proc_id, failure_ts))
            self.evictions.append((self.sim.now, proc_id, detail))
        if self._metrics.enabled and new_failures:
            if self._m_byz_evictions is None:
                self._m_byz_evictions = self._metrics.counter("byz.evictions")
            self._m_byz_evictions.add(len(new_failures))
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, "controller", "eviction",
                host=host_id, procs=tuple(p for p, _ts in new_failures),
                detail=detail,
            )
        # Graceful degradation: demote the evicted host's uplinks so its
        # (possibly lying) barrier promises stop holding back the cluster
        # commit minimum.  demote_link parks the register as pending; the
        # lying promise sits below the minimum forever, so it never
        # re-promotes, and the commit barrier advances without it.
        self._demote_component_links(host_id)

        def _committed() -> None:
            self._broadcast_eviction(new_failures)

        self.replicator.propose(
            ("accusation", host_id, tuple(new_failures)), _committed
        )

    def _handle_component_accusation(
        self, accuser_id: str, suspect_id: str, detail: str
    ) -> None:
        self._record_accusation(accuser_id, suspect_id, detail)
        if suspect_id in self._demoted_components:
            return
        self._demoted_components.add(suspect_id)
        self._demote_component_links(suspect_id)

    def _demote_component_links(self, node_id: str) -> None:
        """Demote every barrier register fed by ``node_id`` in both the
        best-effort and commit planes of every engine that holds one."""
        for engine in self.engines.values():
            for link in list(getattr(engine, "_last_rx", {})):
                if link.src.node_id != node_id:
                    continue
                # Pending registers form below: drop the engine off the
                # analytic fabric's inlined fast path.
                engine._fp = False
                for barrier in (engine.be, engine.commit):
                    if barrier.has_link(link):
                        barrier.demote_link(link)
            # The minima may have risen now that the demoted registers no
            # longer count; relay the new floor downstream.
            engine._maybe_cascade()

    def _broadcast_eviction(self, failures: List[Tuple[int, int]]) -> None:
        """Fan the eviction out like a §5.2 Broadcast, but on a dedicated
        completion path: unlike _broadcast, this never calls _resume, so
        an accusation landing mid-episode cannot prematurely resume an
        in-flight fail-stop recovery."""
        if not failures:
            return
        correct_agents = [
            agent
            for host_id, agent in self.agents.items()
            if host_id not in self.failed_hosts and not agent.host.failed
        ]
        per_host_cost = 2_000
        for index, agent in enumerate(correct_agents):
            self.sim.schedule(
                self.config.ctrl_delay_ns + index * per_host_cost,
                lambda a=agent: a.on_proc_failures(failures),
            )

    # ------------------------------------------------------------------
    # Controller forwarding (§5.2)
    # ------------------------------------------------------------------
    def forward_message(self, sender, msg) -> None:
        """Sender exhausted retransmissions: deliver via the controller."""
        self.sim.schedule(self.config.ctrl_delay_ns, self._forward, sender, msg)

    def _forward(self, sender, msg) -> None:
        self.forwarded_messages += 1
        if self._metrics.enabled:
            self._m_forwards.add()
        if self._tracer.enabled:
            self._tracer.trace(
                self.sim.now, "controller", "forward",
                src=sender.proc_id, dst=msg.dst, msg_id=msg.msg_id,
                ts=msg.ts,
            )
        target = self.proc_endpoints.get(msg.dst)
        target_failed = (
            msg.dst in self.failed_procs
            or target is None
            or target.agent.host.failed
        )
        if target_failed:
            # The receiver is gone: the normal failure procedure (possibly
            # already in flight) recalls the scattering; nothing to do.
            return
        packet = Packet(
            PacketKind.RDATA if msg.reliable else PacketKind.DATA,
            src=sender.proc_id,
            dst=msg.dst,
            src_host=sender.agent.host.node_id,
            dst_host=msg.dst_host,
            msg_ts=msg.ts if msg.ts is not None else 0,
            psn=0,
            msg_id=msg.msg_id,
            last_frag=True,
            payload_bytes=msg.size,
            payload=msg.payload,
            meta={"n_frags": 1},
        )
        if self._bft:
            # Forwarded packets are rebuilt here, so the sender's payload
            # MAC must be re-stamped or _bft_admit would reject them.
            # The controller is trusted and holds the key registry.
            from repro.byz.keys import mac, proc_key_id

            packet.auth = mac(
                self._keys.key_of(proc_key_id(sender.proc_id)),
                msg.msg_id,
                repr(msg.payload),
            )
        target.receiver.on_data_packet(packet)
        # ACK back to the sender via the controller.
        self.sim.schedule(
            self.config.ctrl_delay_ns, sender.on_ack, msg.msg_id, False
        )

    def forward_recall(self, endpoint, msg) -> None:
        """Recall could not reach its receiver directly."""
        self.sim.schedule(
            self.config.ctrl_delay_ns, self._forward_recall, endpoint, msg
        )

    def _forward_recall(self, endpoint, msg) -> None:
        target = self.proc_endpoints.get(msg.dst)
        if (
            msg.dst in self.failed_procs
            or target is None
            or target.agent.host.failed
        ):
            # Record for the receiver's eventual recovery (§5.2 Receiver
            # Recovery), then confirm the recall so the sender unblocks.
            def _committed() -> None:
                self.undeliverable_recalls.setdefault(msg.dst, []).append(
                    (endpoint.proc_id, msg.msg_id)
                )
                self.sim.schedule(
                    self.config.ctrl_delay_ns,
                    endpoint.confirm_recall,
                    msg.msg_id,
                )

            self.replicator.propose(
                ("recall", msg.dst, endpoint.proc_id, msg.msg_id), _committed
            )
            return
        target.receiver.discard_message(endpoint.proc_id, msg.msg_id)
        self.sim.schedule(
            self.config.ctrl_delay_ns, endpoint.confirm_recall, msg.msg_id
        )

    # ------------------------------------------------------------------
    # Receiver recovery (§5.2)
    # ------------------------------------------------------------------
    def reinstate_host(self, host_id: str) -> None:
        """Re-admit a recovered host: restore its routes so processes
        re-joining on it (with fresh ids) are reachable again.  Its old
        process ids stay failed forever, per the paper."""
        self.failed_hosts.discard(host_id)
        host = self.topology.host_by_id(host_id)
        stale = {
            link
            for link in self._all_dead_links
            if link.src is host or link.dst is host
        }
        self._all_dead_links -= stale
        self.sim.schedule(self.config.ctrl_delay_ns, self._reroute)

    def recovery_info(self, proc_id: int) -> Tuple[List[Tuple[int, int]], List]:
        """Failure notifications and undeliverable recalls a recovering
        process must apply before delivering its buffered messages."""
        failures = sorted(self.failed_procs.items())
        recalls = list(self.undeliverable_recalls.get(proc_id, []))
        return failures, recalls
