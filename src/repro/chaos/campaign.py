"""Seeded chaos campaigns over the 1Pipe cluster.

A campaign is N independent *episodes*.  Episode ``i`` builds a fresh
simulator from the deterministic seed ``episode_seed(seed, i)``,
brings up a full testbed cluster in incarnation ``MODES[i % 3]``,
attaches an :class:`~repro.chaos.monitor.InvariantMonitor`, arms a
seeded :class:`~repro.chaos.schedule.ChaosSchedule`, and drives random
scatter traffic through the fault window plus a drain period.  At the
end the monitor's final checks run and the episode's outcome (faults,
violations, delivery/recovery statistics) is folded into a JSON report.

Everything is derived from named :meth:`Simulator.rng` streams, so a
campaign report is a pure function of ``(seed, episodes, knobs)`` —
running the same command twice produces byte-identical JSON, and any
violation can be replayed from the episode seed it names.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.chaos.monitor import InvariantMonitor
from repro.chaos.schedule import ChaosInjector, ChaosSchedule
from repro.consensus.raft import RaftGroup, RaftReplicator
from repro.net.topology import build_episode_topology
from repro.obs.export import metrics_summary
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.onepipe.config import MODES
from repro.parallel import run_ordered
from repro.sim import Simulator
from repro.sim.randomness import episode_seed

RAFT_ELECTION_WARMUP_NS = 2_000_000


class TrafficDriver:
    """Deterministic random scatter traffic from a named rng stream.

    Every ``interval_ns`` a few live processes each send one scattering
    (reliable or best-effort, coin-flipped) to distinct destinations.
    Down processes (:meth:`OnePipeCluster.down_procs`) stop sending —
    the failure callback kills the real application too (§5.2
    Callback).  Payloads embed (episode, sender, sequence, destination)
    so they are globally unique.
    """

    def __init__(
        self,
        cluster,
        rng,
        episode: int,
        start_ns: int,
        stop_ns: int,
        interval_ns: int = 25_000,
        senders_per_round: int = 3,
        max_fanout: int = 3,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.rng = rng
        self.episode = episode
        self.stop_ns = stop_ns
        self.interval_ns = interval_ns
        self.senders_per_round = senders_per_round
        self.max_fanout = max_fanout
        self._seq = 0
        self.scatterings_sent = 0
        self.sim.schedule_at(start_ns, self._round)

    def _round(self) -> None:
        if self.sim.now >= self.stop_ns:
            return
        cluster = self.cluster
        n = cluster.n_processes
        down = cluster.down_procs()
        alive = [i for i in range(n) if i not in down]
        senders = self.rng.sample(
            alive, min(self.senders_per_round, len(alive))
        )
        for src in senders:
            fanout = self.rng.randint(2, self.max_fanout)
            peers = [d for d in range(n) if d != src]
            dsts = self.rng.sample(peers, min(fanout, len(peers)))
            self._seq += 1
            entries = [
                (dst, f"e{self.episode}.p{src}.q{self._seq}.d{dst}")
                for dst in dsts
            ]
            endpoint = cluster.endpoint(src)
            if self.rng.random() < 0.5:
                endpoint.reliable_send(entries)
            else:
                endpoint.unreliable_send(entries)
            self.scatterings_sent += 1
        self.sim.schedule(self.interval_ns, self._round)


class CampaignRunner:
    """Run a seeded chaos campaign and produce a deterministic report."""

    def __init__(
        self,
        seed: int,
        episodes: int,
        modes: Sequence[str] = MODES,
        n_processes: int = 16,
        horizon_ns: int = 1_500_000,
        drain_ns: int = 2_500_000,
        faults_per_episode: int = 4,
        use_raft: bool = False,
        metrics: bool = False,
        adversarial: bool = False,
        jobs: int = 1,
        progress=None,
    ) -> None:
        self.seed = seed
        self.episodes = episodes
        self.modes = tuple(modes)
        self.n_processes = n_processes
        self.horizon_ns = horizon_ns
        self.drain_ns = drain_ns
        self.faults_per_episode = faults_per_episode
        self.use_raft = use_raft
        self.metrics = metrics
        self.adversarial = adversarial
        self.jobs = jobs
        self.progress = progress

    # ------------------------------------------------------------------
    def run_episode(self, index: int) -> Dict[str, Any]:
        seed = episode_seed(self.seed, index)
        mode = self.modes[index % len(self.modes)]
        sim = Simulator(seed=seed)
        if self.metrics:
            # Enable in place before any component is built (components
            # cache the registry object at construction time).
            sim.metrics.enabled = True

        raft_group = None
        replicator = None
        if self.use_raft:
            raft_group = RaftGroup(sim, n_nodes=3)
            sim.run(until=RAFT_ELECTION_WARMUP_NS)
            replicator = RaftReplicator(raft_group)

        topology = build_episode_topology(sim, "testbed")
        cluster = OnePipeCluster(
            sim,
            n_processes=self.n_processes,
            config=OnePipeConfig(mode=mode),
            topology=topology,
            replicator=replicator,
        )
        if self.adversarial:
            from repro.byz.monitor import ByzantineMonitor

            monitor = ByzantineMonitor(
                cluster, seed=seed, episode=index, mode=mode
            )
        else:
            monitor = InvariantMonitor(
                cluster, seed=seed, episode=index, mode=mode
            )
        schedule = ChaosSchedule.generate(
            sim.rng(f"chaos.schedule.{index}"),
            topology,
            self.horizon_ns,
            n_faults=self.faults_per_episode,
            allow_partition=self.use_raft,
            adversarial=self.adversarial,
        )
        if self.adversarial:
            monitor.set_schedule(schedule)
        injector = ChaosInjector(cluster, raft_group=raft_group)
        injector.apply(schedule)
        TrafficDriver(
            cluster,
            sim.rng(f"chaos.traffic.{index}"),
            episode=index,
            start_ns=sim.now + 100_000,
            stop_ns=sim.now + self.horizon_ns,
        )
        sim.run(until=sim.now + self.horizon_ns + self.drain_ns)
        monitor.final_check()
        return self._episode_report(
            index, mode, seed, cluster, monitor, schedule
        )

    def _episode_report(
        self, index, mode, seed, cluster, monitor, schedule
    ) -> Dict[str, Any]:
        topology = cluster.topology
        controller = cluster.controller
        receivers = [
            cluster.endpoint(i).receiver
            for i in range(cluster.n_processes)
        ]
        recoveries: List[Dict[str, Any]] = []
        failed_procs: List[List[int]] = []
        if controller is not None:
            failed_procs = [
                [proc, ts] for proc, ts in sorted(controller.failed_procs.items())
            ]
            for record in controller.recoveries:
                detect = (
                    record.determine_time - record.first_report_time
                    if record.determine_time is not None else None
                )
                total = (
                    record.resume_time - record.first_report_time
                    if record.resume_time is not None else None
                )
                recoveries.append({
                    "detection_ns": detect,
                    "recovery_ns": total,
                    "failed_procs": sorted(p for p, _ts in record.failed_procs),
                    "dead_links": len(record.dead_links),
                })
        report: Dict[str, Any] = {
            "episode": index,
            "mode": mode,
            "seed": seed,
            "faults": schedule.to_list(),
            "violations": [v.to_dict() for v in monitor.violations],
            "scatterings_sent": monitor.total_sent_scatterings,
            "messages_sent": monitor.total_sent_messages,
            "messages_delivered": monitor.total_delivered(),
            "discarded_on_failure": sum(
                r.discarded_on_failure for r in receivers
            ),
            "duplicates_suppressed": sum(r.duplicates for r in receivers),
            "failed_procs": failed_procs,
            "recoveries": recoveries,
            "forwarded_messages": (
                controller.forwarded_messages if controller else 0
            ),
            "burst_drops": sum(
                link.dropped_burst for link in topology.links.values()
            ),
            "clock": {
                "outages": topology.clock_sync.sync_outages,
                "steps": topology.clock_sync.clock_steps,
                "syncs_skipped": topology.clock_sync.syncs_skipped,
            },
        }
        if self.adversarial:
            # Only stamped when the adversarial mix is on, so default
            # campaign reports stay byte-identical.
            report["adversaries"] = monitor.adversary_summary()
            report["byz"] = {
                "accusations": (
                    len(controller.accusations) if controller else 0
                ),
                "evictions": len(controller.evictions) if controller else 0,
                "notices_rejected": (
                    controller.reports_rejected if controller else 0
                ),
                "beacons_rejected": sum(
                    getattr(agent, "beacons_rejected", 0)
                    for agent in cluster.agents.values()
                ) + sum(
                    getattr(engine, "beacons_rejected", 0)
                    for engine in cluster.engines.values()
                ),
                "receiver_rejections": sum(
                    getattr(r, "byz_rejected", 0) for r in receivers
                ),
            }
        if self.metrics:
            report["metrics"] = metrics_summary(cluster.sim.metrics)
        return report

    def _knobs(self) -> Dict[str, Any]:
        """The picklable constructor arguments a worker rebuilds from.

        ``progress`` is deliberately excluded (callables don't cross the
        process boundary; the parent replays progress in merge order)
        and ``jobs`` too (a worker runs its episodes inline).
        """
        return {
            "seed": self.seed,
            "episodes": self.episodes,
            "modes": self.modes,
            "n_processes": self.n_processes,
            "horizon_ns": self.horizon_ns,
            "drain_ns": self.drain_ns,
            "faults_per_episode": self.faults_per_episode,
            "use_raft": self.use_raft,
            "metrics": self.metrics,
            "adversarial": self.adversarial,
        }

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Run the campaign; with ``jobs > 1`` episodes fan out over a
        process pool.  The report is byte-identical for every job count:
        each episode is a pure function of its episode seed, and reports
        merge in episode order (the job count never enters the JSON)."""
        payloads = [(self._knobs(), index) for index in range(self.episodes)]
        episode_reports = run_ordered(
            _episode_worker, payloads, jobs=self.jobs, progress=self.progress
        )
        by_invariant: Dict[str, int] = {}
        for report in episode_reports:
            for violation in report["violations"]:
                name = violation["invariant"]
                by_invariant[name] = by_invariant.get(name, 0) + 1
        total_violations = sum(by_invariant.values())
        campaign_report: Dict[str, Any] = {
            "campaign": {
                "seed": self.seed,
                "episodes": self.episodes,
                "modes": list(self.modes),
                "n_processes": self.n_processes,
                "horizon_ns": self.horizon_ns,
                "drain_ns": self.drain_ns,
                "faults_per_episode": self.faults_per_episode,
                "use_raft": self.use_raft,
                "metrics": self.metrics,
            },
            "episode_reports": episode_reports,
            "total_violations": total_violations,
            # "adversarial" is added below only when True, keeping the
            # default report byte-identical to pre-adversarial builds.
            "violations_by_invariant": by_invariant,
            "messages_delivered": sum(
                r["messages_delivered"] for r in episode_reports
            ),
            "messages_sent": sum(r["messages_sent"] for r in episode_reports),
            "ok": total_violations == 0,
        }
        if self.adversarial:
            campaign_report["campaign"]["adversarial"] = True
        if self.metrics:
            totals: Dict[str, int] = {}
            for report in episode_reports:
                for name, value in report["metrics"]["counters"].items():
                    totals[name] = totals.get(name, 0) + value
            campaign_report["metrics_totals"] = {
                "counters": dict(sorted(totals.items()))
            }
        return campaign_report


def _episode_worker(payload) -> Dict[str, Any]:
    """Run one episode from explicit knobs (module-level so it pickles)."""
    knobs, index = payload
    return CampaignRunner(**knobs).run_episode(index)
