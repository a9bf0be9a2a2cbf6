"""The six benchmark workloads and the tap that observes them from outside.

Every workload is ``build(seed, scale, tap) -> timed``: ``build`` is the
set-up (topology, routing, cluster, traffic schedule) and ``timed()`` is
the timed phase (run + drain + final checks/oracle), returning an
:class:`Outcome`.  Only public entry points of ``repro`` are used and no
fidelity flag is named: a workload runs what a user gets by default.

``scale`` stretches the traffic window (1.0 = the frozen benchmark size,
0.1 = ``--quick``); sizes were frozen so one timed phase is 1.0-2.5 s on
the 2-core box the benchmark was defined on (perf/README.md).
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional


# A Simulator.run(until=...) is cut into about this many slices of
# simulated time, none shorter than MIN_SLICE_NS (a few ms of host time).
SLICES_PER_RUN = 16
MIN_SLICE_NS = 50_000


def percentile(sorted_values: List[int], pct: float) -> int:
    """Nearest-rank (ceil) percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tap:
    """What the benchmark sees of a run, through three public entry
    points wrapped at class level: ``Simulator.run`` (events, simulated
    time, and a CPU-clock mark per slice of simulated time),
    ``OnePipeCluster.__init__`` (the clusters a workload builds, whose
    public counters are read after the run) and, with ``stamp_sends``,
    ``OnePipeEndpoint.{un,}reliable_send`` + ``on_recv`` (send→deliver
    latency in simulated ns, per-receiver order).  The wrappers neither
    schedule events nor draw randomness, so the simulated results are
    those of an untapped run."""

    def __init__(self) -> None:
        self.events = 0
        self.sim_ns = 0
        # CPU clock after every slice of simulated time: the timed phase
        # is cut there into segments that line up across reps.
        self.marks: List[float] = []
        self.clusters: List[Any] = []
        self.attempted = 0
        self.latencies: List[List[int]] = []      # one list per cluster
        self.order_violations = 0
        self._sent_at: Dict[tuple, int] = {}
        self._last_ts: Dict[tuple, int] = {}

    def install(self, stamp_sends: bool) -> None:
        from repro.onepipe import OnePipeCluster
        from repro.onepipe.api import OnePipeEndpoint
        from repro.sim import Simulator

        tap = self
        run = Simulator.run

        def tapped_run(sim, until=None, max_events=None):
            before = sim.now
            if until is None or max_events is not None or until <= before:
                processed = run(sim, until, max_events)
                tap.marks.append(time.process_time())
            else:
                # The same events in the same order, in slices of
                # simulated time with one CPU-clock mark each.  run()
                # pauses the collector for its duration; hold it across
                # the slices so they cost what the one call would.
                gc_was_enabled = gc.isenabled()
                gc.disable()
                slice_ns = max(MIN_SLICE_NS, (until - before) // SLICES_PER_RUN)
                try:
                    processed = 0
                    at = before
                    while at < until:
                        at = min(at + slice_ns, until)
                        processed += run(sim, at)
                        tap.marks.append(time.process_time())
                        if sim.now < at:      # stop() ended the run early
                            break
                finally:
                    if gc_was_enabled:
                        gc.enable()
            tap.events += processed
            tap.sim_ns += sim.now - before
            return processed

        Simulator.run = tapped_run

        init = OnePipeCluster.__init__

        def tapped_init(cluster, *args, **kwargs):
            init(cluster, *args, **kwargs)
            index = len(tap.clusters)
            tap.clusters.append(cluster)
            tap.latencies.append([])
            if stamp_sends:
                for endpoint in cluster.endpoints:
                    endpoint.on_recv(
                        partial(tap._delivered, cluster.sim, index,
                                endpoint.proc_id)
                    )

        OnePipeCluster.__init__ = tapped_init

        if not stamp_sends:
            return
        for name in ("unreliable_send", "reliable_send"):
            setattr(OnePipeEndpoint, name,
                    self._tapped_send(getattr(OnePipeEndpoint, name)))

    def _tapped_send(self, send):
        sent_at = self._sent_at

        def tapped_send(endpoint, entries):
            now = endpoint.sim.now
            src = endpoint.proc_id
            for entry in entries:
                sent_at[(src, entry[0], entry[1])] = now
            self.attempted += len(entries)
            return send(endpoint, entries)

        return tapped_send

    def _delivered(self, sim, cluster_index, dst, message) -> None:
        sent = self._sent_at.pop((message.src, dst, message.payload), None)
        if sent is None:
            # Delivered twice, or never sent: (src, payload) is unique.
            self.order_violations += 1
            return
        self.latencies[cluster_index].append(sim.now - sent)
        receiver = (cluster_index, dst)
        if message.ts < self._last_ts.get(receiver, 0):
            self.order_violations += 1
        self._last_ts[receiver] = message.ts

    # -- exact work counts read from public attributes ------------------
    def counts(self) -> Dict[str, int]:
        counts = {
            "onepipe.beacons_sent": 0,
            "net.link.drops": 0,
            "net.link.ecn_marked": 0,
            "onepipe.sender.retransmissions": 0,
            "onepipe.receiver.duplicates": 0,
            "onepipe.receiver.max_buffer_bytes": 0,
            "onepipe.receiver.discarded_on_failure": 0,
            "onepipe.controller.recoveries": 0,
        }
        for cluster in self.clusters:
            counts["onepipe.beacons_sent"] += cluster.total_beacons()
            for link in cluster.topology.links.values():
                counts["net.link.drops"] += (
                    link.dropped_overflow + link.dropped_corruption
                    + link.dropped_burst + link.dropped_down
                )
                counts["net.link.ecn_marked"] += link.ecn_marked
            for endpoint in cluster.endpoints:
                receiver = endpoint.receiver
                counts["onepipe.sender.retransmissions"] += (
                    endpoint.sender.retransmissions
                )
                counts["onepipe.receiver.duplicates"] += receiver.duplicates
                counts["onepipe.receiver.discarded_on_failure"] += (
                    receiver.discarded_on_failure
                )
                if receiver.max_buffer_bytes > counts[
                    "onepipe.receiver.max_buffer_bytes"
                ]:
                    counts["onepipe.receiver.max_buffer_bytes"] = (
                        receiver.max_buffer_bytes
                    )
            if cluster.controller is not None:
                counts["onepipe.controller.recoveries"] += len(
                    cluster.controller.recoveries
                )
        return counts


@dataclass
class Outcome:
    """Result of one timed phase, all in simulated quantities."""

    attempted: int
    delivered: int
    p50_ns: float
    tail_ns: float
    tail_samples: int                 # latency samples the tail is taken over
    checks: List[str] = field(default_factory=list)   # failed checks, named
    counts: Dict[str, int] = field(default_factory=dict)


def bucket_percentile(bounds, counts, max_value, pct: float) -> float:
    """Percentile of a fixed-bucket histogram (inclusive upper ``bounds``
    plus one overflow bucket), interpolated linearly inside the bucket
    and never beyond the largest observation."""
    rank = pct / 100.0 * sum(counts)
    seen = 0
    for i, count in enumerate(counts):
        if count and seen + count >= rank:
            lower = bounds[i - 1] if i else 0
            upper = min(bounds[i], max_value) if i < len(bounds) else max_value
            return lower + (upper - lower) * (rank - seen) / count
        seen += count
    raise ValueError("empty histogram")


def send(endpoint, entries, reliable: bool) -> None:
    if reliable:
        endpoint.reliable_send(entries)
    else:
        endpoint.unreliable_send(entries)


def _tap_outcome(tap: Tap, tail_pct: float) -> Outcome:
    """Outcome of a workload whose deliveries the tap stamped.

    Percentiles are taken per incarnation and combined by geometric
    mean: a campaign that cycles incarnations is a mixture of three
    latency scales (chip ~8 us, host_delegate ~17 us, switch_cpu ~40 us
    on the testbed), and a pooled percentile mostly says which
    incarnation lost senders to faults.  With one cluster this is the
    plain percentile."""
    by_mode: Dict[str, List[int]] = {}
    for cluster, latencies in zip(tap.clusters, tap.latencies):
        by_mode.setdefault(cluster.config.mode, []).extend(latencies)
    groups = [sorted(latencies) for latencies in by_mode.values()]

    def combined(pct: float) -> float:
        values = [percentile(group, pct) for group in groups]
        return math.prod(values) ** (1.0 / len(values))

    checks = []
    if tap.order_violations:
        checks.append(
            f"{tap.order_violations} per-receiver order/duplicate violations"
        )
    return Outcome(
        attempted=tap.attempted,
        delivered=sum(len(group) for group in groups),
        p50_ns=combined(50),
        tail_ns=combined(tail_pct),
        tail_samples=min(len(group) for group in groups),
        checks=checks,
    )


# ----------------------------------------------------------------------
# 1. bcast_data — the data plane does the work (Fig. 8 shape)
# ----------------------------------------------------------------------
def build_bcast_data(seed: int, scale: float, tap: Tap, tail_pct: float):
    from repro.onepipe import OnePipeCluster, OnePipeConfig
    from repro.sim import Simulator

    n = 32
    cpu_ns = 1_000
    window_ns = int(550_000 * scale)
    drain_ns = 500_000
    # Every receiver is offered 90 % of its 1/cpu_ns message capacity.
    interval = int(1e9 / (0.9 * (1e9 / cpu_ns) / n))

    sim = Simulator(seed=seed)
    cluster = OnePipeCluster(
        sim, n_processes=n, config=OnePipeConfig(cpu_ns_per_msg=cpu_ns)
    )
    sequence = [0]

    def broadcast(sender: int) -> None:
        sequence[0] += 1
        entries = [(d, sequence[0]) for d in range(n) if d != sender]
        send(cluster.endpoint(sender), entries, reliable=bool(sender % 2))

    tasks = [
        sim.every(interval, broadcast, sender, phase=sender * interval // n)
        for sender in range(n)
    ]

    def timed() -> Outcome:
        sim.run(until=window_ns)
        for task in tasks:
            task.cancel()
        sim.run(until=window_ns + drain_ns)
        return _tap_outcome(tap, tail_pct)

    return timed


# ----------------------------------------------------------------------
# 2. beacon_k8 — the control plane does the work (§4.3)
# ----------------------------------------------------------------------
def build_beacon_k8(seed: int, scale: float, tap: Tap, tail_pct: float):
    from repro.net.topology import TopologyParams, build_fat_tree
    from repro.onepipe import OnePipeCluster, OnePipeConfig
    from repro.sim import Simulator

    k = 8
    radix = k // 2
    params = TopologyParams(
        n_pods=k, tors_per_pod=radix, spines_per_pod=radix,
        n_cores=radix * radix, hosts_per_tor=radix,
    )
    n = params.n_hosts
    window_ns = int(800_000 * scale)
    drain_ns = 200_000

    sim = Simulator(seed=seed)
    topology = build_fat_tree(sim, params)
    cluster = OnePipeCluster(
        sim, n_processes=n, config=OnePipeConfig(mode="chip"),
        topology=topology,
    )
    # Light seeded scatter traffic, fifteen scatterings per 10 us on
    # average: the event population stays the periodic control plane
    # (beacons, clock sync, liveness).
    rng = random.Random(seed)

    def scatter(i: int, src: int, dst: int, reliable: bool) -> None:
        send(cluster.endpoint(src), [(dst, i)], reliable)

    for i in range(window_ns * 3 // 2_000):
        src = rng.randrange(n)
        dst = (src + 1 + rng.randrange(n - 1)) % n
        sim.schedule_at(
            rng.randrange(window_ns), scatter, i, src, dst, rng.random() < 0.5
        )

    def timed() -> Outcome:
        sim.run(until=window_ns + drain_ns)
        return _tap_outcome(tap, tail_pct)

    return timed


# ----------------------------------------------------------------------
# 3. congested_net — MTU packets, standing queues, ECN (Fig. 12a shape)
# ----------------------------------------------------------------------
def build_congested_net(seed: int, scale: float, tap: Tap, tail_pct: float):
    from repro.net import BackgroundFlow, build_testbed
    from repro.onepipe import OnePipeCluster, OnePipeConfig
    from repro.sim import Simulator

    n = 32
    active_hosts = 8
    flows_per_host = 10
    n_probes = max(120, int(300 * scale))
    probe_start_ns = 100_000
    probe_interval_ns = 2_000
    drain_ns = 400_000

    sim = Simulator(seed=seed)
    topology = build_testbed(sim)
    cluster = OnePipeCluster(
        sim, n_processes=n, config=OnePipeConfig(mode="host_delegate"),
        topology=topology,
    )
    for h in range(active_hosts):
        for _ in range(flows_per_host):
            # Cross-pod, so the flows congest the core.
            BackgroundFlow(
                sim, topology.host(h), topology.host(16 + h % 16)
            ).start()

    rng = random.Random(seed)

    def probe(k: int, src: int, dst: int) -> None:
        send(cluster.endpoint(src), [(dst, k)], reliable=bool(k % 2))

    for k in range(n_probes):
        # Cross-pod like the flows, from the hosts that carry them.
        sim.schedule_at(
            probe_start_ns + k * probe_interval_ns
            + rng.randrange(probe_interval_ns),
            probe, k, rng.randrange(active_hosts), 16 + rng.randrange(16),
        )
    end_ns = probe_start_ns + n_probes * probe_interval_ns + drain_ns

    def timed() -> Outcome:
        sim.run(until=end_ns)
        return _tap_outcome(tap, tail_pct)

    return timed


# ----------------------------------------------------------------------
# 4. chaos_faults — the control plane on the failure path
# ----------------------------------------------------------------------
# Campaign seeds 1..128 were run at the commit that defined the
# benchmark.  On these the repo's own InvariantMonitor reports
# violations there (reliable_exactly_once, failure_cutoff; 55 and 57
# also at CampaignRunner's default episode length), and a benchmark
# workload must be one on which no operation fails, so the seed fold
# skips them.  A fix that clears one removes it here in its own
# benchmark PR.
CHAOS_CAMPAIGN_SEEDS = 128
CHAOS_KNOWN_VIOLATING = frozenset({11, 19, 55, 57, 64, 74, 78, 83, 115})


def chaos_campaign_seed(seed: int) -> int:
    campaign = (seed - 1) % CHAOS_CAMPAIGN_SEEDS + 1
    while campaign in CHAOS_KNOWN_VIOLATING:
        campaign = campaign % CHAOS_CAMPAIGN_SEEDS + 1
    return campaign


def build_chaos_faults(seed: int, scale: float, tap: Tap, tail_pct: float):
    from repro.chaos import CampaignRunner

    episodes = 6                      # two per incarnation
    runner = CampaignRunner(
        seed=chaos_campaign_seed(seed),
        episodes=episodes,
        n_processes=16,
        horizon_ns=max(150_000, int(750_000 * scale)),
        drain_ns=max(400_000, int(1_250_000 * scale)),
        faults_per_episode=4,
    )

    def timed() -> Outcome:
        reports = [runner.run_episode(i) for i in range(episodes)]
        outcome = _tap_outcome(tap, tail_pct)
        # The monitor's own send/deliver accounting is the base, and its
        # verdicts, which know the failure semantics of §2.1, replace
        # the tap's plain order check.
        outcome.attempted = sum(r["messages_sent"] for r in reports)
        outcome.delivered = sum(r["messages_delivered"] for r in reports)
        outcome.checks = [
            f"episode {r['episode']} (seed {r['seed']}): {v['invariant']}"
            for r in reports for v in r["violations"]
        ]
        outcome.counts["chaos.faults_injected"] = sum(
            len(r["faults"]) for r in reports
        )
        return outcome

    return timed


# ----------------------------------------------------------------------
# 5. app_overload — open-loop arrivals through admission into the kvstore
# ----------------------------------------------------------------------
def build_app_overload(seed: int, scale: float, tap: Tap, tail_pct: float):
    from repro.workload.runner import run_scenario
    from repro.workload.scenarios import get_scenario

    scenario = get_scenario("hotspot").with_overrides(
        horizon_ns=max(200_000, int(2_400_000 * scale)),
    )

    def timed() -> Outcome:
        report = run_scenario(scenario, seed, jobs=1)
        totals = report["totals"]
        # The report's own quantiles are bucket upper bounds; fold the
        # shards' bucket counts and interpolate instead.
        lags = [s["tenants"]["hot"]["delivery_lag"] for s in report["shards"]]
        bounds = lags[0]["bounds"]
        counts = [sum(column) for column in zip(*(l["counts"] for l in lags))]
        max_lag = max(l["max"] for l in lags)
        checks = []
        if report["ordering"]["violations"] or not report["ordering"]["checked"]:
            checks.append(
                f"ordering audit: {report['ordering']['violations']} violations"
            )
        return Outcome(
            attempted=totals["arrivals"],
            delivered=totals["completed"],
            # Open loop: lag is measured from the arrival instant.
            p50_ns=bucket_percentile(bounds, counts, max_lag, 50),
            tail_ns=bucket_percentile(bounds, counts, max_lag, tail_pct),
            tail_samples=sum(counts),
            checks=checks,
            counts={
                "onepipe.admission.rejected": totals["rejected"],
                "onepipe.admission.deferred": totals["deferred"],
                "workload.retries": totals["retries"],
            },
        )

    return timed


# ----------------------------------------------------------------------
# 6. hyper_k32 — 10,240 modeled hosts on the hybrid tier
# ----------------------------------------------------------------------
def build_hyper_k32(seed: int, scale: float, tap: Tap, tail_pct: float):
    from repro.hybrid.engine import SCENARIOS, run_hyperscale

    scenario = replace(
        SCENARIOS["k32_hyper"],
        seed=seed,
        windows=max(60, int(150 * scale)),
        drain_ns=600_000,
        senders_per_round=3,
        # Not a multiple of the 3 us beacon interval, so sends sweep every
        # beacon phase instead of sampling two of them.
        send_interval_ns=4_700,
    )

    def timed() -> Outcome:
        report = run_hyperscale(scenario, workers=1)
        island = report["island"]
        outcome = _tap_outcome(tap, tail_pct)
        outcome.checks = []           # the §2.1 oracle is the checker here
        if island["oracle_divergences"]:
            outcome.checks.append(
                f"oracle: {island['oracle_divergences']} divergences"
            )
        # Skipped sends and oracle divergences are the failures here.
        outcome.attempted = island["sends_issued"] + island["sends_skipped"]
        outcome.delivered = (
            island["sends_issued"] - island["oracle_divergences"]
        )
        outcome.counts = {
            "hybrid.cross_shard_events": (
                report["fidelity"]["hybrid.cross_shard_events"]
            ),
            "hybrid.island_events": island["events_processed"],
        }
        return outcome

    return timed


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., Callable[[], Outcome]]
    # deliver_tail_sim_us percentile: the highest with >= 10 samples
    # beyond it at the frozen size.
    tail_pct: float
    # Benchmark-owned driver: the tap stamps sends and checks order.
    # (False only where payloads belong to an app and the report
    # carries the latency.)
    stamp_sends: bool = True


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bcast_data", build_bcast_data, 99.9),
        Workload("beacon_k8", build_beacon_k8, 99.0),
        Workload("congested_net", build_congested_net, 90.0),
        Workload("chaos_faults", build_chaos_faults, 50.0),
        Workload("app_overload", build_app_overload, 99.0, stamp_sends=False),
        Workload("hyper_k32", build_hyper_k32, 90.0),
    )
}
