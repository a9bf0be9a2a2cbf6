"""Hyperscale scenario driver: cold fabric + hot island + §2.1 oracle.

One :class:`HyperscaleScenario` run proceeds in passes to a fidelity
fixed point:

1. Build the :class:`repro.hybrid.fidelity.FidelityMap`: the first
   ``hot_pods`` pods are hot (they host the watched endpoints), plus
   every pod a fault target touches.
2. Run the cold fabric (:mod:`repro.hybrid.fabric`) over the cold pods
   with :func:`repro.parallel.run_sharded` — the single-run
   space-sharded path whose outputs are byte-identical for every
   ``workers`` value.  If any cold pod reports backpressure, promote it
   and re-run (bounded passes; promotion is monotone so this
   terminates).
3. Build the hot island — a real packet-level
   :class:`repro.onepipe.OnePipeCluster` over exactly the hot pods —
   couple the cold fabric's per-window core congestion onto the
   island's core links as a degradation schedule,
   drive seeded watched traffic, and extract the delivery observation.
4. Check the §2.1 :class:`repro.verify.oracle.ReferenceOracle` on the
   hybrid delivery trace and assemble the deterministic
   ``repro.hybrid/1`` report.

With *every* pod hot the cold fabric is empty and step 3 is a plain
packet-level run of the full topology — that structural identity is
what the all-hot byte-identity test pins (``tests/hybrid/test_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.hybrid.fabric import ColdFabricConfig, run_cold_fabric, summarize_cold
from repro.hybrid.fidelity import FidelityMap
from repro.net.topology import (
    EPISODE_CLOCK_SYNC_NS,
    FatTreeDescriptor,
    TopologyParams,
    build_fat_tree,
    fat_tree_descriptor,
)
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.onepipe.config import MODE_CHIP
from repro.sim import Simulator
from repro.sim.randomness import RngStreams
from repro.sim.stats import Histogram
from repro.verify.episodes import SendOp, drive_sends, extract_observation
from repro.verify.oracle import ReferenceOracle

HYBRID_SCHEMA = "repro.hybrid/1"

# Bounded fidelity fixed-point: promotion is monotone, so in the worst
# case every pod goes hot; the cap only bounds *re-simulation* cost.
MAX_PASSES = 4


@dataclass(frozen=True)
class HyperscaleScenario:
    """One deterministic hybrid run; every field is report-stable."""

    name: str
    k: int                            # full fat-tree arity (modeled fabric)
    hosts_per_tor: int = 0            # 0 → classic k/2
    seed: int = 1
    hot_pods: int = 2                 # watched pods (island size)
    n_processes: int = 8
    windows: int = 120                # cold-fabric barriers; horizon = windows·window_ns
    flows_per_window: int = 16        # background demand per cold pod
    local_fraction_pct: int = 80
    mean_flow_bytes: int = 4_096
    backpressure_threshold_milli: int = 900
    send_interval_ns: int = 20_000    # watched traffic cadence
    senders_per_round: int = 2
    max_fanout: int = 2
    start_ns: int = 60_000
    drain_ns: int = 1_200_000
    fault_targets: Tuple[str, ...] = ()
    mode: str = MODE_CHIP

    def descriptor(self) -> FatTreeDescriptor:
        return fat_tree_descriptor(self.k, hosts_per_tor=self.hosts_per_tor)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "k": self.k,
            "hosts_per_tor": self.hosts_per_tor,
            "seed": self.seed,
            "hot_pods": self.hot_pods,
            "n_processes": self.n_processes,
            "windows": self.windows,
            "flows_per_window": self.flows_per_window,
            "local_fraction_pct": self.local_fraction_pct,
            "mean_flow_bytes": self.mean_flow_bytes,
            "backpressure_threshold_milli": self.backpressure_threshold_milli,
            "send_interval_ns": self.send_interval_ns,
            "senders_per_round": self.senders_per_round,
            "max_fanout": self.max_fanout,
            "start_ns": self.start_ns,
            "drain_ns": self.drain_ns,
            "fault_targets": list(self.fault_targets),
            "mode": self.mode,
        }


# The committed scenario library (CLI + bench + CI smoke).
SCENARIOS: Dict[str, HyperscaleScenario] = {
    # k=8 with every pod hot: the hybrid engine degenerates to the
    # existing packet-level run — the byte-identity anchor.
    "k8_allhot": HyperscaleScenario(
        name="k8_allhot", k=8, hot_pods=8, windows=120,
    ),
    # k=8 with 2 watched pods hot, 6 pods cold: the accuracy-envelope
    # scenario (island observables vs full packet reference).
    "k8_cold": HyperscaleScenario(
        name="k8_cold", k=8, hot_pods=2, windows=120,
    ),
    # k=16, 1024 modeled hosts: the mid-scale pilot.
    "k16_pilot": HyperscaleScenario(
        name="k16_pilot", k=16, hot_pods=2, windows=240,
        flows_per_window=48,
    ),
    # k=32 with dense racks: >=10k modeled hosts (the acceptance bar).
    # Demand sits below the sustained-backpressure bar at every window
    # count (96 flows/window crosses it at short horizons, which made
    # scaled-down bench runs promote pods the full run keeps cold).
    "k32_hyper": HyperscaleScenario(
        name="k32_hyper", k=32, hosts_per_tor=20, hot_pods=2, windows=400,
        flows_per_window=80, n_processes=12,
    ),
}


# ----------------------------------------------------------------------
# Hot island construction
# ----------------------------------------------------------------------
def island_params(
    descriptor: FatTreeDescriptor, n_island_pods: int
) -> TopologyParams:
    """Packet-level topology of the hot island: the hot pods with their
    full internal geometry, over a core layer scaled to the island
    (``radix·⌈pods/2⌉`` cores — the full core count when every pod is
    hot, proportionally fewer for a small island)."""
    base = descriptor.params
    radix = base.spines_per_pod
    n_cores = radix * max(1, n_island_pods // 2)
    return replace(
        base,
        n_pods=n_island_pods,
        n_cores=n_cores,
        clock_sync_interval_ns=EPISODE_CLOCK_SYNC_NS,
    )


def watched_placement(
    descriptor: FatTreeDescriptor, watched_pods: int, n_processes: int
) -> List[str]:
    """Host ids for the watched endpoints, striding across the watched
    pods (process i lives in pod ``i % watched_pods``).  The ids are
    identical in the hybrid island and in the full packet-level
    topology, so accuracy comparisons see the very same hosts."""
    per_pod = descriptor.hosts_per_pod
    if n_processes > watched_pods * per_pod:
        raise ValueError(
            f"{n_processes} processes exceed {watched_pods} watched pods "
            f"({watched_pods * per_pod} hosts)"
        )
    return [
        f"h{(i % watched_pods) * per_pod + i // watched_pods}"
        for i in range(n_processes)
    ]


def island_traffic(scenario: HyperscaleScenario, horizon_ns: int) -> List[SendOp]:
    """The watched workload, drawn from the ``hybrid.island`` stream of
    the scenario seed — fully determined before any simulation runs."""
    rng = RngStreams(scenario.seed).stream("hybrid.island")
    n = scenario.n_processes
    sends: List[SendOp] = []
    sequence = 0
    at = scenario.start_ns
    while at < horizon_ns:
        senders = rng.sample(range(n), min(scenario.senders_per_round, n))
        for src in senders:
            peers = [dst for dst in range(n) if dst != src]
            fanout = rng.randint(1, scenario.max_fanout)
            dsts = rng.sample(peers, min(fanout, len(peers)))
            reliable = rng.random() < 0.5
            sequence += 1
            entries = tuple(
                (dst, f"hy.s{src}.q{sequence}.d{dst}") for dst in dsts
            )
            sends.append(SendOp(at, src, reliable, entries))
        at += scenario.send_interval_ns
    return sends


def _run_island(
    scenario: HyperscaleScenario,
    descriptor: FatTreeDescriptor,
    n_island_pods: int,
    window_ns: int,
    horizon_ns: int,
    core_schedule: Optional[List[int]] = None,
) -> Dict[str, Any]:
    """Packet-level run of the hot island; returns the observables dict.

    ``core_schedule`` (per-window core congestion in milli-units from
    the cold fabric) is applied to the island's core-attach links as a
    bandwidth degradation schedule — the cold→hot coupling.  ``None``
    or all-1000 schedules touch nothing, which is what makes the
    all-hot run bit-equal to a plain packet-level run.
    """
    sim = Simulator(seed=scenario.seed)
    sim.tracer.enabled = True
    topology = build_fat_tree(sim, island_params(descriptor, n_island_pods))
    placement = watched_placement(
        descriptor, min(scenario.hot_pods, n_island_pods), scenario.n_processes
    )
    cluster = OnePipeCluster(
        sim,
        n_processes=scenario.n_processes,
        config=OnePipeConfig(mode=scenario.mode),
        topology=topology,
        placement=placement,
    )

    if core_schedule:
        core_links = [
            link for link_id, link in sorted(topology.links.items())
            if "core" in link_id
        ]
        previous = 1000
        for window, cong_milli in enumerate(core_schedule):
            if cong_milli == previous:
                continue
            previous = cong_milli
            sim.schedule_at(
                window * window_ns, _degrade_links, core_links, cong_milli
            )

    records, skipped = drive_sends(cluster, island_traffic(scenario, horizon_ns))
    sim.run(until=horizon_ns + scenario.drain_ns)

    observation = extract_observation(sim, cluster, records)
    divergences = ReferenceOracle(observation).check()

    sent_at = {
        msg.msg_id: op.at
        for op, scattering in records
        if scattering is not None
        for msg in scattering.msgs
    }
    latencies = [
        delivery.time - sent_at[delivery.msg_id]
        for trace in observation.deliveries.values()
        for delivery in trace
        if delivery.msg_id in sent_at
    ]
    return {
        "hosts": len(topology.hosts),
        "switches": len(topology.switches),
        "pods": n_island_pods,
        "sends_issued": len(records),
        "sends_skipped": len(skipped),
        "deliveries": len(latencies),
        "oracle_divergences": len(divergences),
        **delivery_latency_summary(latencies),
        "events_processed": sim.events_processed,
        "sim_now_ns": sim.now,
    }


def delivery_latency_summary(latencies: List[int]) -> Dict[str, int]:
    """Mean, nearest-rank p99 and max of the island's delivery latencies
    (all 0 when nothing was delivered)."""
    if not latencies:
        return {"mean_delivery_ns": 0, "p99_delivery_ns": 0, "max_delivery_ns": 0}
    hist = Histogram()
    hist.extend(latencies)
    return {
        "mean_delivery_ns": sum(latencies) // len(latencies),
        "p99_delivery_ns": hist.percentile(99),
        "max_delivery_ns": hist.max(),
    }


def _degrade_links(core_links, cong_milli: int) -> None:
    factor = 1000.0 / cong_milli
    for link in core_links:
        link.set_degradation(bandwidth_factor=factor)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_hyperscale(
    scenario: HyperscaleScenario, workers: int = 1
) -> Dict[str, Any]:
    """Execute one hybrid scenario; the returned dict is the report.

    ``workers`` only chooses how the cold fabric is partitioned across
    processes — it must not (and cannot: see
    :func:`repro.parallel.run_sharded`) appear in any report byte.
    """
    descriptor = scenario.descriptor()
    if scenario.hot_pods < 1 or scenario.hot_pods > descriptor.n_pods:
        raise ValueError(
            f"hot_pods {scenario.hot_pods} out of range for k={scenario.k} "
            f"({descriptor.n_pods} pods)"
        )
    window_ns = descriptor.cross_pod_lookahead_ns
    horizon_ns = scenario.windows * window_ns

    fmap = FidelityMap(descriptor, hot_pods=range(scenario.hot_pods))
    fmap.promote_fault_targets(scenario.fault_targets)

    cold_summary: Optional[Dict[str, Any]] = None
    passes = 0
    while True:
        passes += 1
        cold = fmap.cold_pods
        if not cold:
            cold_summary = None
            break
        config = ColdFabricConfig(
            seed=scenario.seed,
            n_hosts=descriptor.n_hosts,
            window_ns=window_ns,
            flows_per_window=scenario.flows_per_window,
            local_fraction_pct=scenario.local_fraction_pct,
            mean_flow_bytes=scenario.mean_flow_bytes,
            backpressure_threshold_milli=scenario.backpressure_threshold_milli,
            cold_pods=cold,
            hot_pods=fmap.hot_pods,
            core_uplinks=2 * descriptor.params.n_cores // descriptor.n_pods
            or 1,
            fabric_link_gbps=int(descriptor.params.fabric_link_gbps),
            host_link_gbps=int(descriptor.params.host_link_gbps),
        )
        outputs, stats = run_cold_fabric(
            config,
            scenario.windows,
            workers=workers,
            beacon_bound_ns=descriptor.beacon_wave_bound_ns(),
        )
        # Sustained-backpressure rule: >=10% of windows over threshold.
        cold_summary = summarize_cold(
            outputs, stats, min_promote_windows=max(1, scenario.windows // 10)
        )
        promoted = [
            pod
            for pod in cold_summary["promote_pods"]
            if fmap.promote(pod, "backpressure")
        ]
        if not promoted or passes >= MAX_PASSES:
            break

    island = _run_island(
        scenario,
        descriptor,
        n_island_pods=len(fmap.hot_pods),
        window_ns=window_ns,
        horizon_ns=horizon_ns,
        core_schedule=(
            cold_summary["core_schedule"] if cold_summary else None
        ),
    )

    fidelity = dict(fmap.digest())
    fidelity["hybrid.passes"] = passes
    if cold_summary:
        sharding = cold_summary["sharding"]
        fidelity["hybrid.cross_shard_events"] = sharding["cross_shard_events"]
        fidelity["hybrid.lookahead_stalls"] = sharding["lookahead_stalls"]
        fidelity["hybrid.windows"] = sharding["windows"]
    else:
        fidelity["hybrid.cross_shard_events"] = 0
        fidelity["hybrid.lookahead_stalls"] = 0
        fidelity["hybrid.windows"] = 0

    cold_report: Dict[str, Any] = {}
    if cold_summary:
        schedule = cold_summary["core_schedule"]
        cold_report = {
            "pods": cold_summary["pods"],
            "windows": cold_summary["windows"],
            "flows_total": cold_summary["flows_total"],
            "to_hot_bytes": cold_summary["to_hot_bytes"],
            "util_max_milli": cold_summary["util_max_milli"],
            "cong_core_max_milli": cold_summary["cong_core_max_milli"],
            "cong_core_min_milli": min(schedule, default=1000),
            "beacon_lag_max_ns": cold_summary["beacon_lag_max_ns"],
            "degraded_windows": sum(1 for c in schedule if c != 1000),
        }

    return {
        "schema": HYBRID_SCHEMA,
        "scenario": scenario.as_dict(),
        "modeled_hosts": descriptor.n_hosts,
        "modeled_switches": descriptor.n_switches,
        "modeled_links": descriptor.n_links,
        "window_ns": window_ns,
        "horizon_ns": horizon_ns,
        "fidelity": fidelity,
        "cold": cold_report,
        "island": island,
    }


def run_packet_reference(scenario: HyperscaleScenario) -> Dict[str, Any]:
    """Full packet-level run of the scenario's *entire* topology, with
    the same watched endpoints and traffic — the accuracy baseline the
    hybrid island is compared against.  For an all-hot scenario this is
    the very same code path :func:`run_hyperscale` takes."""
    descriptor = scenario.descriptor()
    window_ns = descriptor.cross_pod_lookahead_ns
    horizon_ns = scenario.windows * window_ns
    return _run_island(
        scenario,
        descriptor,
        n_island_pods=descriptor.n_pods,
        window_ns=window_ns,
        horizon_ns=horizon_ns,
        core_schedule=None,
    )
