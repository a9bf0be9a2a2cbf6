"""Deterministic scenario execution and JSON reports.

A scenario run is ``scenario.shards`` independent episodes ("shards"),
each on its own simulator seeded ``episode_seed(seed, shard)`` (the
chaos/verify rule).  Shards fan out over worker processes via
:func:`repro.parallel.run_ordered`, and the merged report is a pure
function of ``(scenario, seed, faults)`` — byte-identical across runs
and across ``--jobs`` values (the job count never enters the JSON; the
``determinism`` CI job ``cmp``'s two runs).

Each shard also audits the §2.1 delivery contract: an
:class:`repro.chaos.monitor.InvariantMonitor` records the shard's
traffic and the reference oracle judges it (total order, at-most-once,
no fabrication, per-pair FIFO, failure cutoffs, reliable completion).
``report["ok"]`` requires zero violations in every shard.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.parallel import run_ordered
from repro.sim.randomness import episode_seed
from repro.workload.scenarios import ScenarioSpec

__all__ = ["run_scenario", "run_shard"]

REPORT_SCHEMA = "repro.workload.report/1"
TRACE_LIMIT = 2_000_000


def run_shard(
    scenario: ScenarioSpec,
    seed: int,
    shard: int,
    *,
    faults: int = 0,
    check_ordering: bool = True,
    keep_run: bool = False,
):
    """Execute one shard; returns its report dict (and, with
    ``keep_run``, the live engine/cluster for test inspection).
    """
    from repro.chaos.monitor import InvariantMonitor
    from repro.chaos.schedule import ChaosInjector, ChaosSchedule
    from repro.net.topology import build_episode_topology
    from repro.onepipe import OnePipeCluster
    from repro.sim import Simulator
    from repro.workload.engine import WorkloadEngine, build_app

    shard_seed = episode_seed(seed, shard)
    sim = Simulator(seed=shard_seed)
    sim.metrics.enabled = True
    sim.tracer.limit = TRACE_LIMIT

    topology = build_episode_topology(sim, scenario.scale)
    cluster = OnePipeCluster(
        sim,
        n_processes=scenario.n_processes,
        topology=topology,
    )
    if faults:
        schedule = ChaosSchedule.generate(
            sim.rng(f"workload.chaos.{shard}"),
            topology,
            scenario.start_ns + scenario.horizon_ns,
            n_faults=faults,
        )
        ChaosInjector(cluster).apply(schedule)
    # Attached before the app, so every send the app issues is recorded.
    monitor = InvariantMonitor(cluster) if check_ordering else None
    app = build_app(scenario.app, cluster)
    engine = WorkloadEngine(
        cluster,
        scenario.tenants,
        app,
        start_ns=scenario.start_ns,
        horizon_ns=scenario.horizon_ns,
        admission=scenario.admission,
    )
    drain_ns = scenario.drain_ns
    if faults:
        # Failure handling needs the verify-grade drain: retransmission
        # must give up on dead regions before reliable sends complete.
        drain_ns = max(drain_ns, 5_000_000)
    sim.run(until=scenario.start_ns + scenario.horizon_ns + drain_ns)

    ordering = {"checked": bool(check_ordering), "violations": 0,
                "deliveries": 0}
    if monitor is not None:
        ordering["violations"] = len(monitor.final_check())
        ordering["deliveries"] = monitor.total_delivered()

    report = _shard_report(scenario, engine, shard, shard_seed, ordering)
    if keep_run:
        return report, {
            "sim": sim, "cluster": cluster, "engine": engine, "app": app,
        }
    return report


def _shard_report(
    scenario: ScenarioSpec, engine, shard: int, shard_seed: int,
    ordering: Dict[str, Any],
) -> Dict[str, Any]:
    tenants: Dict[str, Any] = {}
    for name, state in sorted(engine.tenant_states.items()):
        hist = state.hist
        tenants[name] = {
            "arrivals": state.c_arrivals.value,
            "admitted": state.c_admitted.value,
            "deferred": state.c_deferred.value,
            "rejected": state.c_rejected.value,
            "retries": state.c_retries.value,
            "dropped": state.c_dropped.value,
            "completed": state.c_completed.value,
            "delivery_lag": {
                "bounds": list(hist.bounds),
                "counts": list(hist.counts),
                "count": hist.count,
                "total": hist.total,
                "max": hist.max_value,
            },
        }
    per_agent = {}
    window = scenario.horizon_ns
    for node_id, snap in sorted(engine.util_snapshot.items()):
        per_agent[node_id] = {
            "busy_fraction": round(snap["busy_ns"] / window, 6),
            "saturated_fraction": round(snap["saturated_ns"] / window, 6),
            "max_queue_depth": snap["max_queue_depth"],
        }
    admission = engine.admission_totals()
    return {
        "shard": shard,
        "seed": shard_seed,
        "tenants": tenants,
        "admission": admission,
        "utilization": per_agent,
        "ordering": ordering,
        "offered": engine.offered,
        "completed": engine.completed,
        "dropped": engine.dropped,
        "retries": engine.retries,
        "drained": engine.drained(),
    }


# ----------------------------------------------------------------------
# Fan-out + merge
# ----------------------------------------------------------------------
def _run_shard_payload(payload) -> Dict[str, Any]:
    scenario, seed, shard, faults = payload
    return run_shard(scenario, seed, shard, faults=faults)


def _merged_lag(shard_tenants: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum per-shard bucket counts and recompute quantiles."""
    from repro.obs.registry import BucketHistogram
    from repro.workload.engine import WORKLOAD_LAG_BOUNDS_NS

    merged = BucketHistogram("merged", WORKLOAD_LAG_BOUNDS_NS)
    for entry in shard_tenants:
        lag = entry["delivery_lag"]
        for i, count in enumerate(lag["counts"]):
            merged.counts[i] += count
        merged.count += lag["count"]
        merged.total += lag["total"]
        if lag["max"] is not None and (
            merged.max_value is None or lag["max"] > merged.max_value
        ):
            merged.max_value = lag["max"]
    return {
        "count": merged.count,
        "p50": merged.quantile(0.50),
        "p99": merged.quantile(0.99),
        "p999": merged.quantile(0.999),
        "max": merged.max_value,
    }


def run_scenario(
    scenario: ScenarioSpec,
    seed: int = 1,
    *,
    jobs: int = 1,
    faults: int = 0,
    progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run every shard and merge the deterministic scenario report."""
    payloads = [
        (scenario, seed, shard, faults)
        for shard in range(scenario.shards)
    ]
    shards = run_ordered(_run_shard_payload, payloads, jobs=jobs,
                         progress=progress)

    totals = {
        "arrivals": 0, "admitted": 0, "deferred": 0, "rejected": 0,
        "retries": 0, "dropped": 0, "completed": 0, "timed_out": 0,
    }
    tenants: Dict[str, Any] = {}
    counter_keys = ("arrivals", "admitted", "deferred", "rejected",
                    "retries", "dropped", "completed")
    for spec in scenario.tenants:
        entries = [shard["tenants"][spec.name] for shard in shards]
        merged = {
            key: sum(entry[key] for entry in entries)
            for key in counter_keys
        }
        merged["delivery_lag"] = _merged_lag(entries)
        tenants[spec.name] = merged
        for key in counter_keys:
            totals[key] += merged[key]
    totals["timed_out"] = sum(
        shard["admission"]["timed_out"] for shard in shards
    )
    totals["unfinished"] = (
        totals["arrivals"] - totals["completed"] - totals["dropped"]
    )

    busy = [
        agent["busy_fraction"]
        for shard in shards
        for agent in shard["utilization"].values()
    ]
    utilization = {
        "window_ns": scenario.horizon_ns,
        "mean_busy_fraction": round(sum(busy) / len(busy), 6) if busy else 0.0,
        "max_busy_fraction": max(busy) if busy else 0.0,
        "max_queue_depth": max(
            (shard["admission"]["max_queue_depth"] for shard in shards),
            default=0,
        ),
    }
    ordering = {
        "checked": all(shard["ordering"]["checked"] for shard in shards),
        "violations": sum(shard["ordering"]["violations"] for shard in shards),
        "deliveries": sum(shard["ordering"]["deliveries"] for shard in shards),
    }
    ok = ordering["violations"] == 0 and all(
        shard["drained"] for shard in shards
    )
    if faults:
        # Faults legitimately strand queued ops on dead hosts; the
        # drain criterion then only covers ordering.
        ok = ordering["violations"] == 0
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.describe(),
        "seed": seed,
        "faults": faults,
        "totals": totals,
        "tenants": tenants,
        "utilization": utilization,
        "ordering": ordering,
        "shards": shards,
        "ok": ok,
    }
