"""Paper-scale fat-tree benchmarks: events/sec vs host count (§4.3).

The paper argues beacon overhead is what bounds 1Pipe's scalability:
beacons are O(hosts x switch ports) periodic events, so as the fat-tree
grows they dominate the event population long before data traffic does.
This suite builds classic k-ary fat-trees (k pods, (k/2)^2 cores, k/2
ToRs and aggregation switches per pod, k/2 hosts per ToR: k=4 -> 16
hosts, k=8 -> 128 hosts, plus half/double-density variants for the
in-between points of the scaling curve), brings up a full 1Pipe cluster
with one process per host, drives light scatter traffic, and measures
raw simulator throughput (``events_per_sec``) over a fixed simulated
window.

``BENCH_scale.json`` at the repo root is the committed baseline
(``python -m repro.cli bench --suite scale``); the ``scale-smoke`` CI
job replays the suite at ``--scale 0.25`` and checks it for schema
drift and rate regressions like the core suite.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.bench.microbench import BenchResult
from repro.net.topology import TopologyParams
from repro.sim import Simulator


def fat_tree_params(k: int, hosts_per_tor: int = 0) -> TopologyParams:
    """Classic k-ary fat-tree mapped onto the pods/spines/cores builder.

    ``k`` pods, ``k/2`` ToR and ``k/2`` spine switches per pod and
    ``(k/2)^2`` cores.  ``hosts_per_tor`` defaults to the canonical
    ``k/2``; passing another value yields the half/double-density
    variants used for intermediate points of the scaling curve.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree k must be even and >= 2: {k}")
    radix = k // 2
    return TopologyParams(
        n_pods=k,
        tors_per_pod=radix,
        spines_per_pod=radix,
        n_cores=radix * radix,
        hosts_per_tor=hosts_per_tor or radix,
    )


def bench_fat_tree(
    seed: int,
    scale: float,
    k: int,
    hosts_per_tor: int = 0,
    mode: str = "chip",
) -> BenchResult:
    """Full 1Pipe cluster on a k-ary fat-tree, one process per host."""
    from repro.net.topology import build_fat_tree
    from repro.onepipe import OnePipeCluster, OnePipeConfig

    params = fat_tree_params(k, hosts_per_tor)
    n_hosts = params.n_hosts
    name = f"fattree_k{k}_h{n_hosts}"
    if mode != "chip":
        name += f"_{mode}"
    sim = Simulator(seed=seed)
    topology = build_fat_tree(sim, params)
    cluster = OnePipeCluster(
        sim,
        n_processes=n_hosts,
        config=OnePipeConfig(mode=mode),
        topology=topology,
    )
    delivered = [0]
    for i in range(n_hosts):
        cluster.endpoint(i).on_recv(
            lambda m: delivered.__setitem__(0, delivered[0] + 1)
        )

    # Light scatter traffic: one round-robin driver (not one periodic
    # task per host) so the event population stays dominated by the
    # periodic control plane - beacons, clock sync, liveness - which is
    # exactly the workload shape Sec. 4.3 says bounds scalability.
    sent = [0]
    cursor = [0]

    def blast() -> None:
        for _ in range(4):
            src = cursor[0] % n_hosts
            cursor[0] += 1
            endpoint = cluster.endpoint(src)
            dst = (src + n_hosts // 2 + 1) % n_hosts
            if src % 2:
                endpoint.reliable_send([(dst, sent[0])])
            else:
                endpoint.unreliable_send([(dst, sent[0])])
            sent[0] += 1

    traffic = sim.every(10_000, blast)
    window = max(60_000, int(400_000 * scale))
    start = time.perf_counter()
    sim.run(until=window)
    wall = time.perf_counter() - start
    traffic.cancel()
    beacons = sum(agent.beacons_sent for agent in cluster.agents.values())
    beacons += sum(engine.beacons_sent for engine in cluster.engines.values())
    return BenchResult(
        name,
        wall,
        {
            "n_hosts": n_hosts,
            "n_switches": len(topology.switches),
            "events": sim.events_processed,
            "messages_sent": sent[0],
            "messages_delivered": delivered[0],
            "beacons_sent": beacons,
            "simulated_ns": window,
        },
        {
            "events_per_sec": sim.events_processed / wall if wall > 0 else 0.0,
            "simulated_ns_per_sec": window / wall if wall > 0 else 0.0,
        },
    )


# The scaling curve: 16 -> 32 -> 64 -> 128 hosts.  k=4 and k=8 are the
# canonical geometries; the 32/64-host points reuse them at double/half
# rack density so the fabric (and its beacon population) grows too.
# The trailing ``_bft`` point reruns the k=4 geometry on the
# BFT-hardened incarnation (docs/BYZANTINE.md): it charts the overhead
# of beacon/timestamp authentication and f+1 cross-checks against the
# plain k=4 point, and is informational — not a regression gate (see
# ``INFORMATIONAL_BENCHMARKS`` in :mod:`repro.bench.microbench`).
def bench_workload_overload(seed: int, scale: float) -> BenchResult:
    """One hotspot-scenario shard (docs/WORKLOADS.md): open-loop
    multi-tenant arrivals through admission control into the kvstore on
    the 8-host fat-tree.  Charts how fast the engine simulates under
    saturation — arrivals, backpressure decisions, retries, and app
    round trips all included.  ``scale`` stretches the traffic window.
    """
    from repro.workload.runner import run_shard
    from repro.workload.scenarios import get_scenario

    scenario = get_scenario("hotspot")
    scenario = scenario.with_overrides(
        horizon_ns=max(100_000, int(scenario.horizon_ns * scale)),
    )
    start = time.perf_counter()
    report = run_shard(scenario, seed, 0, check_ordering=False)
    wall = time.perf_counter() - start
    admission = report["admission"]
    simulated = scenario.start_ns + scenario.horizon_ns + scenario.drain_ns
    return BenchResult(
        "workload_overload",
        wall,
        {
            "offered": report["offered"],
            "completed": report["completed"],
            "rejected": admission["rejected"],
            "deferred": admission["deferred"],
            "retries": report["retries"],
            "simulated_ns": simulated,
        },
        {
            "ops_per_sec": report["completed"] / wall if wall > 0 else 0.0,
            "simulated_ns_per_sec": simulated / wall if wall > 0 else 0.0,
        },
    )


SCALE_BENCHMARKS: Dict[str, Callable[[int, float], BenchResult]] = {
    "fattree_k4_h16": lambda seed, scale: bench_fat_tree(seed, scale, k=4),
    "fattree_k4_h32": lambda seed, scale: bench_fat_tree(
        seed, scale, k=4, hosts_per_tor=4
    ),
    "fattree_k8_h64": lambda seed, scale: bench_fat_tree(
        seed, scale, k=8, hosts_per_tor=2
    ),
    "fattree_k8_h128": lambda seed, scale: bench_fat_tree(seed, scale, k=8),
    "fattree_k4_h16_bft": lambda seed, scale: bench_fat_tree(
        seed, scale, k=4, mode="bft"
    ),
    "workload_overload": bench_workload_overload,
}
