"""Fig. 12: the impact of queuing delay on 1Pipe latency.

- Fig. 12a: latency with 0..10 DCTCP background flows per host.
- Fig. 12b: latency with core-layer oversubscription 1:1 .. 6:1.

Both use the host-delegation incarnation (the paper's testbed setup)
with cross-pod probe traffic so probes share the congested fabric.
"""

import pytest

from repro.bench import LatencyProbe, Series, print_table, save_results
from repro.net import BackgroundFlow, build_testbed
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.sim import Simulator

N_PROCS = 32
N_PROBES = 25
FLOWS_PER_HOST = [0, 2, 4, 6, 8, 10]
OVERSUB = [1, 2, 3, 4, 6]
ACTIVE_HOSTS = 8  # hosts carrying background flows


def measure(reliable: bool, n_flows: int = 0, oversubscription: float = 1.0):
    sim = Simulator(seed=700 + n_flows + int(10 * oversubscription))
    topo = build_testbed(sim, oversubscription=oversubscription)
    cluster = OnePipeCluster(
        sim,
        n_processes=N_PROCS,
        config=OnePipeConfig(mode="host_delegate"),
        topology=topo,
    )
    # Background flows: cross-pod so they congest the core.
    flows = []
    for h in range(ACTIVE_HOSTS):
        for _ in range(n_flows):
            flow = BackgroundFlow(
                sim, topo.host(h), topo.host(16 + (h % 16))
            )
            flows.append(flow)
            flow.start()
    probe = LatencyProbe(sim)

    def on_recv(m, i):
        if isinstance(m.payload, tuple) and m.payload[0] == "p":
            probe.mark_delivered((i, m.payload))
            if len(probe.latencies) == N_PROBES:
                # The last number is in; ``until=`` below only bounds a
                # run that loses a probe.
                sim.stop()

    for i in range(N_PROCS):
        cluster.endpoint(i).on_recv(lambda m, i=i: on_recv(m, i))

    def send(k):
        sender = k % 8
        dst = 16 + (k % 16)  # cross-pod
        probe.mark_sent((dst, ("p", k)))
        ep = cluster.endpoint(sender)
        (ep.reliable_send if reliable else ep.unreliable_send)(
            [(dst, ("p", k))]
        )

    for k in range(N_PROBES):
        sim.schedule(300_000 + k * 20_000, send, k)
    sim.run(until=300_000 + N_PROBES * 20_000 + 2_000_000)
    return probe.mean_us()


def run_fig12a():
    be = Series("BE-host")
    reliable = Series("R-host")
    for n_flows in FLOWS_PER_HOST:
        be.add(n_flows, measure(False, n_flows=n_flows))
        reliable.add(n_flows, measure(True, n_flows=n_flows))
    return be, reliable


def test_fig12a_background_flows(benchmark):
    be, reliable = benchmark.pedantic(run_fig12a, rounds=1, iterations=1)
    print_table(
        "Fig 12a: latency vs background flows per host (us)",
        "flows/host",
        [be, reliable],
        fmt="{:>12.1f}",
    )
    save_results("fig12a", {"BE": be.as_dict(), "R": reliable.as_dict()})
    # Queuing inflates latency with flow count; R stays above BE.
    assert be.ys()[-1] > be.ys()[0]
    assert reliable.ys()[-1] >= be.ys()[-1] * 0.8


def run_fig12b():
    be = Series("BE-host")
    reliable = Series("R-host")
    for ratio in OVERSUB:
        be.add(f"{ratio}:1", measure(False, n_flows=4,
                                     oversubscription=float(ratio)))
        reliable.add(f"{ratio}:1", measure(True, n_flows=4,
                                           oversubscription=float(ratio)))
    return be, reliable


def test_fig12b_oversubscription(benchmark):
    be, reliable = benchmark.pedantic(run_fig12b, rounds=1, iterations=1)
    print_table(
        "Fig 12b: latency vs oversubscription (us), 4 flows/host",
        "ratio",
        [be, reliable],
        fmt="{:>12.1f}",
    )
    save_results("fig12b", {"BE": be.as_dict(), "R": reliable.as_dict()})
    # Core congestion grows with the oversubscription ratio.
    assert be.ys()[-1] > be.ys()[0]
