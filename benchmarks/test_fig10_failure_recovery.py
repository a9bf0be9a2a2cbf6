"""Fig. 10: failure recovery time of reliable 1Pipe.

The paper measures "the average time of barrier timestamp stall for
correct processes" when a host, a ToR switch, a core link, or a core
switch fails.  A failure is detected after 10 beacon intervals; the
recovery procedure of §5.2 then runs (Detect → ... → Resume).

Core link/switch failures do not disconnect any process, so only the
controller is involved and recovery is fast; host and ToR failures run
the full Broadcast/Discard/Recall/Callback round — a ToR failure kills
eight processes at once, so it recovers slowest (the paper's "jump for
ToR switch").
"""

import pytest

from repro.bench import Series, print_table, save_results
from repro.net import FailureInjector
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator

HOST_COUNTS = [4, 8, 16, 32]
FAILURE_KINDS = ["Host", "ToR Switch", "Core Link", "Core Switch"]
CRASH_AT = 150_000


def catch_up_instants(n_procs: int, kind: str) -> dict:
    """Per correct host: the simulated instant its commit barrier first
    passes the crash instant after a ``kind`` failure at CRASH_AT."""
    sim = Simulator(seed=500 + n_procs)
    cluster = OnePipeCluster(sim, n_processes=n_procs)
    injector = FailureInjector(cluster.topology)

    # Light reliable traffic so commit barriers matter.
    def traffic():
        for s in range(0, n_procs, 2):
            ep = cluster.endpoint(s)
            if not ep.agent.host.failed:
                ep.reliable_send([((s + 1) % n_procs, "x")])

    sim.every(20_000, traffic)

    if kind == "Host":
        injector.crash_host("h1", at=CRASH_AT)
        failed_hosts = {"h1"}
    elif kind == "ToR Switch":
        injector.crash_switch("tor0.0", at=CRASH_AT)
        failed_hosts = {f"h{i}" for i in range(8)}
    elif kind == "Core Link":
        injector.cut_cable("spine0.0.up", "core0", at=CRASH_AT)
        injector.cut_cable("core0", "spine0.0.down", at=CRASH_AT)
        failed_hosts = set()
    elif kind == "Core Switch":
        injector.crash_switch("core0", at=CRASH_AT)
        failed_hosts = set()
    else:
        raise ValueError(kind)

    # Precise stall measurement: for each correct host, the time until
    # its received commit barrier *value* passes the crash instant —
    # i.e. until ordering information from after the failure flows again
    # (the "barrier timestamp stall" of Fig. 10).  Observed at the
    # agent's flush, which every barrier change schedules for the same
    # simulated instant whether the beacon that carried it travelled as
    # a packet or on the virtual fabric.
    epoch = cluster.topology.clock_sync.epoch_ns
    crash_wall = epoch + CRASH_AT
    caught_up = {}
    for host_id, agent in cluster.agents.items():
        if host_id in failed_hosts:
            continue

        def hooked(host_id=host_id, agent=agent, original=agent._flush):
            if (
                host_id not in caught_up
                and sim.now >= CRASH_AT
                and agent.rx_commit_barrier >= crash_wall
            ):
                caught_up[host_id] = sim.now
            original()

        agent._flush = hooked

    sim.run(until=CRASH_AT + 3_000_000)
    return caught_up


def measure_stall(n_procs: int, kind: str) -> float:
    """Commit-barrier stall time (us) averaged over correct hosts."""
    stalls = [t - CRASH_AT for t in catch_up_instants(n_procs, kind).values()]
    assert stalls, f"no correct host recovered after {kind} failure"
    return sum(stalls) / len(stalls) / 1000  # us


def run_fig10():
    series = {kind: Series(kind) for kind in FAILURE_KINDS}
    for n in HOST_COUNTS:
        for kind in FAILURE_KINDS:
            series[kind].add(n, measure_stall(n, kind))
    return series


def test_fig10_failure_recovery_time(benchmark):
    series = benchmark.pedantic(run_fig10, rounds=1, iterations=1)
    print_table(
        "Fig 10: failure recovery time (us of barrier stall)",
        "processes",
        [series[kind] for kind in FAILURE_KINDS],
        fmt="{:>12.0f}",
    )
    save_results("fig10", {k: v.as_dict() for k, v in series.items()})
    # Shape claims (paper §7.2):
    for n_idx in range(len(HOST_COUNTS)):
        host_stall = series["Host"].ys()[n_idx]
        tor_stall = series["ToR Switch"].ys()[n_idx]
        link_stall = series["Core Link"].ys()[n_idx]
        # Detection alone is 10 beacon intervals = 30 us; everything
        # recovers within the paper's 50..600 us envelope.
        assert 30 <= host_stall < 700
        assert 30 <= link_stall < 700
        # ToR failure (whole rack fails) is the slowest to recover.
        assert tor_stall >= host_stall
        # Core failures involve no process failure: at most as slow as
        # a host failure.
        assert link_stall <= host_stall + 100
