"""Determinism: identical seeds must give bit-identical runs.

The simulator promises full determinism (same seed + same workload =>
same event sequence).  Reproducible runs are what make the benchmark
numbers in results/ meaningful, so this is tested end-to-end across the
whole stack: clocks, ECMP, loss, 1Pipe, failure handling.
"""

from repro.net import FailureInjector
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator
from repro.verify.episodes import generate_episode, replay_episode


def run_session(seed: int):
    sim = Simulator(seed=seed)
    cluster = OnePipeCluster(sim, n_processes=8)
    cluster.set_receiver_loss_rate(0.05)
    injector = FailureInjector(cluster.topology)
    log = []
    for i in range(8):
        cluster.endpoint(i).on_recv(
            lambda m, i=i: log.append((i, m.ts, m.src, m.payload, m.reliable))
        )

    def traffic(r):
        for s in range(8):
            ep = cluster.endpoint(s)
            if ep.agent.host.failed:
                continue
            ep.unreliable_send([((s + 1) % 8, f"be{r}:{s}")])
            if s % 2 == 0:
                ep.reliable_send([((s + 3) % 8, f"r{r}:{s}")])

    for r in range(25):
        sim.schedule(r * 12_000, traffic, r)
    injector.crash_host("h6", at=180_000)
    sim.run(until=2_000_000)
    return log, sim.events_processed


def test_same_seed_same_run():
    log_a, events_a = run_session(seed=1234)
    log_b, events_b = run_session(seed=1234)
    assert events_a == events_b
    assert log_a == log_b


def test_different_seed_different_run():
    log_a, _ = run_session(seed=1)
    log_b, _ = run_session(seed=2)
    # Clock skews and loss draws differ: the delivery timestamps differ.
    assert log_a != log_b


def test_rerun_in_same_process_is_independent():
    """Global state (itertools counters etc.) must not leak between
    simulator instances in ways that change behaviour."""
    first, _ = run_session(seed=77)
    second, _ = run_session(seed=77)
    third, _ = run_session(seed=77)
    assert first == second == third


def _first_msg_ids(seed: int):
    sim = Simulator(seed=seed)
    cluster = OnePipeCluster(sim, n_processes=4)
    scatterings = [
        cluster.endpoint(s).unreliable_send([((s + 1) % 4, f"m{s}")])
        for s in range(4)
    ]
    sim.run(until=100_000)
    return [msg.msg_id for sc in scatterings for msg in sc.msgs]


def test_clusters_built_back_to_back_number_messages_alike():
    """Every cluster owns its message-id counter: a second cluster in
    the same process hands out the same ids as the first, from 1."""
    first = _first_msg_ids(seed=5)
    second = _first_msg_ids(seed=5)
    assert first == [1, 2, 3, 4]
    assert second == first


def test_replay_is_independent_of_earlier_traffic():
    """A replay after an unrelated cluster has sent traffic observes
    exactly what a fresh replay does."""
    spec = generate_episode(seed=21, n_faults=1, horizon_ns=200_000,
                            drain_ns=1_000_000)
    fresh = replay_episode(spec).observation
    run_session(seed=3)
    assert replay_episode(spec).observation == fresh
