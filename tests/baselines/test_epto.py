"""Tests for the EpTO epidemic total-order baseline.

EpTO's contract is *eventual* total order: delivered orders never
contradict each other, delivery trails sending by ~TTL gossip rounds,
and the protocol keeps working across member churn with no coordinator
to fail over.
"""

import pytest

from repro.baselines import EptoBroadcast
from repro.baselines.epto import default_ttl
from repro.baselines.shootout import check_logs, k4_params
from repro.net import FailureInjector
from repro.net.topology import build_fat_tree
from repro.sim import Simulator


def build(n=8, seed=1, **kwargs):
    sim = Simulator(seed=seed)
    topo = build_fat_tree(sim, k4_params())
    group = EptoBroadcast(sim, topo, n, **kwargs)
    group.enable_logging()
    return sim, group


def drive(sim, group, rounds=6, spacing_ns=30_000, start_ns=50_000):
    sends = {}
    n = len(group.members)
    for r in range(rounds):
        for s in range(n):
            payload = f"r{r}m{s}"
            sends.setdefault(s, []).append(payload)
            sim.schedule_at(start_ns + r * spacing_ns,
                            group.broadcast, s, payload)
    # Drain: TTL rounds for the last ball to stabilize, plus slack.
    drain = (group.ttl + 4) * group.round_interval_ns
    sim.run(until=start_ns + rounds * spacing_ns + drain + 500_000)
    return sends


def test_default_ttl_is_logarithmic():
    assert default_ttl(8) == 8    # 2*3 + 2
    assert default_ttl(16) == 10
    assert default_ttl(2) == 4
    assert default_ttl(1) == 4    # clamped, never degenerate


def test_clean_run_delivers_everything_in_agreement():
    sim, group = build()
    sends = drive(sim, group)
    sent = sum(len(p) for p in sends.values())
    logs = [m.delivered_log for m in group.members]
    for i, member in enumerate(group.members):
        assert member.delivered_count == sent, f"member {i} incomplete"
    # Converged logs are identical, not merely non-contradictory.
    for i, log in enumerate(logs[1:], start=1):
        assert log == logs[0], f"member {i} diverged"
    assert check_logs("epto", logs, sends, clean=True) == []


def test_delivery_waits_for_the_ttl_round_bound():
    """An event is delivered only once its TTL hits the round bound, so
    send-to-delivery latency is at least ~TTL gossip rounds."""
    sim, group = build()
    latencies = []
    sent_at = {}
    group.deliver_callback = (
        lambda index, key, src, payload: latencies.append(
            sim.now - sent_at[payload]
        )
    )

    def send(tag):
        sent_at[tag] = sim.now
        group.broadcast(0, tag)

    for k in range(5):
        sim.schedule_at(50_000 + k * 40_000, send, f"m{k}")
    sim.run(until=2_000_000)
    assert latencies
    floor = (group.ttl - 1) * group.round_interval_ns
    assert min(latencies) >= floor


def test_survivors_converge_after_member_crash():
    """Crash a member mid-traffic: the epidemic routes around it and the
    survivors still converge on one non-contradictory order."""
    sim, group = build()
    injector = FailureInjector(group.topology)
    crashed = group.members[5]
    injector.crash_host(crashed.host.node_id, at=120_000)
    sends = drive(sim, group, rounds=8, spacing_ns=30_000)
    survivors = [m for m in group.members if not m.host.failed]
    assert len(survivors) == len(group.members) - 1
    logs = [m.delivered_log for m in survivors]
    assert check_logs("epto", logs, sends, clean=False) == []
    for log in logs[1:]:
        assert log == logs[0]
    # Messages broadcast before the crash still spread epidemically.
    pre_crash = [p for _k, src, p in logs[0] if src == 5]
    assert pre_crash, "pre-crash events from the dead member were lost"


def test_crashed_member_stops_broadcasting():
    sim, group = build()
    group.members[2].host.failed = True
    group.broadcast(2, "ghost")
    sim.run(until=2_000_000)
    assert all(
        p != "ghost"
        for m in group.members
        for _k, _s, p in m.delivered_log
    )


def test_gossip_counters_move():
    sim, group = build()
    drive(sim, group, rounds=2)
    assert group.rounds > 0
    assert group.balls_sent > 0


def test_stop_cancels_the_round_task():
    sim, group = build()
    group.broadcast(0, "x")
    sim.run(until=100_000)
    group.stop()
    rounds = group.rounds
    sim.run(until=500_000)
    assert group.rounds == rounds


def test_same_seed_same_epidemic():
    logs = []
    for _ in range(2):
        sim, group = build(seed=7)
        drive(sim, group, rounds=4)
        logs.append([m.delivered_log for m in group.members])
        assert group.balls_sent > 0
    assert logs[0] == logs[1]


def test_custom_fanout_and_ttl_respected():
    sim, group = build(fanout=7, ttl=5)
    assert group.fanout == 7
    assert group.ttl == 5


def test_group_too_small_rejected():
    sim = Simulator(seed=1)
    topo = build_fat_tree(sim, k4_params())
    with pytest.raises(ValueError):
        EptoBroadcast(sim, topo, 1)
