"""Tests for the in-network switch-Paxos baseline.

The consensus roles live in the fabric: core0 stamps instances, the
pod spine and member ToR down-halves vote, hosts learn.  The tests
check the uniform total-order contract, the f+1 quorum rule, and the
nack-driven loss recovery path.
"""

import pytest

from repro.baselines import SwitchPaxosBroadcast
from repro.baselines.shootout import check_logs, k4_params
from repro.net.topology import build_fat_tree
from repro.sim import Simulator


def build(n=8, seed=1, **kwargs):
    sim = Simulator(seed=seed)
    topo = build_fat_tree(sim, k4_params())
    group = SwitchPaxosBroadcast(sim, topo, n, **kwargs)
    group.enable_logging()
    return sim, topo, group


def drive(sim, group, rounds=10, spacing_ns=20_000, start_ns=20_000):
    sends = {}
    n = len(group.members)
    for r in range(rounds):
        for s in range(n):
            payload = f"r{r}m{s}"
            sends.setdefault(s, []).append(payload)
            sim.schedule_at(start_ns + r * spacing_ns,
                            group.broadcast, s, payload)
    return sends


def test_clean_run_is_uniform_total_order():
    sim, _topo, group = build()
    sends = drive(sim, group)
    sim.run(until=5_000_000)
    sent = sum(len(p) for p in sends.values())
    logs = [m.delivered_log for m in group.members]
    for i, member in enumerate(group.members):
        assert member.delivered_count == sent, f"member {i} incomplete"
    for i, log in enumerate(logs[1:], start=1):
        assert log == logs[0], f"member {i} diverged"
    assert check_logs("switchpaxos", logs, sends, clean=True) == []
    # Instance numbers are dense from 1.
    seqs = [key for key, _src, _p in logs[0]]
    assert seqs == list(range(1, sent + 1))


def test_every_broadcast_passes_the_coordinator():
    sim, _topo, group = build()
    sends = drive(sim, group, rounds=5)
    sim.run(until=5_000_000)
    assert group.sequenced == sum(len(p) for p in sends.values())
    assert group.relay_hops > 0          # pinned via ToR/spine up-halves
    assert group.no_quorum_drops == 0    # full path => full quorum
    assert group.nacks_sent == 0         # nothing lost, nothing nacked


def test_accept_below_quorum_is_dropped():
    sim, _topo, group = build()
    member = group.members[0]
    group._on_accept(member, (1, 3, "thin", ("spine0.0.down",)))
    assert member.delivered_count == 0
    assert group.no_quorum_drops == 1
    # The same instance with a full quorum still goes through.
    group._on_accept(
        member, (1, 3, "thin", ("spine0.0.down", "tor0.0.down"))
    )
    assert member.delivered_count == 1


def test_duplicate_accepts_deduplicated():
    sim, _topo, group = build()
    member = group.members[0]
    votes = ("spine0.0.down", "tor0.0.down")
    group._on_accept(member, (1, 3, "x", votes))
    group._on_accept(member, (1, 3, "x", votes))
    assert member.delivered_count == 1
    assert group.duplicate_accepts == 1


def test_acceptor_refuses_conflicting_vote():
    sim, _topo, group = build()
    acceptor = group.acceptors[0]
    acceptor._accept((1, 0, "first", ()))
    acceptor._accept((1, 1, "second", ()))  # same instance, other value
    assert group.vote_conflicts == 1
    assert acceptor.register[1] == (0, "first")


def test_spine_outage_recovers_via_nacks():
    """Fail a pod's distribution spine mid-traffic: its members stall,
    then nack the gap and catch up from the coordinator's log."""
    sim, topo, group = build()
    spine = topo.switches["spine0.0.down"]
    sim.schedule_at(50_000, spine.crash)
    sim.schedule_at(250_000, spine.recover)
    sends = drive(sim, group, rounds=10)
    sim.run(until=8_000_000)
    sent = sum(len(p) for p in sends.values())
    logs = [m.delivered_log for m in group.members]
    assert group.nacks_sent > 0
    assert group.nacks_handled > 0
    for i, member in enumerate(group.members):
        assert member.delivered_count == sent, f"member {i} incomplete"
    for log in logs[1:]:
        assert log == logs[0]
    assert check_logs("switchpaxos", logs, sends, clean=True) == []


def test_coordinator_crash_halts_ordering():
    """One coordinator, no backup: a core0 crash stops the protocol —
    counted honestly rather than hidden (see the module docstring)."""
    sim, topo, group = build()
    topo.switches["core0"].crash()
    drive(sim, group, rounds=3)
    sim.run(until=3_000_000)
    assert group.sequenced == 0
    assert group.total_delivered() == 0


def test_same_seed_same_order():
    logs = []
    for _ in range(2):
        sim, _topo, group = build(seed=11)
        drive(sim, group, rounds=4)
        sim.run(until=5_000_000)
        logs.append([m.delivered_log for m in group.members])
    assert logs[0] == logs[1]


def test_group_too_small_rejected():
    sim = Simulator(seed=1)
    topo = build_fat_tree(sim, k4_params())
    with pytest.raises(ValueError):
        SwitchPaxosBroadcast(sim, topo, 1)
