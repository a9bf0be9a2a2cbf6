"""Property suite: baseline broadcasts keep their ordering promises
under randomized traffic and seeded loss/straggler chaos (hypothesis).

Each example drives one baseline with a randomized send schedule —
optionally composed with a seeded chaos schedule of bursty loss and
switch stragglers — and judges the delivered logs as the shootout does
(``repro.baselines.shootout.check_logs``): the §2.1 oracle's order,
at-most-once, no-fabrication (one key per message) and per-sender FIFO
rows, plus no holes for the hold-back protocols.  Loss may stall a
hold-back protocol; it must never make it skip or reorder.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.baselines import (
    LamportBroadcast,
    SequencerBroadcast,
    TokenRingBroadcast,
)
from repro.baselines.shootout import check_logs, k4_params
from repro.chaos.schedule import ChaosInjector, ChaosSchedule
from repro.net.topology import build_fat_tree
from repro.sim import Simulator

N = 6
PROTOCOLS = ["lamport", "sequencer", "token"]

fast = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

traffic_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N - 1),      # sender
        st.integers(min_value=0, max_value=400_000),    # send offset (ns)
    ),
    min_size=1,
    max_size=25,
)


def run_protocol(protocol, seed, traffic, n_faults=0):
    sim = Simulator(seed=seed)
    topo = build_fat_tree(sim, k4_params())
    if protocol == "sequencer":
        group = SequencerBroadcast(sim, topo, N, kind="switch")
    elif protocol == "token":
        group = TokenRingBroadcast(sim, topo, N)
        group.start()
    else:
        group = LamportBroadcast(sim, topo, N)
    group.enable_logging()
    if n_faults:
        schedule = ChaosSchedule.generate(
            sim.rng("prop.chaos"),
            topo,
            600_000,
            n_faults=n_faults,
            weights=(("burst_loss", 2), ("straggler", 1)),
        )
        shim = SimpleNamespace(
            sim=sim, topology=topo, engines=topo.switches,
            agents={}, controller=None,
        )
        ChaosInjector(shim).apply(schedule)
    # Record sends in execution order so the FIFO oracle sees the true
    # per-sender send sequence.
    sends = {}
    ordered = sorted(enumerate(traffic), key=lambda kv: (kv[1][1], kv[0]))
    for k, (sender, at) in ordered:
        payload = (sender, k)  # unique per sender across the example
        sends.setdefault(sender, []).append(payload)
        sim.schedule_at(20_000 + at, group.broadcast, sender, payload)
    sim.run(until=5_000_000)
    logs = [m.delivered_log for m in group.members]
    return logs, sends


@pytest.mark.parametrize("protocol", PROTOCOLS)
@fast
@given(seed=st.integers(min_value=0, max_value=2**16),
       traffic=traffic_strategy)
def test_contract_holds_on_clean_runs(protocol, seed, traffic):
    logs, sends = run_protocol(protocol, seed, traffic)
    assert check_logs(protocol, logs, sends, clean=True) == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
@fast
@given(seed=st.integers(min_value=0, max_value=2**16),
       traffic=traffic_strategy,
       n_faults=st.integers(min_value=1, max_value=3))
def test_contract_holds_under_loss_and_stragglers(
    protocol, seed, traffic, n_faults
):
    """Bursty loss and slow switches may stall delivery; they must not
    produce disagreement, per-sender reorder, or (for the hold-back
    protocols) gaps in the delivered prefix."""
    logs, sends = run_protocol(protocol, seed, traffic, n_faults=n_faults)
    assert check_logs(protocol, logs, sends, clean=False) == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
@fast
@given(seed=st.integers(min_value=0, max_value=2**16),
       traffic=traffic_strategy,
       n_faults=st.integers(min_value=0, max_value=2))
def test_common_prefix_agreement(protocol, seed, traffic, n_faults):
    """Any two members agree on the relative order of the messages they
    both delivered (the shared-subsequence form of agreement, checked
    directly rather than via order keys)."""
    logs, _sends = run_protocol(protocol, seed, traffic, n_faults=n_faults)
    msgs = [
        [(src, payload) for _key, src, payload in log] for log in logs
    ]
    for i, a in enumerate(msgs):
        for b in msgs[i + 1:]:
            common = set(a) & set(b)
            assert [m for m in a if m in common] == \
                   [m for m in b if m in common]
