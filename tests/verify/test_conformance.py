"""Trace conformance: fuzzed episodes vs the reference oracle.

The load-bearing guarantees of the suite:

- every switch incarnation conforms to the oracle on the same fuzzed
  episode (including one with injected gray failures);
- an intentionally broken ordering implementation (the mutation hook)
  IS caught, and the shrinker reduces the failing episode to a minimal
  reproducer that still fails mutated and passes clean.
"""

import dataclasses

import pytest

from repro.onepipe.config import MODES
from repro.sim.randomness import episode_seed
from repro.verify import generate_episode, shrink_episode
from repro.verify.runner import VerifyRunner, check_episode


def swap_pairs(cluster):
    """Injected ordering bug: each receiver delivers messages in
    swapped pairs — a total-order violation the oracle must flag."""
    for i in range(cluster.n_processes):
        recv = cluster.endpoint(i).receiver
        orig = recv._deliver
        pending = []

        def deliver(ts, src, msg_id, payload, reliable,
                    _orig=orig, _pending=pending):
            _pending.append((ts, src, msg_id, payload, reliable))
            if len(_pending) == 2:
                second, first = _pending[1], _pending[0]
                _pending.clear()
                _orig(*second)
                _orig(*first)

        recv._deliver = deliver


def drop_discard(cluster):
    """Injected failure-atomicity bug: receivers acknowledge the
    controller's discard notice (it is traced) but never install the
    cutoff, so post-notice deliveries from the failed sender leak."""
    for i in range(cluster.n_processes):
        recv = cluster.endpoint(i).receiver
        orig = recv.discard_from

        def discard(failed_proc, failure_ts, _orig=orig, _recv=recv):
            count = _orig(failed_proc, failure_ts)
            # Undo the enforcement, keep the trace record.
            _recv._fail_cutoff.pop(failed_proc, None)
            _recv._tombstones.clear()
            return count

        recv.discard_from = discard


@pytest.mark.parametrize("mode", MODES)
def test_incarnation_conforms_on_fuzzed_episode(mode):
    spec = generate_episode(
        seed=101, episode=0, mode=mode, n_faults=0,
        horizon_ns=200_000, drain_ns=1_000_000,
    )
    run, divergences = check_episode(spec)
    assert divergences == []
    assert run.messages_delivered > 0


@pytest.mark.parametrize("mode", MODES)
def test_incarnation_conforms_under_faults(mode):
    spec = generate_episode(seed=202, episode=3, mode=mode, n_faults=3)
    assert spec.faults
    _run, divergences = check_episode(spec)
    assert divergences == []


def test_incarnations_agree_on_delivery_sets():
    # The same episode on all three incarnations: each conforms to its
    # own oracle, and fault-free they deliver the identical message set
    # in the identical per-receiver order (timing may differ; the total
    # order may not).
    spec = generate_episode(
        seed=303, episode=0, n_faults=0,
        horizon_ns=200_000, drain_ns=1_000_000,
    )
    orders = {}
    for mode in MODES:
        run, divergences = check_episode(dataclasses.replace(spec, mode=mode))
        assert divergences == []
        orders[mode] = {
            receiver: [(d.src, d.payload) for d in trace]
            for receiver, trace in run.observation.deliveries.items()
        }
    assert orders["chip"] == orders["switch_cpu"] == orders["host_delegate"]


def test_mutation_is_caught_and_shrinks_to_minimal_reproducer():
    spec = generate_episode(
        seed=7, episode=0, mode="chip", n_faults=0,
        horizon_ns=200_000, drain_ns=1_000_000,
    )
    _run, divergences = check_episode(spec, mutate=swap_pairs)
    assert any(d.kind == "order" for d in divergences)

    def diverges(candidate):
        _r, divs = check_episode(candidate, mutate=swap_pairs)
        return any(d.kind == "order" for d in divs)

    small, replays = shrink_episode(spec, diverges, max_replays=60)
    assert len(small.sends) < len(spec.sends)
    assert len(small.sends) <= 4      # a pair swap needs very few sends
    assert replays <= 60
    # The reproducer still fails mutated...
    _r, divs = check_episode(small, mutate=swap_pairs)
    assert any(d.kind == "order" for d in divs)
    # ...and passes clean, so the divergence is the mutation's fault.
    _r, divs = check_episode(small)
    assert divs == []


def test_cutoff_mutation_is_caught():
    # A crash with traffic across it: disabling cutoff enforcement must
    # surface as failure_cutoff (or duplicate-free order trouble), while
    # the unmutated run stays clean.
    spec = generate_episode(seed=404, episode=1, mode="chip", n_faults=4)
    _run, clean = check_episode(spec)
    assert clean == []
    found = False
    for episode in (1, 2, 4, 5):
        candidate = generate_episode(
            seed=episode_seed(404, episode), episode=episode,
            mode="chip", n_faults=4,
        )
        _run, divs = check_episode(candidate, mutate=drop_discard)
        if any(d.kind == "failure_cutoff" for d in divs):
            found = True
            break
        # Only episodes whose faults actually fail a proc can trigger it.
    assert found, "no fuzzed episode exercised the cutoff path"


def test_runner_shrinks_first_divergent_pair():
    # The mutation hook forces a sequential run (callables don't cross
    # the pool boundary even with jobs set); the post-sweep shrinker
    # must still pick up the first divergent (episode, mode) pair.
    report = VerifyRunner(
        seed=7, episodes=1, modes=("chip",), n_faults=0,
        mutate=swap_pairs, jobs=4, max_shrink_replays=6,
    ).run()
    assert report["ok"] is False
    assert report["divergence_count"] > 0
    shrunk = report["shrunk_reproducer"]
    assert shrunk["replays"] <= 6
    assert shrunk["spec"]["episode"] == 0
    assert shrunk["spec"]["mode"] == "chip"


def test_runner_report_is_clean_and_deterministic():
    runner = VerifyRunner(seed=9, episodes=1, modes=("chip",), n_faults=0)
    a = runner.run()
    b = VerifyRunner(seed=9, episodes=1, modes=("chip",), n_faults=0).run()
    assert a == b
    assert a["ok"] is True
    assert a["divergence_count"] == 0
    assert a["episodes_run"] == 1
    assert a["results"][0]["messages_delivered"] > 0


@pytest.mark.slow
def test_long_cross_incarnation_sweep():
    report = VerifyRunner(seed=31, episodes=6).run()
    assert report["ok"] is True
    assert report["episodes_run"] == 6 * len(MODES)
    assert report["divergence_count"] == 0
