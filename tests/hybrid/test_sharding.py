"""run_sharded: worker-count invariance, lookahead stalls, failure paths.

The toy model here is deliberately order-sensitive: each shard hashes
its inbox into its running state, so any deviation in event routing
order or window synchronization across worker counts changes the
outputs.  Byte-identity of the outputs across ``workers`` values is
therefore a real test of the barrier discipline, not a vacuous one.
"""

import os

import pytest

from repro.hybrid.fabric import ColdFabricConfig, run_cold_fabric
from repro.parallel import ParallelWorkerError, run_sharded


# ----------------------------------------------------------------------
# Toy order-sensitive shard model (module-level for picklability)
# ----------------------------------------------------------------------
def _toy_init(shard_id):
    return {"id": shard_id, "acc": shard_id * 1000}


def _toy_step(state, window, inbox):
    # Fold the inbox *in order* — reordering changes acc.
    for event in inbox:
        state["acc"] = state["acc"] * 31 + event
    state["acc"] += window
    out = state["acc"]
    # Each shard sends its current acc to the next shard (ring).
    outbox = [((state["id"] + 1) % 4, out % 97)]
    return out, outbox


def _crashy_init(shard_id):
    return shard_id


def _crashy_step(state, window, inbox):
    if state == 2 and window == 1:
        os._exit(13)
    return window, []


def _raisy_step(state, window, inbox):
    if state == 1 and window == 2:
        raise RuntimeError("cold pod exploded")
    return window, []


def _stray_step(state, window, inbox):
    return window, [(99, "event")]


class TestRunSharded:
    def test_outputs_identical_across_worker_counts(self):
        runs = [
            run_sharded(list(range(4)), _toy_init, _toy_step, 6, workers=w)
            for w in (1, 2, 3, 4)
        ]
        baseline_out, baseline_stats = runs[0]
        for out, stats in runs[1:]:
            assert out == baseline_out
            assert stats.as_dict() == baseline_stats.as_dict()
        # The ring exchanged one event per shard per window (none land
        # in window 0's inboxes, so stalls are zero after warm-up).
        assert baseline_stats.cross_shard_events == 4 * 6
        assert baseline_stats.lookahead_stalls == 0

    def test_lookahead_stalls_counted(self):
        def silent_step(state, window, inbox):
            return window, []

        _, stats = run_sharded([0, 1], _toy_init, silent_step, 5, workers=1)
        # Every post-warm-up barrier finds both inboxes empty.
        assert stats.lookahead_stalls == 2 * 4

    def test_zero_windows_or_no_shards(self):
        out, stats = run_sharded([], _toy_init, _toy_step, 5)
        assert out == {}
        out, stats = run_sharded([0], _toy_init, _toy_step, 0)
        assert out == {0: []}

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(ValueError):
            run_sharded([0, 0], _toy_init, _toy_step, 1)

    def test_unknown_destination_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            run_sharded([0, 1], _toy_init, _stray_step, 2, workers=1)

    def test_worker_crash_surfaces_clear_error(self):
        with pytest.raises(ParallelWorkerError, match="died at window 1"):
            run_sharded(
                list(range(4)), _crashy_init, _crashy_step, 4, workers=2
            )

    def test_worker_exception_surfaces_with_context(self):
        with pytest.raises(ParallelWorkerError, match="cold pod exploded"):
            run_sharded(
                list(range(4)), _crashy_init, _raisy_step, 4, workers=2
            )


class TestColdFabricSharding:
    CONFIG = ColdFabricConfig(
        seed=7,
        n_hosts=1024,
        window_ns=1886,
        flows_per_window=16,
        local_fraction_pct=70,
        mean_flow_bytes=4096,
        backpressure_threshold_milli=900,
        cold_pods=tuple(range(2, 16)),
        hot_pods=(0, 1),
        core_uplinks=8,
        # Floats on purpose: topology params carry gbps as floats, and
        # the byte math must still come out pure-integer.
        fabric_link_gbps=100.0,
        host_link_gbps=100.0,
    )

    def test_fabric_outputs_identical_across_workers(self):
        runs = [
            run_cold_fabric(self.CONFIG, 40, workers=w, beacon_bound_ns=1068)
            for w in (1, 2, 5)
        ]
        base_out, base_stats = runs[0]
        for out, stats in runs[1:]:
            assert out == base_out
            assert stats.as_dict() == base_stats.as_dict()
        assert base_stats.cross_shard_events > 0

    def test_fabric_outputs_are_pure_integers(self):
        outputs, _ = run_cold_fabric(
            self.CONFIG, 5, workers=1, beacon_bound_ns=1068
        )
        for records in outputs.values():
            for record in records:
                for key, value in record.items():
                    assert isinstance(value, int), (key, value)

    # _step_pod draws with getrandbits rejection loops in place of
    # randint / randrange / choice (three Python frames per draw).  The
    # stream is only the same while CPython's Random._randbelow is that
    # loop, so pin the equivalence: 10 k flows per shape, the shapes
    # covering spans at, just below and just above a power of two and
    # the one-remote-pod case (bit_length 1, every draw accepted or
    # redrawn on a single bit).
    @pytest.mark.parametrize(
        "mean_flow_bytes,cold_pods,local_pct",
        [
            # (size span, remote pods): one hot pod plus the other colds
            (4096, tuple(range(1, 16)), 70),   # 6145, 15
            (682, (1, 2, 3), 0),               # 1024 = 2**10, 3
            (683, (1, 2), 30),                 # 1026, 2
            (1, (1,), 50),                     # 3, 1
            (0, tuple(range(1, 9)), 99),       # 1, 8 = 2**3
        ],
    )
    def test_inlined_draws_equal_the_random_module(
        self, mean_flow_bytes, cold_pods, local_pct
    ):
        from dataclasses import replace

        from repro.hybrid.fabric import _init_pod, _step_pod

        flows = 10_000
        config = replace(
            self.CONFIG,
            mean_flow_bytes=mean_flow_bytes,
            cold_pods=cold_pods,
            hot_pods=(0,),
            local_fraction_pct=local_pct,
            flows_per_window=flows,
        )
        pod = cold_pods[0]
        state = _init_pod(config, 1068, pod)
        reference = _init_pod(config, 1068, pod).rng
        assert reference is not state.rng
        output, outbox = _step_pod(state, 0, [])

        remote_pods = [p for p in (0,) + cold_pods if p != pod]
        size_lo, size_hi = mean_flow_bytes // 2, mean_flow_bytes * 2
        cap = config.host_window_bytes()
        local = to_hot = 0
        expected_outbox = []
        for _ in range(flows):
            size = min(reference.randint(size_lo, size_hi), cap)
            if reference.randrange(100) < local_pct:
                local += 1
                continue
            dst = reference.choice(remote_pods)
            if dst == 0:
                to_hot += size
            else:
                expected_outbox.append((dst, ("flow", pod, size)))
        assert output["local_flows"] == local
        assert output["to_hot_bytes"] == to_hot
        assert outbox == expected_outbox
        # Same number of words consumed: the next window starts where
        # randint / randrange / choice would have left the stream.
        assert state.rng.getstate() == reference.getstate()
        assert 0 < local < flows or local_pct in (0, 100)
