"""The cold fabric loop: its counters, integer outputs and inlined draws."""

import pytest

from repro.hybrid.fabric import ColdFabricConfig, ColdPodState, run_cold_fabric


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

    def test_counters_match_the_outputs(self):
        """Each flow a pod emits in window ``w`` is in its destination's
        ``remote_in`` at ``w + 1``, so a 41-window run's ``remote_in``
        total is the 40-window run's ``cross_shard_events``; a stall is
        a (pod, window >= 1) record with ``remote_in == 0``."""
        outputs, counts = run_cold_fabric(self.CONFIG, 40, 1068)
        longer, _ = run_cold_fabric(self.CONFIG, 41, 1068)
        assert {pod: recs[:40] for pod, recs in longer.items()} == outputs
        assert counts["windows"] == 40
        assert counts["cross_shard_events"] == sum(
            rec["remote_in"] for recs in longer.values() for rec in recs
        ) == 2329
        assert counts["lookahead_stalls"] == sum(
            1
            for recs in outputs.values()
            for rec in recs
            if rec["window"] >= 1 and rec["remote_in"] == 0
        ) == 12

    def test_fabric_outputs_are_pure_integers(self):
        outputs, _ = run_cold_fabric(self.CONFIG, 5, 1068)
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

        from repro.hybrid.fabric import _step_pod

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
        state = ColdPodState(config=config, pod=pod, beacon_bound_ns=1068)
        reference = ColdPodState(config=config, pod=pod).rng
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
