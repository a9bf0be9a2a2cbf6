"""Tests for consistent distributed snapshots (§2.2.4)."""

import pytest

from repro.apps.snapshot import SnapshotCoordinator, TokenConservationDemo
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator


@pytest.fixture()
def demo():
    sim = Simulator(seed=1)
    cluster = OnePipeCluster(sim, n_processes=6)
    return sim, cluster, TokenConservationDemo(cluster, list(range(6)))


class TestTokenConservation:
    def test_quiescent_snapshot_sums_to_total(self, demo):
        sim, cluster, d = demo
        totals = []
        sim.schedule(
            100_000,
            lambda: d.coordinator.take_snapshot(0).add_callback(
                lambda f: totals.append(sum(f.value.values()))
            ),
        )
        sim.run(until=1_000_000)
        assert totals == [d.total]

    def test_snapshot_during_transfers_conserves_value(self, demo):
        """The core property: a snapshot concurrent with in-flight
        transfers still sums to the invariant total."""
        sim, cluster, d = demo
        rng = sim.rng("transfers")
        for k in range(60):
            src = rng.randrange(6)
            dst = (src + 1 + rng.randrange(5)) % 6
            sim.schedule(
                20_000 + k * 5_000, d.transfer, src, dst, rng.randint(1, 20)
            )
        totals = []
        for t in (50_000, 150_000, 250_000):
            sim.schedule(
                t,
                lambda: d.coordinator.take_snapshot(2).add_callback(
                    lambda f: totals.append(sum(f.value.values()))
                ),
            )
        sim.run(until=2_000_000)
        assert totals == [d.total] * 3

    def test_final_balances_conserved(self, demo):
        sim, cluster, d = demo
        d.transfer(0, 1, 30)
        d.transfer(1, 2, 10)
        sim.run(until=500_000)
        assert sum(d.balances.values()) == d.total
        assert d.balances[0] == 70


class TestSnapshotCoordinator:
    def test_states_recorded_per_snapshot_id(self):
        sim = Simulator(seed=2)
        cluster = OnePipeCluster(sim, n_processes=3)
        coordinator = SnapshotCoordinator(cluster, [0, 1, 2])
        state = {"v": 0}
        for p in range(3):
            coordinator.register(
                p,
                on_message=lambda src, body: state.__setitem__(
                    "v", state["v"] + body
                ),
                snapshot_fn=lambda: state["v"],
            )
        results = []
        coordinator.take_snapshot(0).add_callback(
            lambda f: results.append(f.value)
        )
        sim.run(until=500_000)
        assert len(results) == 1
        assert set(results[0]) == {0, 1, 2}

    def test_two_snapshots_are_ordered_consistently(self):
        """Two concurrent snapshot initiators: every process records
        them in the same (timestamp) order, so snapshot ids map to
        nested cuts."""
        sim = Simulator(seed=3)
        cluster = OnePipeCluster(sim, n_processes=4)
        coordinator = SnapshotCoordinator(cluster, [0, 1, 2, 3])
        counters = {p: 0 for p in range(4)}
        for p in range(4):
            coordinator.register(
                p,
                on_message=lambda src, body, p=p: counters.__setitem__(
                    p, counters[p] + 1
                ),
                snapshot_fn=lambda p=p: counters[p],
            )
        # Interleave app traffic with two snapshots from different
        # initiators at nearly the same time.
        for k in range(20):
            sim.schedule(
                10_000 + k * 3_000,
                cluster.endpoint(k % 4).reliable_send,
                [((k + 1) % 4, ("app", k), 64)],
            )
        snaps = {}
        sim.schedule(
            40_000,
            lambda: coordinator.take_snapshot(0).add_callback(
                lambda f: snaps.__setitem__("a", f.value)
            ),
        )
        sim.schedule(
            40_001,
            lambda: coordinator.take_snapshot(3).add_callback(
                lambda f: snaps.__setitem__("b", f.value)
            ),
        )
        sim.run(until=2_000_000)
        assert set(snaps) == {"a", "b"}
        # One cut dominates the other: per-process counters of one
        # snapshot are all <= the other's (no crossing cuts).
        a, b = snaps["a"], snaps["b"]
        ge = all(a[p] >= b[p] for p in range(4))
        le = all(a[p] <= b[p] for p in range(4))
        assert ge or le
