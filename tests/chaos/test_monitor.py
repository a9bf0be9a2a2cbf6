"""Tests for the cluster-wide invariant monitor.

The positive tests drive real traffic and expect silence; the negative
tests bypass the (correct) ordering layer and hand the monitor
deliberately broken delivery streams, which it must flag with
violations that name the replay seed.
"""

import pytest

from repro.chaos import InvariantMonitor, InvariantViolation
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator


def build(seed=3, n=8):
    sim = Simulator(seed=seed)
    cluster = OnePipeCluster(sim, n_processes=n)
    return sim, cluster


class TestCleanRuns:
    def test_no_violations_on_healthy_traffic(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)

        def traffic():
            for s in range(8):
                ep = cluster.endpoint(s)
                ep.unreliable_send([((s + 1) % 8, f"u{s}.{sim.now}")])
                ep.reliable_send([((s + 3) % 8, f"r{s}.{sim.now}")])

        sim.every(20_000, traffic)
        sim.run(until=1_000_000)
        assert monitor.final_check() == []
        assert monitor.total_delivered() > 0
        assert monitor.total_sent_scatterings > 0
        assert monitor.summary() == {}

    def test_counts_messages_and_scatterings(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        cluster.endpoint(0).unreliable_send([(1, "a"), (2, "b"), (3, "c")])
        cluster.endpoint(4).reliable_send([(5, "d")])
        sim.run(until=500_000)
        assert monitor.total_sent_scatterings == 2
        assert monitor.total_sent_messages == 4
        assert monitor.total_delivered() == 4


class TestBrokenOrderingIsCaught:
    def test_out_of_order_delivery_names_the_seed(self):
        """An ordering layer that hands a receiver (ts=50) after (ts=100)
        must be flagged — this is the acceptance check for a broken
        total order."""
        sim, cluster = build(seed=99)
        monitor = InvariantMonitor(cluster)
        ep = cluster.endpoint(0)
        ep._dispatch_delivery(100, 2, "late", False)
        ep._dispatch_delivery(50, 1, "early", False)
        violations = [
            v for v in monitor.violations
            if v.invariant == "per_receiver_order"
        ]
        assert len(violations) == 1
        assert violations[0].seed == 99
        assert violations[0].receiver == 0
        assert "seed=99" in str(violations[0])

    def test_raise_immediately_raises_at_detection_point(self):
        sim, cluster = build(seed=41)
        InvariantMonitor(cluster, raise_immediately=True)
        ep = cluster.endpoint(2)
        ep._dispatch_delivery(100, 1, "x", False)
        with pytest.raises(InvariantViolation) as excinfo:
            ep._dispatch_delivery(10, 1, "y", False)
        assert excinfo.value.seed == 41
        assert excinfo.value.invariant == "per_receiver_order"

    def test_duplicate_delivery_is_caught(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        ep = cluster.endpoint(3)
        ep._dispatch_delivery(100, 1, "dup", True)
        ep._dispatch_delivery(100, 1, "dup", True)
        assert [v.invariant for v in monitor.violations] == ["at_most_once"]

    def test_fifo_inversion_is_caught(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        monitor._note_send(1, [(0, "first"), (0, "second")],
                           reliable=False, scattering=None)
        ep = cluster.endpoint(0)
        ep._dispatch_delivery(10, 1, "second", False)
        ep._dispatch_delivery(20, 1, "first", False)
        assert "pair_fifo" in [v.invariant for v in monitor.violations]

    def test_cross_receiver_disagreement_is_caught(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        a, b = cluster.endpoint(0), cluster.endpoint(1)
        a._dispatch_delivery(100, 2, "m1", False)
        a._dispatch_delivery(100, 3, "m2", False)
        b._dispatch_delivery(100, 3, "m2", False)
        b._dispatch_delivery(100, 2, "m1", False)
        monitor.check_agreement()
        assert "cross_receiver_agreement" in [
            v.invariant for v in monitor.violations
        ]

    def test_barrier_regression_is_caught(self):
        """A (deliberately broken) barrier tracker that assigns blindly
        instead of taking the max must be flagged by the monitor hook."""
        sim, cluster = build(seed=13)
        agent = cluster.endpoint(0).agent

        def buggy_update(be_barrier, commit_barrier):
            agent.rx_be_barrier = be_barrier
            agent.rx_commit_barrier = commit_barrier
            sim.post(0, agent._flush)

        agent._update_barriers = buggy_update
        monitor = InvariantMonitor(cluster)
        # Far above anything a real beacon carries this early, so the
        # (correct) beacon ingress never moves the pair in between.
        agent._update_barriers(10**12, 9 * 10**11)
        sim.run(until=sim.now + 1)
        assert monitor.violations == []
        agent._update_barriers(4 * 10**11, 3 * 10**11)
        sim.run(until=sim.now + 1)
        invariants = [v.invariant for v in monitor.violations]
        assert invariants.count("barrier_monotonic") == 2
        assert all(v.seed == 13 for v in monitor.violations)

    def test_barrier_regression_through_the_fabric_is_caught(self):
        """Same bug class on the default transport: the fabric's inlined
        host ingress writes the barriers itself (no ``_update_barriers``
        call), so the check must fire from what the fabric-posted flush
        hands the receivers.  The agent forgets its pair after every
        flush — which turns the ingress guard into a blind assignment —
        and a stale beacon is sent down the ToR→host link through the
        fabric's own emission entry point."""
        sim, cluster = build(seed=13)
        agent = cluster.endpoint(0).agent
        correct_flush = agent._flush

        def forgetful_flush():
            correct_flush()
            agent.rx_be_barrier = agent.rx_commit_barrier = 0

        agent._flush = forgetful_flush
        monitor = InvariantMonitor(cluster)
        sim.run(until=200_000)
        # An idle cluster moves barriers only through fabric beacons,
        # and real ToR emissions are monotone: thousands of flushes
        # observed (an unobserved run must not look clean), none flagged.
        assert cluster.fabric.virtual_beacons > 0
        assert monitor.barrier_checks > 100
        assert monitor.violations == []
        cluster.fabric.emit([agent.host.downlink], 2, 1, 0)
        sim.run(until=sim.now + 3_000)
        violations = [
            v for v in monitor.violations
            if v.invariant == "barrier_monotonic"
        ]
        assert len(violations) == 2
        assert "-> 2" in violations[0].detail
        assert "-> 1" in violations[1].detail
        assert all(v.seed == 13 for v in violations)

    def test_violation_to_dict_is_json_ready(self):
        violation = InvariantViolation(
            invariant="per_receiver_order", detail="d", seed=7,
            time=123, episode=4, mode="chip", receiver=2,
        )
        assert violation.to_dict() == {
            "invariant": "per_receiver_order", "detail": "d", "seed": 7,
            "time": 123, "episode": 4, "mode": "chip", "receiver": 2,
        }


class TestFailureAwareChecks:
    def test_failure_cutoff_violation_detected(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        cluster.controller.failed_procs[5] = 1000
        ep = cluster.endpoint(0)
        ep._dispatch_delivery(1500, 5, "zombie", True)
        monitor.check_failure_cutoffs()
        assert "failure_cutoff" in [v.invariant for v in monitor.violations]

    def test_delivery_below_cutoff_is_fine(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        cluster.controller.failed_procs[5] = 1000
        cluster.endpoint(0)._dispatch_delivery(900, 5, "ok", True)
        monitor.check_failure_cutoffs()
        assert monitor.violations == []

    def test_reliable_exactly_once_after_quiesce(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        cluster.endpoint(0).reliable_send([(1, "must-arrive"), (2, "also")])
        sim.run(until=2_000_000)
        monitor.check_reliable_exactly_once()
        assert monitor.violations == []

    def test_lost_completed_scattering_is_caught(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        scattering = cluster.endpoint(0).reliable_send([(1, "gone")])
        sim.run(until=2_000_000)
        assert scattering.completed.done and scattering.completed.value
        # Pretend receiver 1 never delivered it.
        monitor.deliveries[1] = [
            m for m in monitor.deliveries[1] if m.payload != "gone"
        ]
        monitor.check_reliable_exactly_once()
        assert "reliable_exactly_once" in [
            v.invariant for v in monitor.violations
        ]
