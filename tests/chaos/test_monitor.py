"""Tests for the cluster-wide invariant monitor.

The positive tests drive real traffic and expect silence; the negative
tests break a receiver's ordering layer (or the barrier tracker) and
expect violations that name the replay seed.
"""

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


def swap_next_two(receiver):
    """Break ``receiver``'s ordering layer: it hands its next two
    deliveries to the application swapped, then behaves again."""
    original = receiver._deliver
    held = []

    def swapped(*args):
        if not held:
            held.append(args)
            return
        receiver._deliver = original
        original(*args)
        original(*held.pop())

    receiver._deliver = swapped


def deliver_next_twice(receiver):
    original = receiver._deliver

    def twice(*args):
        receiver._deliver = original
        original(*args)
        original(*args)

    receiver._deliver = twice


class TestBrokenOrderingIsCaught:
    """A broken receiver feeds the real delivery path; the monitor's
    record must reach the oracle and come back stamped for replay.  The
    rules themselves are unit-tested in tests/verify/test_oracle.py."""

    def test_out_of_order_delivery_names_the_seed(self):
        """An ordering layer that hands a receiver the later of two
        messages first must be flagged — the acceptance check for a
        broken total order."""
        sim, cluster = build(seed=99)
        monitor = InvariantMonitor(cluster)
        swap_next_two(cluster.endpoint(2).receiver)
        sim.schedule(10_000, cluster.endpoint(0).unreliable_send, [(2, "a")])
        sim.schedule(30_000, cluster.endpoint(1).unreliable_send, [(2, "b")])
        sim.run(until=500_000)
        violations = monitor.final_check()
        assert [v.invariant for v in violations] == ["order"]
        (deliver_time, _c, _e, _f), _second = sim.tracer.filter(
            "recv.2", "deliver"
        )
        assert violations[0].seed == 99
        assert violations[0].receiver == 2
        assert violations[0].time == deliver_time
        assert "seed=99" in str(violations[0])

    def test_duplicate_delivery_is_caught(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        deliver_next_twice(cluster.endpoint(3).receiver)
        cluster.endpoint(1).reliable_send([(3, "dup")])
        sim.run(until=500_000)
        assert [v.invariant for v in monitor.final_check()] == ["duplicate"]

    def test_fifo_inversion_is_caught(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        swap_next_two(cluster.endpoint(0).receiver)
        sim.schedule(10_000, cluster.endpoint(1).unreliable_send, [(0, "first")])
        sim.schedule(30_000, cluster.endpoint(1).unreliable_send, [(0, "second")])
        sim.run(until=500_000)
        assert "pair_fifo" in [v.invariant for v in monitor.final_check()]

    def test_cross_receiver_disagreement_is_caught(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        swap_next_two(cluster.endpoint(1).receiver)
        sim.schedule(10_000, cluster.endpoint(2).unreliable_send,
                     [(0, "m1"), (1, "m1")])
        sim.schedule(30_000, cluster.endpoint(3).unreliable_send,
                     [(0, "m2"), (1, "m2")])
        sim.run(until=500_000)
        assert [(v.invariant, v.receiver) for v in monitor.final_check()] == [
            ("order", 1)
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
        """I6: a reliable delivery at or past the sender's failure
        timestamp is red, even with no discard notice (docs/TESTING.md)."""
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        cluster.endpoint(5).reliable_send([(0, "zombie")])
        sim.run(until=500_000)
        cluster.controller.failed_procs[5] = 0
        assert [v.invariant for v in monitor.final_check()] == [
            "failure_cutoff_strict"
        ]

    def test_delivery_below_cutoff_is_fine(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        cluster.endpoint(5).reliable_send([(0, "ok")])
        sim.run(until=500_000)
        cluster.controller.failed_procs[5] = 10**15
        assert monitor.final_check() == []

    def test_reliable_exactly_once_after_quiesce(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        cluster.endpoint(0).reliable_send([(1, "must-arrive"), (2, "also")])
        sim.run(until=2_000_000)
        assert monitor.final_check() == []
        assert monitor.total_delivered() == 2

    def test_lost_completed_scattering_is_caught(self):
        sim, cluster = build()
        monitor = InvariantMonitor(cluster)
        scattering = cluster.endpoint(0).reliable_send([(1, "gone")])
        sim.run(until=2_000_000)
        assert scattering.completed.done and scattering.completed.value
        # Pretend receiver 1 never delivered it.
        sim.tracer.records[:] = [
            record for record in sim.tracer.records
            if record[2] != "deliver" or record[3]["payload"] != "gone"
        ]
        assert [v.invariant for v in monitor.final_check()] == [
            "reliable_missing"
        ]
