"""Unit/integration tests for the controller and host-agent plumbing."""

import pytest

from repro.consensus.raft import RaftGroup, RaftReplicator
from repro.net import FailureInjector
from repro.onepipe import OnePipeCluster
from repro.onepipe.failure import DeadLinkReport
from repro.sim import Simulator

from tests.onepipe.conftest import Recorder


class TestRecoveryEpisodes:
    def test_reports_batched_into_one_episode(self):
        """A ToR crash produces several dead-link reports (one per
        spine); the controller coalesces them into one episode."""
        sim = Simulator(seed=51)
        cluster = OnePipeCluster(sim, n_processes=16)
        Recorder(cluster)
        injector = FailureInjector(cluster.topology)

        def traffic():
            for s in range(8, 16):
                ep = cluster.endpoint(s)
                if not ep.agent.host.failed:
                    ep.reliable_send([((s + 1) % 16, "x")])

        sim.every(20_000, traffic)
        injector.crash_switch("tor0.0", at=150_000)
        sim.run(until=2_000_000)
        controller = cluster.controller
        assert len(controller.recoveries) == 1
        episode = controller.recoveries[0]
        assert len(episode.dead_links) >= 2  # both spine uplinks reported
        assert len(episode.failed_procs) == 8

    def test_reroute_after_link_failure(self):
        """After the controller removes a dead core link, traffic takes
        the surviving paths (ECMP around the failure)."""
        sim = Simulator(seed=52)
        cluster = OnePipeCluster(sim, n_processes=32)
        rec = Recorder(cluster)
        injector = FailureInjector(cluster.topology)
        injector.cut_cable("spine0.0.up", "core0", at=100_000)
        injector.cut_cable("core0", "spine0.0.down", at=100_000)

        def traffic(r):
            for s in range(0, 8):
                cluster.endpoint(s).reliable_send([(s + 16, f"{r}:{s}")])

        for r in range(30):
            sim.schedule(r * 20_000, traffic, r)
        sim.run(until=4_000_000)
        assert cluster.controller.failed_procs == {}
        assert rec.total_delivered() == 30 * 8
        dead = cluster.topology.link("spine0.0.up", "core0")
        assert dead in cluster.controller._all_dead_links

    def test_failed_sender_messages_fail_fast_after_episode(self):
        sim = Simulator(seed=53)
        cluster = OnePipeCluster(sim, n_processes=8)
        rec = Recorder(cluster)
        injector = FailureInjector(cluster.topology)
        sim.every(20_000, lambda: [
            cluster.endpoint(s).reliable_send([((s + 1) % 8, "x")])
            for s in range(8)
            if not cluster.endpoint(s).agent.host.failed
        ])
        injector.crash_host("h5", at=150_000)
        sim.run(until=2_000_000)
        failures_before = len(rec.send_failures[2])
        cluster.endpoint(2).reliable_send([(5, "to the dead")])
        sim.run(until=sim.now + 100_000)
        assert len(rec.send_failures[2]) == failures_before + 1


class TestRaftBackedController:
    def test_cluster_with_raft_replicator_recovers(self):
        sim = Simulator(seed=54)
        group = RaftGroup(sim, n_nodes=3)
        sim.run(until=2_000_000)  # elect a leader
        assert group.leader() is not None
        replicator = RaftReplicator(group)
        cluster = OnePipeCluster(sim, n_processes=8, replicator=replicator)
        rec = Recorder(cluster)
        injector = FailureInjector(cluster.topology)
        crash_at = sim.now + 150_000
        sim.every(20_000, lambda: [
            cluster.endpoint(s).reliable_send([((s + 1) % 8, "x")])
            for s in range(8)
            if not cluster.endpoint(s).agent.host.failed
        ])
        injector.crash_host("h1", at=crash_at)
        sim.run(until=crash_at + 3_000_000)
        assert 1 in cluster.controller.failed_procs
        assert len(cluster.controller.recoveries) == 1
        # The failure record went through the Raft log.
        leader = group.leader()
        commands = [e.command for e in leader.log]
        assert any(
            isinstance(c, tuple) and c[0] == "__ctrl" for c in commands
        )

    def test_recovery_survives_raft_leader_crash(self):
        sim = Simulator(seed=55)
        group = RaftGroup(sim, n_nodes=3)
        sim.run(until=2_000_000)
        replicator = RaftReplicator(group)
        cluster = OnePipeCluster(sim, n_processes=8, replicator=replicator)
        Recorder(cluster)
        injector = FailureInjector(cluster.topology)
        crash_at = sim.now + 150_000
        sim.every(20_000, lambda: [
            cluster.endpoint(s).reliable_send([((s + 1) % 8, "x")])
            for s in range(8)
            if not cluster.endpoint(s).agent.host.failed
        ])
        injector.crash_host("h1", at=crash_at)
        # Kill the Raft leader right around the controller's proposal.
        sim.schedule_at(crash_at + 25_000, lambda: group.leader().crash())
        sim.run(until=crash_at + 8_000_000)
        # A new leader commits the decision; recovery still completes.
        assert 1 in cluster.controller.failed_procs
        assert len(cluster.controller.recoveries) == 1


class TestHostAgentPlumbing:
    def test_commit_barrier_stamp_is_min_over_processes(self):
        """Two processes on one host: the uplink's commit stamp must
        cover the *laggard* process."""
        sim = Simulator(seed=56)
        cluster = OnePipeCluster(sim, n_processes=64)  # 2 per host
        colocated = [
            ep for ep in cluster.endpoints if ep.host_id == "h0"
        ]
        assert len(colocated) == 2
        a, b = colocated
        # Block ACKs back to h0 so a's reliable message stays unACKed.
        cluster.topology.link("tor0.0.down", "h0").fail()
        scattering = a.reliable_send([(5, "pin")])
        sim.run(until=60_000)
        assert scattering.ts is not None
        agent = a.agent
        _be, stamp = agent.local_barriers(agent.clock.now())
        assert stamp <= scattering.ts
        cluster.topology.link("tor0.0.down", "h0").recover()
        sim.run(until=600_000)
        assert scattering.all_acked()

    def test_flush_coalescing(self):
        """Many barrier updates in one instant trigger one flush."""
        sim = Simulator(seed=57)
        cluster = OnePipeCluster(sim, n_processes=4)
        agent = cluster.endpoint(0).agent
        calls = []
        original = agent._flush

        def counting_flush():
            calls.append(sim.now)
            original()

        agent._flush = counting_flush
        base = 10**9
        agent._update_barriers(base + 100, base + 50)
        agent._update_barriers(base + 200, base + 60)
        agent._update_barriers(base + 300, base + 70)
        sim.run(until=1_000)
        assert len(calls) == 1


def test_resume_without_active_episode_is_noop():
    """Two report batches can race to Resume (seen under chaos link
    flaps); the loser must find the episode gone and do nothing."""
    sim = Simulator(seed=60)
    cluster = OnePipeCluster(sim, n_processes=4)
    cluster.controller._resume()
    assert cluster.controller.recoveries == []


def test_report_between_determine_and_resume_opens_the_next_episode():
    """A dead-link report that lands after Determine was not in that
    episode's cut.  Resume leaves it undecided: it opens the next
    episode, and the batch timer its arrival armed determines it
    (before, Resume cleared the episode under the armed timer, and
    the timer's Determine crashed on the missing episode)."""
    sim = Simulator(seed=61)
    cluster = OnePipeCluster(sim, n_processes=8)
    controller = cluster.controller
    late_link = cluster.topology.link("spine0.0.up", "core0")
    real_resume = controller._resume

    def resume_after_a_late_report():
        if not controller.recoveries:
            assert controller._episode.determine_time is not None
            controller._receive_report(DeadLinkReport("core0", late_link, 0))
        real_resume()
        if len(controller.recoveries) == 1:
            # Resumed only what Determine decided.
            assert late_link not in controller._all_dead_links
            assert controller._episode is not None

    controller._resume = resume_after_a_late_report
    FailureInjector(cluster.topology).crash_host("h3", at=100_000)
    sim.run(until=1_000_000)
    first, second = controller.recoveries
    assert first.failed_procs == [(3, controller.failed_procs[3])]
    assert late_link.name in first.dead_links
    assert second.dead_links == []  # counted once, on arrival
    assert second.failed_procs == []
    assert second.determine_time > first.determine_time
    assert second.resume_time > first.resume_time
    assert late_link in controller._all_dead_links
    assert controller._episode is None
