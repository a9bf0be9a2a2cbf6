"""Tests for the seeded chaos schedule and campaign runner."""

import json

import pytest

from repro.chaos import CampaignRunner, ChaosSchedule
from repro.net.topology import build_testbed
from repro.obs.export import write_json
from repro.sim import Simulator

SMALL = dict(
    episodes=3,
    n_processes=8,
    horizon_ns=800_000,
    drain_ns=2_000_000,
    faults_per_episode=3,
)


class TestChaosSchedule:
    def test_same_seed_same_schedule(self):
        schedules = []
        for _ in range(2):
            sim = Simulator(seed=9)
            topo = build_testbed(sim)
            schedules.append(ChaosSchedule.generate(
                sim.rng("chaos.schedule.0"), topo, 1_500_000, n_faults=6
            ).to_list())
        assert schedules[0] == schedules[1]

    def test_different_seeds_differ(self):
        schedules = []
        for seed in (9, 10):
            sim = Simulator(seed=seed)
            topo = build_testbed(sim)
            schedules.append(ChaosSchedule.generate(
                sim.rng("chaos.schedule.0"), topo, 1_500_000, n_faults=6
            ).to_list())
        assert schedules[0] != schedules[1]

    def test_events_fit_inside_the_horizon(self):
        sim = Simulator(seed=11)
        topo = build_testbed(sim)
        horizon = 1_500_000
        schedule = ChaosSchedule.generate(
            sim.rng("s"), topo, horizon, n_faults=12
        )
        for event in schedule:
            assert 0 <= event.at <= horizon
            assert event.at + event.duration_ns <= horizon

    def test_at_most_one_crash_per_episode(self):
        sim = Simulator(seed=12)
        topo = build_testbed(sim)
        schedule = ChaosSchedule.generate(
            sim.rng("s"), topo, 1_500_000, n_faults=20
        )
        kinds = [event.kind for event in schedule]
        assert kinds.count("crash_host") <= 1
        assert kinds.count("switch_flap") <= 1
        assert kinds.count("cable_flap") <= 1


class TestCampaign:
    def test_small_campaign_holds_all_invariants(self):
        report = CampaignRunner(seed=3, **SMALL).run()
        assert report["ok"] is True
        assert report["total_violations"] == 0
        assert report["messages_delivered"] > 0
        modes = [r["mode"] for r in report["episode_reports"]]
        assert modes == ["chip", "switch_cpu", "host_delegate"]
        for episode_report in report["episode_reports"]:
            assert len(episode_report["faults"]) == 3
            assert episode_report["seed"] == (
                3 * 1_000_003 + episode_report["episode"]
            )

    def test_campaign_report_is_bit_identical_for_fixed_seed(self):
        dumps = [
            json.dumps(CampaignRunner(seed=5, episodes=2,
                                      n_processes=8,
                                      horizon_ns=600_000,
                                      drain_ns=1_500_000,
                                      faults_per_episode=2).run(),
                       sort_keys=True)
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_raft_backed_episode_holds_invariants(self):
        report = CampaignRunner(
            seed=8, episodes=1, n_processes=8,
            horizon_ns=800_000, drain_ns=2_000_000,
            faults_per_episode=3, use_raft=True,
        ).run()
        assert report["ok"] is True
        assert report["campaign"]["use_raft"] is True

    def test_report_during_broadcast_is_carried_not_crashed(self):
        """Seed 101, episode 5: a dead-link report lands during
        Broadcast and its batch timer fires after Resume.  The
        controller once crashed there; the report now opens a second
        recovery and the episode holds every invariant."""
        report = CampaignRunner(seed=101, episodes=6).run_episode(5)
        assert report["violations"] == []
        assert len(report["recoveries"]) == 2
        assert report["messages_delivered"] == 375

    def test_write_report_round_trips(self, tmp_path):
        report = {"ok": True, "total_violations": 0}
        path = tmp_path / "nested" / "report.json"
        write_json(report, str(path))
        assert json.loads(path.read_text()) == report
