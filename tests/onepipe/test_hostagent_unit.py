"""Unit tests for host-agent stamping and configuration validation."""

import pytest

from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.onepipe.config import MODES
from repro.sim import Simulator


class TestConfigValidation:
    def test_defaults_valid(self):
        config = OnePipeConfig()
        assert config.mode in MODES
        assert config.link_dead_timeout_ns == 30_000

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            OnePipeConfig(beacon_interval_ns=0)

    def test_bad_timeout_multiplier_rejected(self):
        with pytest.raises(ValueError):
            OnePipeConfig(beacon_timeout_multiplier=1)

    def test_frozen(self):
        config = OnePipeConfig()
        with pytest.raises(Exception):
            config.mode = "chip"  # type: ignore[misc]


class TestEgressStamping:
    @pytest.fixture()
    def cluster(self):
        sim = Simulator(seed=1)
        return sim, OnePipeCluster(sim, n_processes=4)

    def test_barrier_stamp_equals_clock_when_idle(self, cluster):
        sim, c = cluster
        sim.run(until=10_000)
        agent = c.endpoint(0).agent
        now = agent.clock.now()
        assert agent.local_barriers(now) == (now, now)

    def test_be_floor_honours_queued_fragments(self, cluster):
        """While a fragment sits in the send CPU, the host's barrier
        promise must not exceed its (eventual) timestamp."""
        sim, c = cluster
        sim.run(until=10_000)
        ep = c.endpoint(0)
        queued_at = ep.agent.clock.now()
        ep.unreliable_send([(1, "x")])  # fragment enters the send CPU
        now = ep.agent.clock.now()
        floor, _commit = ep.agent.local_barriers(now)
        assert floor <= queued_at + c.config.cpu_ns_per_msg + 1

    def test_beacons_counted_per_agent(self, cluster):
        sim, c = cluster
        sim.run(until=50_000)
        for agent in c.agents.values():
            assert agent.beacons_sent >= 10  # ~1 per 3us interval

    def test_receiver_drops_counted(self, cluster):
        sim, c = cluster
        agent = c.endpoint(1).agent
        agent.set_receiver_loss_rate(1.0)
        c.endpoint(0).unreliable_send([(1, "gone")])
        sim.run(until=100_000)
        assert agent.receiver_drops >= 1
        assert c.endpoint(1).receiver.arrivals == 0


class TestMessageTimestamps:
    def test_scattering_fragments_share_timestamp(self):
        sim = Simulator(seed=2)
        c = OnePipeCluster(sim, n_processes=3)
        got = {}
        for i in (1, 2):
            c.endpoint(i).on_recv(lambda m, i=i: got.setdefault(i, m.ts))
        # Multi-fragment messages to two receivers in one scattering.
        c.endpoint(0).unreliable_send([(1, "a", 3000), (2, "b", 3000)])
        sim.run(until=300_000)
        assert set(got) == {1, 2}
        assert got[1] == got[2]

    def test_consecutive_scatterings_strictly_ordered(self):
        sim = Simulator(seed=3)
        c = OnePipeCluster(sim, n_processes=2)
        timestamps = []
        c.endpoint(1).on_recv(lambda m: timestamps.append(m.ts))
        for k in range(10):
            c.endpoint(0).unreliable_send([(1, k)])
        sim.run(until=300_000)
        assert len(timestamps) == 10
        # Monotone; equal timestamps possible only at ns collisions.
        assert timestamps == sorted(timestamps)
