"""Tests for the one-sided RDMA substrate."""

import pytest

from repro.rdma import MemoryRegion, RdmaAgent, RdmaClient
from repro.sim import Process, Simulator
from tests.instruments import build_single_rack


class TestMemoryRegion:
    def test_read_write(self):
        mr = MemoryRegion()
        assert mr.read("x") is None
        mr.write("x", 42)
        assert mr.read("x") == 42
        assert mr.reads == 2 and mr.writes == 1

    def test_cas_success_and_failure(self):
        mr = MemoryRegion()
        mr.write("a", 1)
        ok, old = mr.compare_and_swap("a", 1, 2)
        assert ok and old == 1 and mr.read("a") == 2
        ok, old = mr.compare_and_swap("a", 1, 3)
        assert not ok and old == 2 and mr.read("a") == 2

    def test_cas_on_empty_word(self):
        mr = MemoryRegion()
        ok, old = mr.compare_and_swap("new", None, 5)
        assert ok and old is None and mr.read("new") == 5


@pytest.fixture()
def rig():
    sim = Simulator(seed=1)
    topo, hosts = build_single_rack(sim, n_hosts=3)
    agent = RdmaAgent(hosts[0])
    client = RdmaClient(hosts[1])
    return sim, agent, client, hosts


class TestRdmaOps:
    def test_remote_write_then_read(self, rig):
        sim, agent, client, hosts = rig
        results = []

        def proc():
            yield client.write("h0", "k", 99)
            value = yield client.read("h0", "k")
            results.append(value)

        Process(sim, proc())
        sim.run(until=100_000)
        assert results == [99]
        assert agent.region.read("k") == 99

    def test_remote_cas(self, rig):
        sim, agent, client, hosts = rig
        agent.region.write("c", 10)
        results = []

        def proc():
            ok, old = yield client.compare_and_swap("h0", "c", 10, 20)
            results.append((ok, old))
            ok, old = yield client.compare_and_swap("h0", "c", 10, 30)
            results.append((ok, old))

        Process(sim, proc())
        sim.run(until=100_000)
        assert results == [(True, 10), (False, 20)]

    def test_no_target_cpu_involved(self, rig):
        """One-sided ops execute even with no endpoint/process logic on
        the target — only the NIC agent."""
        sim, agent, client, hosts = rig
        done = []
        client.write("h0", "addr", "data").add_callback(
            lambda f: done.append(f.value)
        )
        sim.run(until=100_000)
        assert done == [True]
        assert agent.ops_served == 1

    def test_fence_waits_for_outstanding(self, rig):
        sim, agent, client, hosts = rig
        times = {}

        def proc():
            client.write("h0", "a", 1)
            client.write("h0", "b", 2)
            times["before"] = sim.now
            yield client.fence()
            times["after"] = sim.now

        Process(sim, proc())
        sim.run(until=100_000)
        # The fence costs about a round trip.
        assert times["after"] - times["before"] > 1_000

    def test_fence_with_nothing_outstanding_is_free(self, rig):
        sim, agent, client, hosts = rig
        times = {}

        def proc():
            times["before"] = sim.now
            yield client.fence()
            times["after"] = sim.now

        Process(sim, proc())
        sim.run(until=10_000)
        assert times["after"] == times["before"]

    def test_crashed_host_serves_nothing(self, rig):
        sim, agent, client, hosts = rig
        hosts[0].crash()
        done = []
        client.read("h0", "x").add_callback(lambda f: done.append(f.value))
        sim.run(until=200_000)
        assert done == []

    def test_concurrent_clients_counted(self, rig):
        sim, agent, client, hosts = rig
        client2 = RdmaClient(hosts[2])
        for k in range(5):
            client.write("h0", ("k", k), k)
            client2.write("h0", ("j", k), k)
        sim.run(until=200_000)
        assert agent.ops_served == 10
        assert client.completed_ops == 5
        assert client2.completed_ops == 5
