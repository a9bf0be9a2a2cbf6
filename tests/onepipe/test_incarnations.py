"""Unit tests for the three in-network incarnations (§6.2).

Engines are built standalone, each with its own beacon fabric; beacons
enter through ``on_beacon``, data through ``on_packet``.
"""

import pytest

from repro.net import PacketKind
from repro.net.packet import Packet
from repro.onepipe.analytic import BeaconFabric
from repro.onepipe.config import OnePipeConfig
from repro.onepipe.incarnations import (
    HostDelegationEngine,
    ProgrammableChipEngine,
    SwitchCpuEngine,
    make_engine,
)
from repro.sim import Simulator
from tests.instruments import build_single_rack


@pytest.fixture()
def rig():
    """A bare switch with 3 in-links and 2 out-links plus a chip engine."""
    sim = Simulator(seed=1)
    topo, hosts = build_single_rack(sim, n_hosts=3)
    switch = topo.switches["tor0.0.up"]
    engine = ProgrammableChipEngine(sim, OnePipeConfig(), BeaconFabric(sim))
    switch.install_engine(engine)
    in_links = [h.uplink for h in hosts]
    return sim, switch, engine, in_links


def barrier_packet(barrier, commit=0, kind=PacketKind.DATA):
    return Packet(kind, barrier_ts=barrier, commit_ts=commit, dst_host="h0")


def beacon(engine, link, barrier, commit=0):
    """A beacon emitted now, unauthenticated (fail-stop modes)."""
    engine.on_beacon(link, barrier, commit, engine.sim.now, 0)


class TestChipEngine:
    def test_data_packet_stamped_with_minimum(self, rig):
        sim, switch, engine, links = rig
        engine.on_packet(barrier_packet(100), links[0])
        engine.on_packet(barrier_packet(50), links[1])
        pkt = barrier_packet(80)
        forward = engine.on_packet(pkt, links[2])
        assert forward is True
        # Registers: 100, 50, 80 -> the packet leaves carrying min = 50.
        assert pkt.barrier_ts == 50

    def test_own_link_register_updated_before_stamping(self, rig):
        sim, switch, engine, links = rig
        engine.on_packet(barrier_packet(100), links[0])
        engine.on_packet(barrier_packet(100), links[1])
        pkt = barrier_packet(120)
        engine.on_packet(pkt, links[2])
        assert pkt.barrier_ts == 100
        assert engine.be.register_value(links[2]) == 120

    def test_beacons_consumed_not_forwarded(self, rig):
        sim, switch, engine, links = rig
        forwarded = []
        switch._forward_cb = forwarded.append
        switch.receive(barrier_packet(10, kind=PacketKind.BEACON), links[0])
        sim.run(until=1_000)
        assert forwarded == []
        assert engine.be.register_value(links[0]) == 10

    def test_commit_plane_independent_of_be_plane(self, rig):
        sim, switch, engine, links = rig
        for link in links:
            engine.on_packet(barrier_packet(1000, commit=10), link)
        pkt = barrier_packet(2000, commit=30)
        engine.on_packet(pkt, links[0])
        assert pkt.barrier_ts == 1000
        assert pkt.commit_ts == 10

    def test_liveness_removes_dead_link_from_be(self, rig):
        sim, switch, engine, links = rig
        config = engine.config
        # Feed two links periodically; let the third go silent.
        def feed():
            engine.on_packet(barrier_packet(sim.now + 1), links[0])
            engine.on_packet(barrier_packet(sim.now + 1), links[1])

        task = sim.every(config.beacon_interval_ns, feed)
        sim.run(until=config.link_dead_timeout_ns * 3)
        task.cancel()
        assert not engine.be.has_link(links[2])
        assert engine.links_declared_dead == 1

    def test_dead_link_reported_to_listener(self):
        sim = Simulator(seed=2)
        topo, hosts = build_single_rack(sim, n_hosts=2)
        switch = topo.switches["tor0.0.up"]
        reports = []
        engine = ProgrammableChipEngine(
            sim,
            OnePipeConfig(),
            BeaconFabric(sim),
            failure_listener=lambda sw, link, ts: reports.append((sw, link, ts)),
        )
        switch.install_engine(engine)
        engine.on_packet(barrier_packet(55, commit=44), hosts[0].uplink)
        sim.run(until=OnePipeConfig().link_dead_timeout_ns * 2)
        # Both links eventually time out; the fed one carries commit 44.
        assert len(reports) == 2
        dead = {link: ts for _sw, link, ts in reports}
        assert dead[hosts[0].uplink] == 44
        # Commit plane keeps the link until the controller's Resume.
        assert engine.commit.has_link(hosts[0].uplink)
        engine._dead.add(hosts[0].uplink)  # (already there)
        engine.remove_commit_link(hosts[0].uplink)
        assert not engine.commit.has_link(hosts[0].uplink)

    def test_rejoin_after_traffic_resumes(self, rig):
        sim, switch, engine, links = rig
        engine._dead.add(links[0])
        engine.be.remove_link(links[0])
        engine.commit.remove_link(links[0])
        engine.on_packet(barrier_packet(999), links[0])
        assert engine.be.has_link(links[0])
        assert links[0] not in engine._dead


class TestCpuEngines:
    def test_data_passes_untouched(self):
        sim = Simulator(seed=3)
        topo, hosts = build_single_rack(sim, n_hosts=2)
        switch = topo.switches["tor0.0.up"]
        engine = SwitchCpuEngine(
            sim, OnePipeConfig(mode="switch_cpu"), BeaconFabric(sim)
        )
        switch.install_engine(engine)
        pkt = barrier_packet(12345)
        assert engine.on_packet(pkt, hosts[0].uplink) is True
        assert pkt.barrier_ts == 12345  # not rewritten

    def test_beacon_register_update_is_delayed(self):
        sim = Simulator(seed=3)
        topo, hosts = build_single_rack(sim, n_hosts=2)
        switch = topo.switches["tor0.0.up"]
        config = OnePipeConfig(mode="switch_cpu", switch_cpu_delay_ns=5_000)
        engine = SwitchCpuEngine(sim, config, BeaconFabric(sim))
        switch.install_engine(engine)
        beacon(engine, hosts[0].uplink, 500)
        assert engine.be.register_value(hosts[0].uplink) == 0
        sim.run(until=5_100)
        assert engine.be.register_value(hosts[0].uplink) == 500

    def test_host_delegate_uses_configured_delay(self):
        sim = Simulator(seed=3)
        config = OnePipeConfig(mode="host_delegate", host_delegate_delay_ns=7_000)
        engine = HostDelegationEngine(sim, config, BeaconFabric(sim))
        assert engine.processing_delay_ns == 7_000


class TestFactory:
    @pytest.mark.parametrize(
        "mode,cls",
        [
            ("chip", ProgrammableChipEngine),
            ("switch_cpu", SwitchCpuEngine),
            ("host_delegate", HostDelegationEngine),
        ],
    )
    def test_make_engine(self, mode, cls):
        sim = Simulator()
        engine = make_engine(sim, OnePipeConfig(mode=mode), BeaconFabric(sim))
        assert type(engine) is cls

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            OnePipeConfig(mode="quantum")
