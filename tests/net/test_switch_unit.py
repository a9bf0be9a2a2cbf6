"""Unit tests for switch internals: taps, ECMP modes, crash semantics."""

import pytest

from repro.net import Packet, PacketKind, build_testbed
from repro.sim import Simulator
from tests.instruments import PacketTap, build_single_rack


def raw(dst_host, src=1, dst=2):
    return Packet(
        PacketKind.RAW, src=src, dst=dst, dst_host=dst_host,
        payload=("t", None), payload_bytes=16,
    )


class TestPacketTap:
    def test_tap_observes_and_forwards(self):
        sim = Simulator()
        topo, hosts = build_single_rack(sim, n_hosts=2)
        tap = PacketTap(topo.switches["tor0.0.up"])
        got = []
        hosts[1].register_endpoint(2, got.append)
        hosts[0].send_packet(raw("h1"))
        sim.run()
        assert len(tap.packets) == 1
        assert len(got) == 1

    def test_detach_restores(self):
        sim = Simulator()
        topo, hosts = build_single_rack(sim, n_hosts=2)
        tap = PacketTap(topo.switches["tor0.0.up"])
        tap.detach()
        hosts[1].register_endpoint(2, lambda p: None)
        hosts[0].send_packet(raw("h1"))
        sim.run()
        assert tap.packets == []


class TestEcmp:
    def test_flow_mode_pins_one_path(self):
        sim = Simulator(seed=1)
        topo = build_testbed(sim)
        tor_up = topo.switches["tor0.0.up"]
        spine_links = [
            l for l in tor_up.out_links if "spine" in l.dst.node_id
        ]
        got = []
        topo.host(9).register_endpoint(2, got.append)
        for _ in range(20):
            topo.host(0).send_packet(raw("h9"))
        sim.run()
        assert len(got) == 20
        used = [l for l in spine_links if l.tx_packets > 0]
        assert len(used) == 1  # one flow, one path

    def test_packet_mode_sprays(self):
        sim = Simulator(seed=1)
        topo = build_testbed(sim)
        tor_up = topo.switches["tor0.0.up"]
        tor_up.ecmp_mode = "packet"
        spine_links = [
            l for l in tor_up.out_links if "spine" in l.dst.node_id
        ]
        topo.host(9).register_endpoint(2, lambda p: None)
        for _ in range(40):
            topo.host(0).send_packet(raw("h9"))
        sim.run()
        used = [l for l in spine_links if l.tx_packets > 0]
        assert len(used) == 2  # sprayed over both spines


class TestCrashSemantics:
    def test_crashed_switch_counts_nothing(self):
        sim = Simulator()
        topo, hosts = build_single_rack(sim, n_hosts=2)
        switch = topo.switches["tor0.0.up"]
        switch.crash()
        before = switch.rx_packets
        hosts[0].send_packet(raw("h1"))
        sim.run()
        assert switch.rx_packets == before

    def test_recovered_switch_forwards_again(self):
        sim = Simulator()
        topo, hosts = build_single_rack(sim, n_hosts=2)
        got = []
        hosts[1].register_endpoint(2, got.append)
        switch = topo.switches["tor0.0.up"]
        switch.crash()
        hosts[0].send_packet(raw("h1"))
        sim.run()
        assert got == []
        switch.recover()
        hosts[0].send_packet(raw("h1"))
        sim.run()
        assert len(got) == 1

    def test_no_route_counted(self):
        sim = Simulator()
        topo, hosts = build_single_rack(sim, n_hosts=2)
        switch = topo.switches["tor0.0.up"]
        hosts[0].send_packet(raw("h-nonexistent"))
        sim.run()
        assert switch.no_route_drops == 1
