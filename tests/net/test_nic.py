"""Unit tests for hosts: endpoint registry, hooks, crash semantics."""

import pytest

from repro.net import Packet, PacketKind
from repro.sim import Simulator
from tests.instruments import build_single_rack


def raw(dst_host, dst=2):
    return Packet(
        PacketKind.RAW, src=1, dst=dst, dst_host=dst_host,
        payload=("t", None), payload_bytes=16,
    )


@pytest.fixture()
def rack():
    sim = Simulator(seed=1)
    topo, hosts = build_single_rack(sim, n_hosts=3)
    return sim, topo, hosts


class TestEndpointRegistry:
    def test_duplicate_endpoint_rejected(self, rack):
        _sim, _topo, hosts = rack
        hosts[0].register_endpoint(5, lambda p: None)
        with pytest.raises(ValueError):
            hosts[0].register_endpoint(5, lambda p: None)

    def test_unregister_is_idempotent(self, rack):
        _sim, _topo, hosts = rack
        hosts[0].register_endpoint(5, lambda p: None)
        hosts[0].unregister_endpoint(5)
        hosts[0].unregister_endpoint(5)

    def test_undeliverable_counted(self, rack):
        sim, _topo, hosts = rack
        hosts[0].send_packet(raw("h1", dst=999))
        sim.run()
        assert hosts[1].undeliverable == 1


class TestHooks:
    def test_egress_hook_sees_every_packet(self, rack):
        sim, _topo, hosts = rack
        seen = []
        hosts[0].egress_hook = seen.append
        hosts[1].register_endpoint(2, lambda p: None)
        hosts[0].send_packet(raw("h1"))
        sim.run()
        assert len(seen) == 1

    def test_ingress_hook_can_consume(self, rack):
        sim, _topo, hosts = rack
        got = []
        hosts[1].register_endpoint(2, got.append)
        hosts[1].ingress_hook = lambda pkt, link: True  # swallow all
        hosts[0].send_packet(raw("h1"))
        sim.run()
        assert got == []

    def test_ingress_hook_can_pass_through(self, rack):
        sim, _topo, hosts = rack
        got = []
        hosts[1].register_endpoint(2, got.append)
        hosts[1].ingress_hook = lambda pkt, link: False
        hosts[0].send_packet(raw("h1"))
        sim.run()
        assert len(got) == 1


class TestCrash:
    def test_crashed_host_sends_nothing(self, rack):
        sim, _topo, hosts = rack
        hosts[0].crash()
        assert hosts[0].send_packet(raw("h1")) is False

    def test_double_uplink_rejected(self, rack):
        _sim, topo, hosts = rack
        with pytest.raises(ValueError):
            hosts[0].set_uplink(hosts[0].uplink)

    def test_send_without_uplink_raises(self):
        from repro.net.nic import Host

        sim = Simulator()
        orphan = Host(sim, "orphan")
        with pytest.raises(RuntimeError):
            orphan.send_packet(raw("h1"))

    def test_src_host_stamped_on_egress(self, rack):
        sim, _topo, hosts = rack
        got = []
        hosts[1].register_endpoint(2, got.append)
        pkt = raw("h1")
        hosts[0].send_packet(pkt)
        sim.run()
        assert pkt.src_host == "h0"
        assert pkt.sent_at == 0
