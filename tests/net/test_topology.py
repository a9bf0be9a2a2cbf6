"""Tests for the fat-tree builder, routing, and end-to-end forwarding."""

import networkx as nx
import pytest

from repro.net import (
    Packet,
    PacketKind,
    TopologyParams,
    build_fat_tree,
    build_testbed,
)
from repro.net.link import Link
from repro.net.nic import Host
from repro.sim import Simulator
from tests.instruments import build_single_rack
from tests.reference import as_networkx


def send_raw(topo, src_host, dst_host, payload_bytes=64):
    pkt = Packet(
        PacketKind.RAW,
        src=1,
        dst=2,
        dst_host=dst_host.node_id,
        payload_bytes=payload_bytes,
        payload=("test", None),
    )
    src_host.send_packet(pkt)
    return pkt


class TestBuild:
    def test_testbed_shape(self):
        sim = Simulator()
        topo = build_testbed(sim)
        assert len(topo.hosts) == 32
        # 4 ToR + 4 spine = 8 physical switches split in two + 2 cores.
        assert len(topo.switches) == 4 * 2 + 4 * 2 + 2
        # The switch-to-switch forwarding graph must be a DAG; cycles
        # through hosts (send + receive roles) are expected and harmless.
        from repro.net.routing import compute_routes

        compute_routes(topo, topo.hosts)  # raises on a switch cycle
        assert not nx.is_directed_acyclic_graph(as_networkx(topo))

    def test_single_rack_shape(self):
        sim = Simulator()
        topo, hosts = build_single_rack(sim, n_hosts=4)
        assert len(hosts) == 4
        assert "tor0.0.up" in topo.switches
        assert "tor0.0.down" in topo.switches

    def test_all_hosts_have_links(self):
        sim = Simulator()
        topo = build_testbed(sim)
        for host in topo.hosts:
            assert host.uplink is not None
            assert host.downlink is not None

    def test_every_host_is_wired_to_its_tor_once(self):
        # add_link attaches the link, then set_uplink / set_downlink
        # used to attach it again; adjacency is out_links / in_links now.
        built = [build_testbed(Simulator()), build_single_rack(Simulator())[0]]
        for topo in built:
            for host in topo.hosts:
                assert host.out_links == [host.uplink]
                assert host.in_links == [host.downlink]

    def test_hand_wired_host_attaches_its_own_links(self):
        sim = Simulator()
        src, dst = Host(sim, "src"), Host(sim, "dst")
        link = Link(sim, "src->dst", src, dst)
        src.set_uplink(link)
        dst.set_downlink(link)
        assert src.out_links == [link] and src.in_links == []
        assert dst.in_links == [link] and dst.out_links == []

    def test_node_finds_switches_and_hosts(self):
        topo = build_testbed(Simulator())
        assert topo.node("core1") is topo.switches["core1"]
        assert topo.node("h31") is topo.host(31)
        with pytest.raises(KeyError):
            topo.node("h32")

    def test_tor_of(self):
        sim = Simulator()
        topo = build_testbed(sim)
        assert topo.tor_of("h0") == "tor0.0"
        assert topo.tor_of("h8") == "tor0.1"
        assert topo.tor_of("h16") == "tor1.0"

    def test_clock_master_is_h0(self):
        sim = Simulator()
        topo = build_testbed(sim)
        assert topo.host(0).clock.offset_ns == topo.clock_sync.epoch_ns

    def test_invalid_core_striping_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_fat_tree(
                sim, TopologyParams(n_cores=3, spines_per_pod=2)
            )


class TestForwarding:
    @pytest.fixture()
    def topo(self):
        return build_testbed(Simulator())

    def _deliver(self, topo, src_idx, dst_idx):
        src, dst = topo.host(src_idx), topo.host(dst_idx)
        got = []
        dst.register_endpoint(2, got.append)
        send_raw(topo, src, dst)
        topo.sim.run()
        dst.unregister_endpoint(2)
        assert len(got) == 1
        return topo.sim.now

    def test_same_rack_delivery(self, topo):
        self._deliver(topo, 0, 1)

    def test_same_pod_delivery(self, topo):
        self._deliver(topo, 0, 9)

    def test_cross_pod_delivery(self, topo):
        self._deliver(topo, 0, 31)

    def test_hop_latency_ordering(self):
        """1-hop < 3-hop < 5-hop one-way latency (paper Fig. 9a setup)."""
        lat = {}
        for name, dst in [("rack", 1), ("pod", 9), ("cross", 31)]:
            sim = Simulator()
            topo = build_testbed(sim)
            src, dest = topo.host(0), topo.host(dst)
            arrival = []
            dest.register_endpoint(2, lambda p: arrival.append(sim.now))
            send_raw(topo, src, dest)
            sim.run()
            lat[name] = arrival[0]
        assert lat["rack"] < lat["pod"] < lat["cross"]
        # Each extra tier adds 2 switch traversals + 2 links; latency
        # deltas should be roughly equal (within scheduling noise).
        d1 = lat["pod"] - lat["rack"]
        d2 = lat["cross"] - lat["pod"]
        assert abs(d1 - d2) <= 200

    def test_all_pairs_reachable(self, topo):
        sim = topo.sim
        received = {}
        for i, host in enumerate(topo.hosts):
            host.register_endpoint(2, lambda p, i=i: received.setdefault(i, 0))
        # Only a sample (all 32x31 pairs would be slow): ends and middles.
        sample = [0, 1, 7, 8, 15, 16, 24, 31]
        for a in sample:
            for b in sample:
                if a != b:
                    send_raw(topo, topo.host(a), topo.host(b))
        sim.run()
        assert set(received) == set(sample)

    def test_ecmp_spreads_flows_across_spines(self):
        sim = Simulator()
        topo = build_testbed(sim)
        # Many distinct (src,dst) pairs rack0 -> rack1 must not all hash
        # to one spine uplink.
        tor_up = topo.switches["tor0.0.up"]
        spine_links = [
            l for l in tor_up.out_links if "spine" in l.dst.node_id
        ]
        assert len(spine_links) == 2
        for dst in range(8, 16):
            for src in range(0, 8):
                pkt = Packet(
                    PacketKind.RAW,
                    src=src,
                    dst=dst,
                    dst_host=f"h{dst}",
                    payload_bytes=0,
                    payload=("t", None),
                )
                topo.host(src).send_packet(pkt)
        sim.run()
        counts = [l.tx_packets for l in spine_links]
        assert all(c > 0 for c in counts)

    def test_oversubscription_scales_core_bandwidth(self):
        sim = Simulator()
        topo = build_testbed(sim, oversubscription=4.0)
        core_link = topo.link("spine0.0.up", "core0")
        fabric_link = topo.link("tor0.0.up", "spine0.0.up")
        assert core_link.bandwidth_gbps == fabric_link.bandwidth_gbps / 4


class TestAssignHosts:
    @pytest.fixture()
    def topo(self):
        return build_testbed(Simulator())

    def test_small_counts_one_rack(self, topo):
        hosts = topo.assign_hosts(8)
        assert len({h.node_id for h in hosts}) == 8
        assert {topo.tor_of(h.node_id) for h in hosts} == {"tor0.0"}

    def test_sixteen_two_racks_same_pod(self, topo):
        hosts = topo.assign_hosts(16)
        tors = {topo.tor_of(h.node_id) for h in hosts}
        assert tors == {"tor0.0", "tor0.1"}

    def test_thirtytwo_all_racks(self, topo):
        hosts = topo.assign_hosts(32)
        assert len({h.node_id for h in hosts}) == 32

    def test_large_counts_stack_evenly(self, topo):
        hosts = topo.assign_hosts(128)
        per_host = {}
        for h in hosts:
            per_host[h.node_id] = per_host.get(h.node_id, 0) + 1
        assert set(per_host.values()) == {4}

    def test_zero_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.assign_hosts(0)


class TestFailures:
    def test_crashed_switch_blackholes(self):
        from repro.net import FailureInjector

        sim = Simulator()
        topo = build_testbed(sim)
        inj = FailureInjector(topo)
        got = []
        topo.host(1).register_endpoint(2, got.append)
        inj.crash_switch("tor0.0", at=0)
        sim.run()
        send_raw(topo, topo.host(0), topo.host(1))
        sim.run()
        assert got == []

    def test_cut_host_cable(self):
        from repro.net import FailureInjector

        sim = Simulator()
        topo = build_testbed(sim)
        inj = FailureInjector(topo)
        inj.cut_host_cable("h0", at=0)
        sim.run()
        assert not topo.link("h0", "tor0.0.up").up
        assert not topo.link("tor0.0.down", "h0").up
        inj.recover_host_cable("h0", at=sim.now + 1)
        sim.run()
        assert topo.link("h0", "tor0.0.up").up

    def test_cut_cable_both_directions(self):
        from repro.net import FailureInjector

        sim = Simulator()
        topo = build_testbed(sim)
        inj = FailureInjector(topo)
        inj.cut_cable("spine0.0.up", "core0", at=0)
        sim.run()
        assert not topo.link("spine0.0.up", "core0").up

    def test_unknown_switch_raises(self):
        from repro.net import FailureInjector

        sim = Simulator()
        topo = build_testbed(sim)
        inj = FailureInjector(topo)
        inj.crash_switch("nosuch", at=5)
        with pytest.raises(KeyError):
            sim.run()

    def test_crashed_host_stops_receiving(self):
        sim = Simulator()
        topo = build_testbed(sim)
        got = []
        topo.host(1).register_endpoint(2, got.append)
        topo.host(1).crash()
        send_raw(topo, topo.host(0), topo.host(1))
        sim.run()
        assert got == []
