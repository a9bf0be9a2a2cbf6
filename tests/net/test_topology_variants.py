"""Tests for non-default topologies: the generic builder must support
more than the paper's exact testbed (larger pods, more tiers of ECMP,
single-pod Clos) and 1Pipe must stay correct on all of them."""

import pytest

from repro.net import TopologyParams, build_fat_tree
from repro.net.routing import clear_routes, compute_routes
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator

from tests.onepipe.conftest import Recorder


def big_params():
    return TopologyParams(
        n_pods=3,
        tors_per_pod=3,
        spines_per_pod=2,
        n_cores=4,
        hosts_per_tor=4,
    )


class TestLargerFatTree:
    def test_build_shape(self):
        sim = Simulator()
        topo = build_fat_tree(sim, big_params())
        assert len(topo.hosts) == 3 * 3 * 4
        # 9 ToRs + 6 spines split in halves + 4 cores.
        assert len(topo.switches) == 9 * 2 + 6 * 2 + 4
        compute_routes(topo, topo.hosts)  # raises on a switch cycle

    def test_cross_pod_reachability(self):
        sim = Simulator()
        topo = build_fat_tree(sim, big_params())
        got = []
        topo.hosts[-1].register_endpoint(7, got.append)
        from repro.net import Packet, PacketKind

        pkt = Packet(
            PacketKind.RAW, src=1, dst=7,
            dst_host=topo.hosts[-1].node_id,
            payload=("t", None), payload_bytes=16,
        )
        topo.hosts[0].send_packet(pkt)
        sim.run()
        assert len(got) == 1

    def test_onepipe_total_order_on_larger_tree(self):
        sim = Simulator(seed=61)
        topo = build_fat_tree(sim, big_params())
        cluster = OnePipeCluster(sim, n_processes=12, topology=topo)
        rec = Recorder(cluster)

        def blast(r):
            for s in range(12):
                cluster.endpoint(s).unreliable_send(
                    [((s + 5) % 12, f"{r}:{s}"), ((s + 7) % 12, f"{r}:{s}")]
                )

        for r in range(6):
            sim.schedule(r * 15_000, blast, r)
        sim.run(until=600_000)
        assert rec.total_delivered() == 6 * 12 * 2
        rec.assert_per_receiver_order()
        rec.assert_pairwise_consistent_order()

    def test_reliable_on_larger_tree(self):
        sim = Simulator(seed=62)
        topo = build_fat_tree(sim, big_params())
        cluster = OnePipeCluster(sim, n_processes=12, topology=topo)
        rec = Recorder(cluster)
        cluster.set_receiver_loss_rate(0.05)
        for r in range(8):
            for s in range(0, 12, 3):
                sim.schedule(
                    r * 20_000,
                    cluster.endpoint(s).reliable_send,
                    [((s + 4) % 12, f"{r}:{s}")],
                )
        sim.run(until=5_000_000)
        assert rec.total_delivered() == 8 * 4
        rec.assert_per_receiver_order()


class TestRouteRecomputation:
    def test_clear_and_recompute_idempotent(self):
        sim = Simulator()
        topo = build_fat_tree(sim, big_params())
        tor = topo.switches["tor0.0.up"]
        before = {dst: list(links) for dst, links in tor.routes.items()}
        clear_routes(topo)
        assert tor.routes == {}
        compute_routes(topo, topo.hosts)
        after = tor.routes
        assert set(after) == set(before)
        for dst in before:
            assert set(l.name for l in after[dst]) == set(
                l.name for l in before[dst]
            )

    def test_exclusion_removes_paths(self):
        sim = Simulator()
        topo = build_fat_tree(sim, big_params())
        clear_routes(topo)
        victim = topo.link("tor0.0.up", "spine0.0.up")
        compute_routes(topo, topo.hosts, exclude_links={victim})
        tor = topo.switches["tor0.0.up"]
        for links in tor.routes.values():
            assert victim not in links


class TestParameterValidation:
    def test_zero_oversubscription_invalid(self):
        sim = Simulator()
        with pytest.raises(Exception):
            build_fat_tree(sim, TopologyParams(oversubscription=0.0))

    def test_single_host_rack(self):
        sim = Simulator()
        params = TopologyParams(
            n_pods=1, tors_per_pod=1, spines_per_pod=1, n_cores=1,
            hosts_per_tor=2,
        )
        topo = build_fat_tree(sim, params)
        cluster = OnePipeCluster(sim, n_processes=2, topology=topo)
        got = []
        cluster.endpoint(1).on_recv(got.append)
        cluster.endpoint(0).unreliable_send([(1, "tiny")])
        sim.run(until=200_000)
        assert [m.payload for m in got] == ["tiny"]
