"""Routing-DAG construction and loop-freedom at paper scale (k=8).

The scale benchmark suite runs full 1Pipe clusters on classic k-ary
fat-trees up to k=8 / 128 hosts.  These tests pin the structural
properties that make those runs meaningful: the builder produces the
canonical geometry, the switch-to-switch routing graph is a DAG, and
every installed route entry strictly descends the hop-distance gradient
to its destination — which rules out forwarding loops by construction,
before and after a failure-driven route recompute.
"""

import networkx as nx
import pytest

from repro.net import Packet, PacketKind, build_fat_tree
from repro.net.nic import Host
from repro.net.routing import check_switch_dag, clear_routes, compute_routes
from repro.net.switch import Switch
from repro.net.topology import fat_tree_descriptor
from repro.sim import Simulator
from tests.reference import as_networkx, reverse_bfs_distances


@pytest.fixture(scope="module")
def k8_topo():
    """One k=8 / 128-host fat-tree shared by the structural checks."""
    return build_fat_tree(Simulator(seed=1), fat_tree_descriptor(8).params)


def assert_routes_descend_distance(topo, sample_hosts):
    """Every route entry for a sampled destination moves strictly closer.

    Following any ECMP candidate decreases the hop distance to the
    destination by exactly one, so no forwarding walk can revisit a
    switch: loop-freedom holds for every tie-breaking policy.
    """
    graph = as_networkx(topo)
    for host in sample_hosts:
        dst = host.node_id
        dist = reverse_bfs_distances(graph, dst)
        for switch in topo.switches.values():
            candidates = switch.routes.get(dst)
            if not candidates:
                continue
            assert switch.node_id in dist, (switch.node_id, dst)
            for link in candidates:
                next_id = link.dst.node_id
                assert dist[next_id] == dist[switch.node_id] - 1, (
                    f"route at {switch.node_id} towards {dst} via "
                    f"{next_id} does not descend: "
                    f"{dist[switch.node_id]} -> {dist[next_id]}"
                )


class TestK8Geometry:
    def test_canonical_host_and_switch_counts(self, k8_topo):
        assert len(k8_topo.hosts) == 128
        # 8 pods x (4 ToR + 4 spine) split into up/down halves + 16 cores.
        assert len(k8_topo.switches) == 8 * (4 + 4) * 2 + 16

    def test_k4_variants_match_scaling_curve(self):
        assert fat_tree_descriptor(4).n_hosts == 16
        assert fat_tree_descriptor(4, hosts_per_tor=4).n_hosts == 32
        assert fat_tree_descriptor(8, hosts_per_tor=2).n_hosts == 64
        assert fat_tree_descriptor(8).n_hosts == 128

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError, match="even"):
            fat_tree_descriptor(5)

    def test_every_host_wired(self, k8_topo):
        for host in k8_topo.hosts:
            assert host.uplink is not None
            assert host.downlink is not None


class TestK8RoutingDag:
    def test_switch_subgraph_is_acyclic(self, k8_topo):
        check_switch_dag(k8_topo)
        graph = as_networkx(k8_topo)
        switch_ids = [
            node_id
            for node_id, data in graph.nodes(data=True)
            if isinstance(data.get("obj"), Switch)
        ]
        assert nx.is_directed_acyclic_graph(graph.subgraph(switch_ids))

    def test_hosts_are_forwarding_leaves(self, k8_topo):
        # The full graph has cycles (host send + receive roles), but a
        # host must never appear in any switch's route candidates as a
        # transit node — only as the terminal hop.
        for switch in k8_topo.switches.values():
            for dst, links in switch.routes.items():
                for link in links:
                    if isinstance(link.dst, Host):
                        assert link.dst.node_id == dst

    def test_all_routes_descend_distance(self, k8_topo):
        # Corners + a middle rack cover same-rack, same-pod and
        # cross-pod route shapes without walking all 128 destinations.
        sample = [k8_topo.host(i) for i in (0, 1, 5, 63, 64, 127)]
        assert_routes_descend_distance(k8_topo, sample)

    def test_cross_pod_ecmp_width(self, k8_topo):
        # A ToR uplink half sees k/2 spines; each spine-up sees k/2
        # cores.  For a cross-pod destination the ECMP set at each tier
        # must retain that full width.
        dst = k8_topo.host(127).node_id
        tor_up = k8_topo.switches["tor0.0.up"]
        assert len(tor_up.routes[dst]) == 4
        spine_up = k8_topo.switches["spine0.0.up"]
        assert len(spine_up.routes[dst]) == 4

    def test_every_up_half_routes_to_every_host(self, k8_topo):
        hosts = {host.node_id for host in k8_topo.hosts}
        for name, switch in k8_topo.switches.items():
            if name.startswith("tor") and name.endswith(".up"):
                assert hosts <= set(switch.routes), name


class TestK8Recompute:
    def test_routes_stay_loop_free_after_core_failure(self):
        # The SDN controller recomputes routes around a dead core
        # (paper 3.1); descent must survive the recompute.
        topo = build_fat_tree(Simulator(seed=2), fat_tree_descriptor(8).params)
        dead_core = topo.switches["core0"]
        dead_links = set(dead_core.in_links) | set(dead_core.out_links)
        clear_routes(topo)
        installed = compute_routes(
            topo, topo.hosts, exclude_links=frozenset(dead_links)
        )
        assert installed > 0
        for switch in topo.switches.values():
            for links in switch.routes.values():
                assert not (set(links) & dead_links)
        dst = topo.host(127).node_id
        tor_up = topo.switches["tor0.0.up"]
        # One of the four core-striped paths is gone; the remaining
        # ECMP width shrinks but stays multipath.
        assert 1 <= len(tor_up.routes[dst]) <= 4
        assert_routes_descend_distance(topo, [topo.host(0), topo.host(127)])


class TestK8Forwarding:
    def test_cross_pod_delivery_at_scale(self, k8_topo):
        sim = k8_topo.sim
        src, dst = k8_topo.host(0), k8_topo.host(127)
        got = []
        dst.register_endpoint(7, got.append)
        packet = Packet(
            PacketKind.RAW,
            src=1,
            dst=7,
            dst_host=dst.node_id,
            payload_bytes=64,
            payload=("t", None),
        )
        src.send_packet(packet)
        sim.run()
        dst.unregister_endpoint(7)
        assert len(got) == 1
