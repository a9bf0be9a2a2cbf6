"""Routing by destination class against the per-host reference.

``compute_routes`` runs one reverse BFS per class of hosts sharing their
attachment switches and installs one shared next-hop tuple per (switch,
class).  ECMP picks by ``hash % len`` over the candidates in order, so
"the same tables" means the same destination key order per switch and
the same candidate order per destination as the per-host BFS it
replaced (kept in ``tests/reference.py``) — on every geometry the repo
builds, and under every kind of exclusion the controller passes.
"""

from unittest import mock

import pytest

from repro.hybrid.engine import island_params
from repro.net import build_fat_tree, build_testbed
from repro.net import routing
from repro.net.routing import clear_routes, compute_routes
from repro.net.topology import Topology, TopologyParams, fat_tree_descriptor
from repro.sim import Simulator
from tests.instruments import build_single_rack
from tests.reference import as_networkx, per_host_routes


def installed_tables(topo):
    return {
        node_id: {dst: list(links) for dst, links in switch.routes.items()}
        for node_id, switch in topo.switches.items()
    }


def assert_same_tables(topo, hosts=None, exclude_links=frozenset()):
    """Recompute with the given arguments and compare with the reference,
    key order and candidate order included."""
    hosts = topo.hosts if hosts is None else hosts
    clear_routes(topo)
    compute_routes(topo, hosts, exclude_links=exclude_links)
    got = installed_tables(topo)
    want = per_host_routes(
        as_networkx(topo), hosts, exclude_links=exclude_links
    )
    for node_id in topo.switches:
        assert list(got[node_id]) == list(want[node_id]), node_id
        assert got[node_id] == want[node_id], node_id


def k32_island():
    descriptor = fat_tree_descriptor(32, hosts_per_tor=20)
    return build_fat_tree(Simulator(seed=1), island_params(descriptor, 2))


GEOMETRIES = {
    "testbed": lambda: build_testbed(Simulator(seed=1)),
    "single_rack": lambda: build_single_rack(Simulator(seed=1), n_hosts=8)[0],
    "k8": lambda: build_fat_tree(Simulator(seed=1), fat_tree_descriptor(8).params),
    "k32_island": k32_island,
}


@pytest.fixture(scope="module")
def k8_topo():
    return GEOMETRIES["k8"]()


class TestTableIdentity:
    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_as_built(self, name):
        topo = GEOMETRIES[name]()
        assert any(switch.routes for switch in topo.switches.values())
        assert_same_tables(topo)

    def test_dead_tor_uplink(self, k8_topo):
        dead = {k8_topo.link("tor0.0.up", "spine0.1.up")}
        assert_same_tables(k8_topo, exclude_links=dead)
        for links in k8_topo.switches["tor0.0.up"].routes.values():
            assert not dead & set(links)

    def test_dead_host_downlink(self, k8_topo):
        # The host leaves its rack's class for an unreachable class of
        # its own: no switch keeps an entry for it.
        victim = k8_topo.host(5)
        assert_same_tables(k8_topo, exclude_links={victim.downlink})
        assert not any(
            victim.node_id in switch.routes
            for switch in k8_topo.switches.values()
        )

    def test_dead_spine(self, k8_topo):
        dead = set()
        for half in ("spine1.2.up", "spine1.2.down"):
            switch = k8_topo.switches[half]
            dead.update(switch.in_links)
            dead.update(switch.out_links)
        assert_same_tables(k8_topo, exclude_links=frozenset(dead))

    def test_failed_host_subset_with_dead_links(self, k8_topo):
        # What Controller._reroute passes after a host failure: the
        # surviving hosts in topology order plus every dead link so far.
        failed = {"h3", "h4", "h77"}
        alive = [h for h in k8_topo.hosts if h.node_id not in failed]
        dead = {k8_topo.host(3).uplink, k8_topo.host(3).downlink,
                k8_topo.link("spine4.0.up", "core0")}
        assert_same_tables(k8_topo, hosts=alive, exclude_links=dead)
        for switch in k8_topo.switches.values():
            assert not failed & set(switch.routes)


def count_bfs_runs(topo, exclude_links=frozenset()):
    clear_routes(topo)
    with mock.patch.object(
        routing, "_reverse_bfs_distances",
        wraps=routing._reverse_bfs_distances,
    ) as bfs:
        compute_routes(topo, topo.hosts, exclude_links=exclude_links)
    return bfs.call_count


class TestOneBfsPerClass:
    @pytest.mark.parametrize(
        "name,racks", [("single_rack", 1), ("testbed", 4), ("k8", 32)]
    )
    def test_bfs_runs_equal_racks(self, name, racks):
        assert count_bfs_runs(GEOMETRIES[name]()) == racks

    def test_dead_downlink_adds_one_class(self, k8_topo):
        dead = {k8_topo.host(5).downlink}
        assert count_bfs_runs(k8_topo, exclude_links=dead) == 32 + 1

    def test_rack_mates_share_one_tuple(self, k8_topo):
        assert_same_tables(k8_topo)
        remote = k8_topo.switches["tor7.3.up"].routes
        assert remote["h0"] is remote["h3"]           # same rack
        assert remote["h0"] is not remote["h4"]       # next rack
        local = k8_topo.switches["tor0.0.down"].routes
        assert local["h0"] == (k8_topo.host(0).downlink,)


class TestRecompute:
    def test_clear_and_recompute_idempotent(self, k8_topo):
        assert_same_tables(k8_topo)
        before = installed_tables(k8_topo)
        clear_routes(k8_topo)
        assert not any(s.routes for s in k8_topo.switches.values())
        installed = compute_routes(k8_topo, k8_topo.hosts)
        assert installed_tables(k8_topo) == before
        assert installed == sum(
            len(links) for table in before.values() for links in table.values()
        )

    def test_route_sets_are_immutable(self, k8_topo):
        assert_same_tables(k8_topo)
        candidates = k8_topo.switches["tor0.0.up"].routes["h127"]
        assert isinstance(candidates, tuple)
        with pytest.raises(AttributeError):
            candidates.append(candidates[0])
        with pytest.raises(TypeError):
            candidates[0] = candidates[1]


def irregular_topology():
    """far -> mid -> edge -> dst, with ``bystander`` hanging off ``far``
    and sending up to ``edge``: the bystander sits at distance 2 from
    ``dst``, one less than ``far``, but it is a host and cannot forward."""
    topo = Topology(Simulator(seed=1), TopologyParams())
    far, mid, edge = (topo.add_switch(name, 250) for name in ("far", "mid", "edge"))
    dst = topo.add_host("dst", is_master_clock=True)
    bystander = topo.add_host("bystander")
    topo.add_link(far, bystander, 100)
    topo.add_link(far, mid, 100)
    topo.add_link(mid, edge, 100)
    topo.add_link(bystander, edge, 100)
    topo.add_link(edge, dst, 100)
    return topo, dst


class TestIrregularGraphs:
    def test_non_destination_host_is_never_a_next_hop(self):
        topo, dst = irregular_topology()
        compute_routes(topo, [dst])
        assert topo.switches["far"].routes["dst"] == (topo.link("far", "mid"),)
        assert topo.switches["mid"].routes["dst"] == (topo.link("mid", "edge"),)
        assert topo.switches["edge"].routes["dst"] == (topo.link("edge", "dst"),)
        # The defect the per-host reference keeps: half of ``far``'s
        # ECMP share towards ``dst`` blackholes at the bystander.
        reference = per_host_routes(as_networkx(topo), [dst])
        assert topo.link("far", "bystander") in reference["far"]["dst"]

    def test_switch_cycle_rejected(self):
        topo, dst = irregular_topology()
        topo.add_link(topo.switches["edge"], topo.switches["far"], 100)
        with pytest.raises(ValueError, match="DAG"):
            compute_routes(topo, [dst])

    def test_dead_link_breaking_the_cycle_is_accepted(self):
        topo, dst = irregular_topology()
        back = topo.add_link(topo.switches["edge"], topo.switches["far"], 100)
        compute_routes(topo, [dst], exclude_links={back})
        assert topo.switches["far"].routes["dst"] == (topo.link("far", "mid"),)
