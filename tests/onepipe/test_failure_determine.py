"""Unit tests for the failure-determination graph algorithms (§5.2)."""

import functools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import build_fat_tree, build_testbed
from repro.net.topology import fat_tree_descriptor
from repro.onepipe.failure import (
    DeadLinkReport,
    alive_nodes,
    determine,
    disconnected_hosts,
    failure_timestamp,
)
from repro.sim import Simulator
from tests import reference


@pytest.fixture()
def topo():
    return build_testbed(Simulator())


ROOTS = ["core0", "core1"]


def hosts(topo):
    return [h.node_id for h in topo.hosts]


def report(topo, src, dst, last_commit=100):
    return DeadLinkReport("tester", topo.link(src, dst), last_commit)


class TestAliveNodes:
    def test_everything_alive_without_failures(self, topo):
        alive = alive_nodes(topo, set(), ROOTS)
        assert set(hosts(topo)) <= alive

    def test_host_uplink_dead_disconnects_host(self, topo):
        dead = {topo.link("h3", "tor0.0.up")}
        failed = disconnected_hosts(topo, dead, ROOTS, hosts(topo))
        assert failed == {"h3"}

    def test_host_downlink_dead_disconnects_host(self, topo):
        dead = {topo.link("tor0.0.down", "h3")}
        failed = disconnected_hosts(topo, dead, ROOTS, hosts(topo))
        assert failed == {"h3"}

    def test_core_link_dead_disconnects_nobody(self, topo):
        dead = {topo.link("spine0.0.up", "core0")}
        failed = disconnected_hosts(topo, dead, ROOTS, hosts(topo))
        assert failed == set()

    def test_tor_uplinks_dead_disconnect_rack(self, topo):
        dead = {
            topo.link("tor0.0.up", "spine0.0.up"),
            topo.link("tor0.0.up", "spine0.1.up"),
        }
        failed = disconnected_hosts(topo, dead, ROOTS, hosts(topo))
        assert failed == {f"h{i}" for i in range(8)}


class TestDetermine:
    def test_single_host_failure_timestamp(self, topo):
        reports = [report(topo, "h3", "tor0.0.up", last_commit=777)]
        failed, timestamps = determine(
            topo, reports, ROOTS, hosts(topo)
        )
        assert failed == {"h3"}
        assert timestamps["h3"] == 777

    def test_rack_failure_takes_max_over_cut(self, topo):
        reports = [
            report(topo, "tor0.0.up", "spine0.0.up", last_commit=500),
            report(topo, "tor0.0.up", "spine0.1.up", last_commit=620),
        ]
        failed, timestamps = determine(
            topo, reports, ROOTS, hosts(topo)
        )
        assert failed == {f"h{i}" for i in range(8)}
        assert all(timestamps[h] == 620 for h in failed)

    def test_no_failure_empty_result(self, topo):
        reports = [report(topo, "spine0.0.up", "core0", last_commit=42)]
        failed, timestamps = determine(
            topo, reports, ROOTS, hosts(topo)
        )
        assert failed == set()
        assert timestamps == {}

    def test_independent_failures_get_independent_timestamps(self, topo):
        reports = [
            report(topo, "h0", "tor0.0.up", last_commit=100),
            report(topo, "h20", "tor1.0.up", last_commit=900),
        ]
        failed, timestamps = determine(
            topo, reports, ROOTS, hosts(topo)
        )
        assert failed == {"h0", "h20"}
        assert timestamps["h0"] == 100
        assert timestamps["h20"] == 900


class TestFailureTimestamp:
    def test_max_over_region_reports(self, topo):
        reports = [
            report(topo, "h0", "tor0.0.up", 10),
            report(topo, "h1", "tor0.0.up", 30),
            report(topo, "h20", "tor1.0.up", 99),  # other region
        ]
        assert failure_timestamp({"h0", "h1"}, reports) == 30

    def test_no_matching_reports_returns_zero(self, topo):
        assert failure_timestamp({"h5"}, []) == 0


class TestNonSeparablePartition:
    """True network partitions have no separating cut (§5.2 fallback):
    the failed region swallows the fabric and timestamps fall back to
    the max over whatever inside-region reports exist — or to zero when
    every report originates outside the region."""

    def test_all_uplinks_dead_fails_every_host_with_pod_timestamps(
        self, topo
    ):
        reports = [
            report(topo, "spine0.0.up", "core0", last_commit=100),
            report(topo, "spine0.1.up", "core1", last_commit=200),
            report(topo, "spine1.0.up", "core0", last_commit=300),
            report(topo, "spine1.1.up", "core1", last_commit=400),
        ]
        failed, timestamps = determine(
            topo, reports, ROOTS, hosts(topo)
        )
        assert failed == set(hosts(topo))
        # Pods are separate weak components once the cores are excluded,
        # so each pod takes the max over its own spine reports.
        assert all(timestamps[f"h{i}"] == 200 for i in range(16))
        assert all(timestamps[f"h{i}"] == 400 for i in range(16, 32))

    def test_reports_outside_region_fall_back_to_zero(self, topo):
        # Cut every core->spine downlink: hosts can still send to the
        # roots but receive from nobody, so all fail — yet the dead
        # links originate at the (alive) cores, outside every failed
        # region, leaving no usable cut timestamp.
        reports = [
            report(topo, "core0", "spine0.0.down", last_commit=150),
            report(topo, "core1", "spine0.1.down", last_commit=250),
            report(topo, "core0", "spine1.0.down", last_commit=350),
            report(topo, "core1", "spine1.1.down", last_commit=450),
        ]
        failed, timestamps = determine(
            topo, reports, ROOTS, hosts(topo)
        )
        assert failed == set(hosts(topo))
        assert all(timestamps[h] == 0 for h in hosts(topo))


class TestLyingReports:
    """Byzantine reporters (docs/BYZANTINE.md): equivocating notices
    must never drag a failure cutoff *below* what any correct reporter
    promised — a cutoff that under-reports retroactively discards
    committed messages."""

    def test_equivocating_cut_takes_conservative_max(self, topo):
        # Two reports name the same dead link with different last-commit
        # barriers (one reporter is lying).  The larger barrier wins.
        reports = [
            report(topo, "h0", "tor0.0.up", last_commit=500),
            report(topo, "h0", "tor0.0.up", last_commit=20),
        ]
        assert failure_timestamp({"h0"}, reports) == 500

    def test_lying_low_report_never_under_reports(self, topo):
        # Whatever the liar claims, the cutoff is at least every honest
        # reporter's promise, in any report order.
        honest = report(topo, "h0", "tor0.0.up", last_commit=300)
        for lie in (0, 1, 299):
            liar = report(topo, "h0", "tor0.0.up", last_commit=lie)
            for ordering in ([honest, liar], [liar, honest]):
                assert failure_timestamp({"h0"}, ordering) >= 300

    def test_determine_with_equivocating_reports(self, topo):
        # End-to-end through determine(): the lying duplicate does not
        # move the region's timestamp below the honest report.
        uplink = topo.link("h3", "tor0.0.up")
        reports = [
            DeadLinkReport("tor0.0.up", uplink, 700),
            DeadLinkReport("tor0.0.up", uplink, 5),
        ]
        failed, timestamps = determine(
            topo, reports, ROOTS, hosts(topo)
        )
        assert failed == {"h3"}
        assert timestamps["h3"] == 700

    def test_equivocal_reports_surfaces_conflict(self, topo):
        from repro.onepipe.failure import equivocal_reports

        link = topo.link("h0", "tor0.0.up")
        other = topo.link("h1", "tor0.0.up")
        conflicting = [
            DeadLinkReport("tor0.0.up", link, 100),
            DeadLinkReport("tor0.0.up", link, 200),
        ]
        agreeing = [
            DeadLinkReport("tor0.0.up", other, 300),
            DeadLinkReport("tor0.0.up", other, 300),
        ]
        flagged = equivocal_reports(conflicting + agreeing)
        assert set(flagged) == {link}
        assert sorted(r.last_commit for r in flagged[link]) == [100, 200]

    def test_equivocal_reports_empty_without_conflict(self, topo):
        from repro.onepipe.failure import equivocal_reports

        link = topo.link("h0", "tor0.0.up")
        assert equivocal_reports(
            [DeadLinkReport("tor0.0.up", link, 100)]
        ) == {}


@functools.lru_cache(maxsize=None)
def built(name):
    """A topology (Determine only reads it), its networkx twin and its
    roots."""
    if name == "testbed":
        topo = build_testbed(Simulator(seed=1))
    else:
        topo = build_fat_tree(Simulator(seed=1), fat_tree_descriptor(4).params)
    roots = [node_id for node_id in topo.switches if node_id.startswith("core")]
    return topo, reference.as_networkx(topo), roots


class TestAgainstNetworkxReference:
    """The plain-BFS Determine against the networkx implementation it
    replaced (``tests/reference.py``): any dead-link set — loopbacks,
    repeated links with conflicting barriers and partitions included —
    fails the same hosts at the same timestamps."""

    @pytest.mark.parametrize("name", ["testbed", "k4"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        picks=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            max_size=12,
        )
    )
    def test_same_failed_hosts_and_timestamps(self, name, picks):
        topo, graph, roots = built(name)
        links = list(topo.links.values())
        reports = [
            DeadLinkReport("tester", links[index % len(links)], last_commit)
            for index, last_commit in picks
        ]
        dead = {r.link for r in reports}
        want_alive = reference.alive_digraph(graph, dead)
        assert alive_nodes(topo, dead, roots) == (
            reference.can_send_to_roots(want_alive, roots)
            & reference.can_receive_from_roots(want_alive, roots)
        )
        got = determine(topo, reports, roots, hosts(topo))
        assert got == reference.determine(graph, reports, roots, hosts(topo))

    @pytest.mark.parametrize("hashseed", ["0", "1"])
    def test_under_either_hash_seed(self, hashseed):
        # Node ids are strings and both implementations keep them in
        # sets: rerun the property in an interpreter of each hash seed.
        proc = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                f"{__file__}::{type(self).__name__}"
                "::test_same_failed_hosts_and_timestamps",
            ],
            env=dict(os.environ, PYTHONHASHSEED=hashseed),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
