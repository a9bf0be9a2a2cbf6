"""Link flapping: a link that dies and returns must rejoin in pending
state (§4.2 link addition) without ever making barriers move backwards
or breaking delivery ordering."""

import pytest

from repro.chaos import InvariantMonitor
from repro.net import FailureInjector
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator

from tests.onepipe.conftest import Recorder


def run_flapping(seed=91, flaps=3, period=400_000):
    sim = Simulator(seed=seed)
    cluster = OnePipeCluster(sim, n_processes=8)
    rec = Recorder(cluster)
    injector = FailureInjector(cluster.topology)

    # Barrier monotonicity at every host, observed at the agents' flush
    # (the point both beacon transports share).
    monitor = InvariantMonitor(cluster)

    # Flap a spine-core cable repeatedly (no process ever fails).
    for flap in range(flaps):
        at = 150_000 + flap * period
        injector.cut_cable("spine0.0.up", "core0", at=at)
        injector.cut_cable("core0", "spine0.0.down", at=at)
        injector.recover_link("spine0.0.up", "core0", at=at + period // 2)
        injector.recover_link("core0", "spine0.0.down", at=at + period // 2)

    def traffic(r):
        for s in range(0, 8, 2):
            cluster.endpoint(s).unreliable_send([((s + 5) % 8, f"{r}:{s}")])

    for r in range(60):
        sim.schedule(r * 20_000, traffic, r)
    sim.run(until=150_000 + flaps * period + 1_500_000)
    return sim, cluster, rec, monitor


def test_barriers_never_regress_across_flaps():
    _sim, cluster, _rec, monitor = run_flapping()
    # The flaps' barrier movement is beacon-driven, and beacons travel
    # on the fabric: the check must have watched those flushes (there
    # are only 240 data packets, so nearly all of ~30k are beacons').
    assert cluster.fabric.virtual_beacons > 0
    assert monitor.barrier_checks > 10_000
    assert monitor.summary().get("barrier_monotonic", 0) == 0


def test_ordering_preserved_across_flaps():
    _sim, _cluster, rec, _ = run_flapping()
    rec.assert_per_receiver_order()
    rec.assert_pairwise_consistent_order()


def test_no_processes_declared_failed():
    _sim, cluster, _rec, _ = run_flapping()
    assert cluster.controller.failed_procs == {}


def test_best_effort_traffic_survives():
    _sim, _cluster, rec, _ = run_flapping()
    # Some messages may be lost in the cut windows (best effort), but
    # the overwhelming majority is delivered and counted exactly once.
    delivered = rec.total_delivered()
    assert delivered >= 0.8 * 60 * 4
    seen = set()
    for i, msgs in rec.deliveries.items():
        for m in msgs:
            key = (i, m.src, m.payload)
            assert key not in seen
            seen.add(key)
