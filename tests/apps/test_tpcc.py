"""Tests for TPC-C independent transactions (paper §7.3.2)."""

import pytest

from repro.apps.concurrency import LockTable
from repro.apps.tpcc import (
    TPCC_RESP_BASE,
    TpccLock,
    TpccNonTx,
    TpccOcc,
    TpccOnePipe,
    WarehouseState,
)
from repro.apps.workloads import TpccMix
from repro.net import build_testbed
from repro.onepipe import OnePipeCluster
from repro.sim import Simulator


class TestLockTable:
    def test_grant_and_release(self):
        sim = Simulator()
        table = LockTable(sim)
        granted = []
        table.acquire("k", "a").add_callback(lambda f: granted.append("a"))
        table.acquire("k", "b").add_callback(lambda f: granted.append("b"))
        sim.run(until=10)
        assert granted == ["a"]
        table.release("k", "a")
        assert granted == ["a", "b"]

    def test_fifo_waiters(self):
        sim = Simulator()
        table = LockTable(sim)
        order = []
        for owner in ("a", "b", "c"):
            table.acquire("k", owner).add_callback(
                lambda f, o=owner: order.append(o)
            )
        table.release("k", "a")
        table.release("k", "b")
        table.release("k", "c")
        assert order == ["a", "b", "c"]

    def test_release_by_non_owner_rejected(self):
        sim = Simulator()
        table = LockTable(sim)
        table.acquire("k", "a")
        with pytest.raises(ValueError):
            table.release("k", "b")

    def test_reentrant_acquire_rejected(self):
        sim = Simulator()
        table = LockTable(sim)
        table.acquire("k", "a")
        with pytest.raises(ValueError):
            table.acquire("k", "a")


class TestWarehouseState:
    def test_new_order_increments_district_oid(self):
        st = WarehouseState(0)
        order_id, total = st.execute(
            (TpccMix.NEW_ORDER, 0, [(1, 2), (2, 3)])
        )
        assert order_id == 1
        assert total > 0
        assert len(st.orders) == 1

    def test_payment_updates_hot_row(self):
        st = WarehouseState(1)
        balance = st.execute((TpccMix.PAYMENT, 1, (42, 100)))
        assert st.ytd == 100
        assert balance == -100

    def test_deterministic_replay(self):
        mix = TpccMix(__import__("random").Random(3))
        txns = [mix.next_txn() for _ in range(50)]
        txns = [t for t in txns if t[1] == 0]
        a, b = WarehouseState(0), WarehouseState(0)
        for t in txns:
            a.execute(t)
        for t in txns:
            b.execute(t)
        assert a.fingerprint() == b.fingerprint()

    def test_stock_restock_rule(self):
        st = WarehouseState(0)
        st.stock[5] = 3
        st.execute((TpccMix.NEW_ORDER, 0, [(5, 9)]))
        assert st.stock[5] == 3 + 91 - 9


def drive_clients(sim, app, clients, mix, until):
    resolved = []

    def loop(c):
        def again(_f=None):
            if sim.now >= until:
                return
            txn = mix.next_txn()
            app.run_txn(c, txn).add_callback(
                lambda f: (resolved.append(f.value), again())
            )

        again()

    for c in clients:
        sim.schedule(10_000, loop, c)
    sim.run(until=until + 3_000_000)
    return resolved


class TestTpccOnePipe:
    @pytest.fixture()
    def setup(self):
        sim = Simulator(seed=4)
        cluster = OnePipeCluster(sim, n_processes=12 + 6)
        app = TpccOnePipe(cluster)
        mix = TpccMix(sim.rng("mix"))
        return sim, cluster, app, mix

    def test_transactions_commit(self, setup):
        sim, cluster, app, mix = setup
        resolved = drive_clients(
            sim, app, app.client_procs[:4], mix, until=1_500_000
        )
        assert app.txns_committed > 50
        assert all(r.committed for r in resolved)
        assert len(resolved) == app.txns_committed

    def test_replicas_stay_identical(self, setup):
        sim, cluster, app, mix = setup
        drive_clients(sim, app, app.client_procs[:4], mix, until=1_500_000)
        for warehouse in range(4):
            fingerprints = app.shard_fingerprints(warehouse)
            assert len(set(fingerprints)) == 1, f"warehouse {warehouse} diverged"

    def test_no_locks_anywhere(self, setup):
        """The 1Pipe design has no lock table at all: ordering does it."""
        sim, cluster, app, mix = setup
        assert not hasattr(app, "lock_tables")

    def test_cluster_too_small_rejected(self):
        sim = Simulator(seed=1)
        cluster = OnePipeCluster(sim, n_processes=12)
        with pytest.raises(ValueError):
            TpccOnePipe(cluster)


def one_answer_txn(sim, fail_first):
    """One Payment on 3 replicas (quorum 2) whose replicas 1 and 2 have
    their answers lost, so only replica 0's answer reaches the client.
    Both lost replicas are then marked failed: before the answer
    arrives (``fail_first``) or after it.  Returns the outcomes seen."""
    cluster = OnePipeCluster(sim, n_processes=3 + 1)
    app = TpccOnePipe(cluster, n_warehouses=1, n_replicas=3)
    client = app.client_procs[0]
    host = cluster.endpoint(client).agent.host
    deliver = host.endpoints[TPCC_RESP_BASE + client]
    lost = {TPCC_RESP_BASE + 1, TPCC_RESP_BASE + 2}
    host.endpoints[TPCC_RESP_BASE + client] = (
        lambda packet: None if packet.src in lost else deliver(packet)
    )
    outcomes = []

    def fail_both():
        app.mark_replica_failed(1)
        app.mark_replica_failed(2)

    def start():
        app.run_txn(client, (TpccMix.PAYMENT, 0, (7, 10))).add_callback(
            lambda f: outcomes.append(f.value.committed)
        )
        if fail_first:
            fail_both()

    sim.schedule(50_000, start)
    sim.run(until=1_000_000)
    if not fail_first:
        assert outcomes == []  # one answer is not a quorum
        fail_both()
    return app, outcomes


class TestTpccOnePipeQuorum:
    """A transaction completes once no replica is left to wait for, and
    commits iff a quorum answered, whichever comes first: the answers or
    the failures."""

    def test_answer_then_failures_does_not_commit(self):
        app, outcomes = one_answer_txn(Simulator(seed=4), fail_first=False)
        assert outcomes == [False]
        assert app.txns_committed == 0

    def test_failures_then_answer_resolves_uncommitted(self):
        app, outcomes = one_answer_txn(Simulator(seed=4), fail_first=True)
        assert outcomes == [False]
        assert app.txns_committed == 0


class TestTpccBaselines:
    @pytest.mark.parametrize("cls", [TpccLock, TpccOcc, TpccNonTx])
    def test_transactions_commit(self, cls):
        sim = Simulator(seed=5)
        topo = build_testbed(sim)
        app = cls(sim, topo, n_clients=4)
        mix = TpccMix(sim.rng("mix"))
        drive_clients(sim, app, app.client_ids, mix, until=1_000_000)
        assert app.txns_committed > 20

    def test_occ_aborts_under_contention(self):
        sim = Simulator(seed=6)
        topo = build_testbed(sim)
        app = TpccOcc(sim, topo, n_clients=8, n_warehouses=1)
        mix = TpccMix(sim.rng("mix"), n_warehouses=1)
        drive_clients(sim, app, app.client_ids, mix, until=1_000_000)
        assert app.txns_aborted > 0

    def test_lock_serializes_hot_row(self):
        sim = Simulator(seed=7)
        topo = build_testbed(sim)
        app = TpccLock(sim, topo, n_clients=6, n_warehouses=1)
        mix = TpccMix(sim.rng("mix"), n_warehouses=1)
        drive_clients(sim, app, app.client_ids, mix, until=1_000_000)
        table = app.lock_tables[0]
        assert table.waits > 0  # contention forced queuing

    def test_baseline_replicas_receive_updates(self):
        sim = Simulator(seed=8)
        topo = build_testbed(sim)
        app = TpccLock(sim, topo, n_clients=2)
        mix = TpccMix(sim.rng("mix"))
        drive_clients(sim, app, app.client_ids, mix, until=500_000)
        for warehouse in range(4):
            primary = app.states[app.primary_of(warehouse)]
            for backup in app.backups_of(warehouse):
                assert app.states[backup].executed == primary.executed


class TestThroughputOrdering:
    def test_onepipe_beats_lock_under_contention(self):
        """Single warehouse, many clients: 1Pipe >> 2PL (Fig. 15a)."""
        # 2PL.
        sim1 = Simulator(seed=9)
        topo1 = build_testbed(sim1)
        lock_app = TpccLock(sim1, topo1, n_clients=8, n_warehouses=1)
        mix1 = TpccMix(sim1.rng("mix"), n_warehouses=1)
        drive_clients(sim1, lock_app, lock_app.client_ids, mix1, until=2_000_000)
        # 1Pipe.
        sim2 = Simulator(seed=9)
        cluster = OnePipeCluster(sim2, n_processes=3 + 8)
        onepipe_app = TpccOnePipe(cluster, n_warehouses=1, n_replicas=3)
        mix2 = TpccMix(sim2.rng("mix"), n_warehouses=1)
        drive_clients(
            sim2, onepipe_app, onepipe_app.client_procs, mix2, until=2_000_000
        )
        assert onepipe_app.txns_committed > lock_app.txns_committed
