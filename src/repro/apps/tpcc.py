"""TPC-C independent transactions (paper §7.3.2, Fig. 15).

The paper evaluates the two *independent* TPC-C transactions — New-Order
and Payment — on 4 in-memory warehouses with 3 replicas each:

- :class:`TpccOnePipe` — the Eris-style design with 1Pipe replacing the
  central sequencer: a transaction is ONE reliable scattering carrying
  the commands to every replica of every involved shard; replicas
  execute deterministically in delivery (timestamp) order, so all
  replicas of a shard stay identical without any coordination, and no
  locks exist at all.
- :class:`TpccLock` — two-phase locking: lock the hot rows at the
  primary, execute, replicate synchronously to the backups *while
  holding the locks*, unlock.  Per-warehouse throughput is capped by
  1 / (lock hold time).
- :class:`TpccOcc` — optimistic concurrency control: read versions,
  validate + install at the primary at commit time (no-wait locks),
  synchronous replication inside the critical section; aborts explode
  under contention on the warehouse row.
- :class:`TpccNonTx` — applies updates at the primary with asynchronous
  replication and no concurrency control: the upper bound.

Workload model: every Payment *updates* its warehouse row and every
New-Order *reads* it [Yu et al.], producing exactly 4 hot rows.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.concurrency import LockTable
from repro.apps.gather import Calls
from repro.apps.kvstore import TxnResult
from repro.apps.workloads import TpccMix
from repro.net.rpc import RpcEndpoint, rpc_endpoints
from repro.net.topology import Topology
from repro.onepipe.cluster import OnePipeCluster
from repro.sim import Future, Process, Simulator, all_of

TPCC_RESP_BASE = 4_000_000
TPCC_RPC_BASE = 5_000_000


class WarehouseState:
    """One replica's tables for one warehouse."""

    def __init__(self, warehouse_id: int) -> None:
        self.warehouse_id = warehouse_id
        self.ytd = 0.0
        self.tax = 0.05 + 0.01 * warehouse_id
        self.district_next_oid = [1] * 10
        self.district_ytd = [0.0] * 10
        self.customer_balance: Dict[int, float] = {}
        self.stock: Dict[int, int] = {}
        self.orders: List[tuple] = []
        self.executed = 0

    def execute(self, txn: tuple) -> Any:
        """Deterministically execute a transaction command."""
        kind, warehouse, arg = txn
        assert warehouse == self.warehouse_id
        self.executed += 1
        if kind == TpccMix.NEW_ORDER:
            return self._new_order(arg)
        if kind == TpccMix.PAYMENT:
            return self._payment(arg)
        raise ValueError(f"unknown TPC-C txn {kind!r}")

    def _new_order(self, items: List[tuple]) -> tuple:
        # Reads the (hot) warehouse row for the tax rate, increments the
        # district's next order id, decrements stock, inserts the order.
        tax = self.tax
        district = len(self.orders) % 10
        order_id = self.district_next_oid[district]
        self.district_next_oid[district] = order_id + 1
        total = 0
        for item_id, quantity in items:
            stock = self.stock.get(item_id, 100)
            if stock < quantity:
                stock += 91  # TPC-C restock rule
            self.stock[item_id] = stock - quantity
            total += quantity * (1 + item_id % 100)
        self.orders.append((order_id, district, tuple(items)))
        return (order_id, total * (1 + tax))

    def _payment(self, arg: tuple) -> float:
        customer, amount = arg
        # Updates the hot warehouse row, the district, and the customer.
        self.ytd += amount
        district = customer % 10
        self.district_ytd[district] += amount
        balance = self.customer_balance.get(customer, 0.0) - amount
        self.customer_balance[customer] = balance
        return balance

    def fingerprint(self) -> tuple:
        """Digest for replica-consistency checks."""
        return (
            round(self.ytd, 6),
            tuple(self.district_next_oid),
            tuple(round(v, 6) for v in self.district_ytd),
            self.executed,
            len(self.orders),
        )


# ----------------------------------------------------------------------
# 1Pipe / Eris-style
# ----------------------------------------------------------------------
class TpccOnePipe:
    """Independent transactions as single reliable scatterings.

    Process layout inside the 1Pipe cluster: endpoints
    ``[0, n_warehouses * n_replicas)`` are replicas (shard-major), the
    rest are transaction initiators (clients).
    """

    def __init__(
        self,
        cluster: OnePipeCluster,
        n_warehouses: int = 4,
        n_replicas: int = 3,
        cpu_ns_per_msg: int = 200,
    ) -> None:
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.n_warehouses = n_warehouses
        self.n_replicas = n_replicas
        n_replica_procs = n_warehouses * n_replicas
        if cluster.n_processes <= n_replica_procs:
            raise ValueError("cluster too small for replicas plus clients")
        self.replicas: Dict[int, WarehouseState] = {}
        self.calls = Calls(cluster, TPCC_RESP_BASE)
        self.txns_committed = 0
        self.txns_retried = 0
        self.failed_replicas: set = set()
        for proc in range(n_replica_procs):
            self.replicas[proc] = WarehouseState(proc // n_replicas)
            cluster.endpoint(proc).on_recv(
                lambda message, proc=proc: self._replica_on_message(proc, message)
            )
        self.client_procs = list(range(n_replica_procs, cluster.n_processes))
        self.calls.attach(range(cluster.n_processes), cpu_ns_per_msg)

    def replica_procs_of(self, warehouse: int) -> List[int]:
        base = warehouse * self.n_replicas
        return [base + r for r in range(self.n_replicas)]

    # ------------------------------------------------------------------
    def run_txn(self, client_proc: int, txn: tuple) -> Future:
        result = TxnResult()
        result.started_at = self.sim.now
        done = Future(self.sim)
        self._submit(client_proc, txn, result, done)
        return done

    def _submit(self, client_proc, txn, result, done) -> None:
        _kind, warehouse, _arg = txn
        targets = [
            p
            for p in self.replica_procs_of(warehouse)
            if p not in self.failed_replicas
        ]
        quorum = self.n_replicas // 2 + 1
        if len(targets) < quorum:
            result.finished_at = self.sim.now
            done.try_resolve(result)  # shard unavailable
            return
        call = self.calls.open(targets)
        call.future.add_callback(
            lambda f: self._finish(result, done, quorum, f.value)
        )
        entries = [
            (p, ("tpcc", call.id, client_proc, txn), 128) for p in targets
        ]
        scattering = self.cluster.endpoint(client_proc).reliable_send(entries)
        if scattering is not None:
            scattering.completed.add_callback(
                lambda f: self._on_scatter_done(
                    f, call, client_proc, txn, result, done
                )
            )

    def _on_scatter_done(
        self, future, call, client_proc, txn, result, done
    ) -> None:
        if call.future.done:
            return
        try:
            ok = future.value
        except Exception:
            ok = False
        if not ok:
            # A replica failed mid-scattering: the recall aborted it
            # everywhere; retry against the surviving replicas (§7.3.2).
            self.calls.close(call)
            result.aborts += 1
            self.txns_retried += 1
            self.sim.schedule(
                20_000, self._submit, client_proc, txn, result, done
            )

    def _finish(self, result, done, quorum: int, answers) -> None:
        """No replica is left to wait for: the transaction commits iff a
        quorum answered."""
        if answers:
            result.output = list(answers.values())[-1]
        result.committed = len(answers) >= quorum
        result.finished_at = self.sim.now
        if result.committed:
            self.txns_committed += 1
        done.try_resolve(result)

    # ------------------------------------------------------------------
    def _replica_on_message(self, proc: int, message) -> None:
        if message.payload[0] != "tpcc":
            return
        _tag, call_id, client_proc, txn = message.payload
        output = self.replicas[proc].execute(txn)
        self.calls.answer(proc, client_proc, call_id, output, size_bytes=48)

    # ------------------------------------------------------------------
    def mark_replica_failed(self, proc: int) -> None:
        """Remove a failed replica from scattering targets (driven by the
        1Pipe proc-failure callback in benchmarks), and stop waiting on
        it in pending transactions."""
        self.failed_replicas.add(proc)
        self.calls.forget(proc)

    def resync_replica(self, proc: int, from_proc: int) -> int:
        """Copy state from a healthy replica (log sync after recovery);
        returns the number of executed transactions transferred."""
        import copy

        self.replicas[proc] = copy.deepcopy(self.replicas[from_proc])
        self.failed_replicas.discard(proc)
        return self.replicas[proc].executed

    def shard_fingerprints(self, warehouse: int) -> List[tuple]:
        return [
            self.replicas[p].fingerprint()
            for p in self.replica_procs_of(warehouse)
            if p not in self.failed_replicas
        ]


# ----------------------------------------------------------------------
# RPC-based baselines (Lock / OCC / NonTX)
# ----------------------------------------------------------------------
class _TpccRpcBase:
    """Shared plumbing: primaries + backups as RPC servers."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_clients: int,
        n_warehouses: int = 4,
        n_replicas: int = 3,
        cpu_ns_per_msg: int = 200,
        id_offset: int = 0,
    ) -> None:
        self.sim = sim
        self.n_warehouses = n_warehouses
        self.n_replicas = n_replicas
        self.txns_committed = 0
        self.txns_aborted = 0
        self._base = TPCC_RPC_BASE + id_offset
        n_server_procs = n_warehouses * n_replicas
        rpcs = rpc_endpoints(
            topology, self._base, n_server_procs + n_clients, cpu_ns_per_msg
        )
        self.states: Dict[int, WarehouseState] = {}
        self.server_rpcs: Dict[int, RpcEndpoint] = {}
        for proc in range(n_server_procs):
            self.states[proc] = WarehouseState(proc // n_replicas)
            self._serve(rpcs[proc], proc)
            self.server_rpcs[proc] = rpcs[proc]
        self.client_ids = list(range(n_server_procs, n_server_procs + n_clients))
        self.client_rpcs = {proc: rpcs[proc] for proc in self.client_ids}

    def primary_of(self, warehouse: int) -> int:
        return warehouse * self.n_replicas

    def backups_of(self, warehouse: int) -> List[int]:
        base = warehouse * self.n_replicas
        return [base + r for r in range(1, self.n_replicas)]

    def _serve(self, rpc: RpcEndpoint, proc: int) -> None:
        raise NotImplementedError

    def run_txn(self, client_proc: int, txn: tuple) -> Future:
        result = TxnResult()
        result.started_at = self.sim.now
        done = Future(self.sim)
        Process(self.sim, self._txn_proc(client_proc, txn, result, done))
        return done

    def _txn_proc(self, client_proc, txn, result, done):
        raise NotImplementedError

    def _replicate(self, rpc: RpcEndpoint, warehouse: int, txn: tuple):
        """Synchronous replication of the command to the backups."""
        return all_of(
            [
                rpc.call(self._base + backup, "apply", txn, size_bytes=128)
                for backup in self.backups_of(warehouse)
            ]
        )


class TpccLock(_TpccRpcBase):
    """Two-phase locking with synchronous replication under the lock."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("id_offset", 100_000)
        super().__init__(*args, **kwargs)
        self.lock_tables: Dict[int, LockTable] = {
            self.primary_of(w): LockTable(self.sim)
            for w in range(self.n_warehouses)
        }

    def _serve(self, rpc: RpcEndpoint, proc: int) -> None:
        rpc.serve("apply", lambda src, txn, proc=proc: self.states[proc].execute(txn))
        if proc % self.n_replicas == 0:  # primary-only services
            rpc.serve("unlock", lambda src, arg, proc=proc: self._unlock(proc, arg))

    def _unlock(self, proc: int, arg) -> bool:
        owner, = arg
        self.lock_tables[proc].release(("wh",), owner)
        return True

    def _txn_proc(self, client_proc, txn, result, done):
        _kind, warehouse, _arg = txn
        primary = self.primary_of(warehouse)
        rpc = self.client_rpcs[client_proc]
        owner = (client_proc, self.sim.now)
        # Lock the hot warehouse row at the primary.  The lock table is
        # shared state on the primary; acquiring it takes an RPC.
        lock_granted = Future(self.sim)
        self.sim.schedule(  # request travels to the primary
            self._rpc_delay(),
            lambda: self.lock_tables[primary]
            .acquire(("wh",), owner)
            .add_callback(lambda f: self.sim.schedule(
                self._rpc_delay(), lock_granted.try_resolve, True
            )),
        )
        yield lock_granted
        # Execute at the primary, replicate to backups under the lock.
        output = yield rpc.call(self._base + primary, "apply", txn, size_bytes=128)
        yield self._replicate(rpc, warehouse, txn)
        yield rpc.call(self._base + primary, "unlock", (owner,))
        result.output = output
        result.committed = True
        result.finished_at = self.sim.now
        self.txns_committed += 1
        done.try_resolve(result)

    def _rpc_delay(self) -> int:
        return 2_000  # one-way RPC to the primary (lock manager traffic)


class TpccOcc(_TpccRpcBase):
    """OCC: read versions, validate+install at commit, replicate inside
    the critical section; abort on conflict."""

    def __init__(self, *args, max_retries: int = 100, **kwargs) -> None:
        kwargs.setdefault("id_offset", 200_000)
        super().__init__(*args, **kwargs)
        self.max_retries = max_retries
        # Version of each primary's hot warehouse row.
        self.row_versions: Dict[int, int] = {
            self.primary_of(w): 0 for w in range(self.n_warehouses)
        }

    def _serve(self, rpc: RpcEndpoint, proc: int) -> None:
        rpc.serve("apply", lambda src, txn, proc=proc: self.states[proc].execute(txn))
        if proc % self.n_replicas == 0:
            rpc.serve(
                "read_version",
                lambda src, arg, proc=proc: self.row_versions[proc],
            )
            rpc.serve(
                "occ_commit",
                lambda src, arg, proc=proc: self._occ_commit(proc, arg),
            )

    def _occ_commit(self, proc: int, arg):
        txn, expected_version, writes_row = arg
        if self.row_versions[proc] != expected_version:
            return (False, None)
        output = self.states[proc].execute(txn)
        if writes_row:
            self.row_versions[proc] += 1
        return (True, output)

    def _txn_proc(self, client_proc, txn, result, done):
        kind, warehouse, _arg = txn
        primary = self.primary_of(warehouse)
        rpc = self.client_rpcs[client_proc]
        writes_row = kind == TpccMix.PAYMENT  # Payment updates the row
        for _attempt in range(self.max_retries):
            version = yield rpc.call(self._base + primary, "read_version", None)
            ok, output = yield rpc.call(
                self._base + primary,
                "occ_commit",
                (txn, version, writes_row),
                size_bytes=128,
            )
            if not ok:
                result.aborts += 1
                self.txns_aborted += 1
                continue
            yield self._replicate(rpc, warehouse, txn)
            result.output = output
            result.committed = True
            break
        result.finished_at = self.sim.now
        if result.committed:
            self.txns_committed += 1
        done.try_resolve(result)


class TpccNonTx(_TpccRpcBase):
    """No concurrency control, asynchronous replication: upper bound."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("id_offset", 300_000)
        super().__init__(*args, **kwargs)

    def _serve(self, rpc: RpcEndpoint, proc: int) -> None:
        rpc.serve("apply", lambda src, txn, proc=proc: self.states[proc].execute(txn))

    def _txn_proc(self, client_proc, txn, result, done):
        _kind, warehouse, _arg = txn
        primary = self.primary_of(warehouse)
        rpc = self.client_rpcs[client_proc]
        output = yield rpc.call(self._base + primary, "apply", txn, size_bytes=128)
        # Fire-and-forget replication to the backups.
        for backup in self.backups_of(warehouse):
            rpc.call(self._base + backup, "apply", txn, size_bytes=128)
        result.output = output
        result.committed = True
        result.finished_at = self.sim.now
        self.txns_committed += 1
        done.try_resolve(result)
