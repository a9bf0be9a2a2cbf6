"""Transactional key-value store (paper §7.3.1, Fig. 14).

Three systems, same workload interface:

- :class:`OnePipeKVS` — the paper's design: every process is both a
  shard server and a transaction initiator.  A transaction is one
  scattering with a single timestamp: read-only transactions ride best
  effort 1Pipe (1 round trip, retried on loss), write transactions ride
  reliable 1Pipe.  Servers apply operations in delivery (timestamp)
  order — no locks, no aborts: transactions on the same key serialize by
  timestamp.
- :class:`FarmKVS` — FaRM-style baseline (non-replicated, non-durable):
  read-only in 1 RTT with version+lock checks; writes via OCC with
  two-phase commit (lock write set, validate read versions, install and
  unlock) — 3–4 RTTs and aborts under contention.
- :class:`NonTxKVS` — plain sharded store, one RPC per operation, no
  transactional guarantees: the hardware upper bound.

Transactions use the op format of :class:`repro.apps.workloads.TxnMix`:
``('r', key, None)`` / ``('w', key, value_size)``.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.net.rpc import Directory, Messenger, RpcEndpoint
from repro.net.topology import Topology
from repro.onepipe.cluster import OnePipeCluster
from repro.sim import Future, Simulator

# Messenger proc-id namespaces (1Pipe endpoints use 0..N-1).
RESP_BASE = 1_000_000
RPC_BASE = 2_000_000
NONTX_BASE = 3_000_000


class TxnResult:
    """Outcome of a transaction."""

    __slots__ = ("committed", "values", "aborts", "started_at", "finished_at")

    def __init__(self) -> None:
        self.committed = False
        self.values: Dict[int, Any] = {}
        self.aborts = 0
        self.started_at = 0
        self.finished_at = 0

    @property
    def latency_ns(self) -> int:
        return self.finished_at - self.started_at


def classify(ops: List[tuple]) -> str:
    """'ro' (read-only), 'wo' (write-only) or 'wr' (read-write)."""
    has_read = any(op[0] == "r" for op in ops)
    has_write = any(op[0] == "w" for op in ops)
    if has_write and has_read:
        return "wr"
    return "wo" if has_write else "ro"


# ----------------------------------------------------------------------
# 1Pipe KVS
# ----------------------------------------------------------------------
class OnePipeKVS:
    """The paper's transactional KVS on 1Pipe."""

    def __init__(
        self,
        cluster: OnePipeCluster,
        ro_retry_timeout_ns: int = 300_000,
        cpu_ns_per_msg: int = 200,
    ) -> None:
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.n = cluster.n_processes
        self.ro_retry_timeout_ns = ro_retry_timeout_ns
        self.storage: List[Dict[int, Any]] = [dict() for _ in range(self.n)]
        self._responders: List[Messenger] = []
        self._pending: Dict[int, _PendingTxn] = {}
        # Per-instance so txn ids depend only on this run's history, not
        # on what else ran in the same Python process.
        self._txn_ids = itertools.count(1)
        self.txns_committed = 0
        self.ro_retries = 0
        for i in range(self.n):
            endpoint = cluster.endpoint(i)
            endpoint.on_recv(
                lambda message, shard=i: self._server_on_message(shard, message)
            )
            responder = Messenger(
                endpoint.agent.host, RESP_BASE + i, cpu_ns_per_msg
            )
            responder.on("resp", self._client_on_response)
            self._responders.append(responder)

    def shard_of(self, key: int) -> int:
        return key % self.n

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def run_txn(self, initiator: int, ops: List[tuple]) -> Future:
        """Execute a transaction from process ``initiator``.

        Returns a future resolving with a :class:`TxnResult`.
        """
        result = TxnResult()
        result.started_at = self.sim.now
        future = Future(self.sim)
        self._submit(initiator, ops, result, future)
        return future

    def _submit(self, initiator: int, ops, result: TxnResult, future) -> None:
        txn_id = next(self._txn_ids)
        kind = classify(ops)
        by_shard: Dict[int, List[tuple]] = {}
        for op in ops:
            by_shard.setdefault(self.shard_of(op[1]), []).append(op)
        pending = _PendingTxn(
            initiator, ops, kind, set(by_shard), result, future
        )
        self._pending[txn_id] = pending
        entries = [
            (shard, ("txn", txn_id, initiator, shard_ops), 24 + 16 * len(shard_ops))
            for shard, shard_ops in by_shard.items()
        ]
        endpoint = self.cluster.endpoint(initiator)
        if kind == "ro":
            endpoint.unreliable_send(entries)
            pending.timer = self.sim.schedule(
                self.ro_retry_timeout_ns, self._ro_timeout, txn_id
            )
        else:
            endpoint.reliable_send(entries)

    def _ro_timeout(self, txn_id: int) -> None:
        """A read-only transaction lost a message: retry it (§2.2.3)."""
        pending = self._pending.pop(txn_id, None)
        if pending is None:
            return
        pending.result.aborts += 1
        self.ro_retries += 1
        self._submit(
            pending.initiator, pending.ops, pending.result, pending.future
        )

    def _client_on_response(self, _src: int, body: Any) -> None:
        txn_id, shard, values = body
        pending = self._pending.get(txn_id)
        if pending is None:
            return  # a retried transaction's stale response
        pending.result.values.update(values)
        pending.waiting.discard(shard)
        if not pending.waiting:
            del self._pending[txn_id]
            if pending.timer is not None:
                pending.timer.cancel()
            pending.result.committed = True
            pending.result.finished_at = self.sim.now
            self.txns_committed += 1
            pending.future.try_resolve(pending.result)

    # ------------------------------------------------------------------
    # Server side: apply in delivery (timestamp) order
    # ------------------------------------------------------------------
    def _server_on_message(self, shard: int, message) -> None:
        tag = message.payload[0]
        if tag != "txn":
            return
        _tag, txn_id, initiator, shard_ops = message.payload
        store = self.storage[shard]
        values = {}
        for op, key, arg in shard_ops:
            if op == "r":
                values[key] = store.get(key)
            else:
                store[key] = ("v", message.ts, arg)
        self._responders[shard].send(
            RESP_BASE + initiator,
            self.cluster.directory.host_of(initiator),
            "resp",
            (txn_id, shard, values),
            size_bytes=32 + 16 * len(values),
        )


class _PendingTxn:
    __slots__ = ("initiator", "ops", "kind", "waiting", "result", "future", "timer")

    def __init__(self, initiator, ops, kind, waiting, result, future):
        self.initiator = initiator
        self.ops = ops
        self.kind = kind
        self.waiting = waiting
        self.result = result
        self.future = future
        self.timer = None


# ----------------------------------------------------------------------
# FaRM-style OCC baseline
# ----------------------------------------------------------------------
class FarmKVS:
    """FaRM-like KVS: versioned reads, OCC writes with 2PC (§7.3.1)."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_processes: int,
        cpu_ns_per_msg: int = 200,
        max_retries: int = 50,
    ) -> None:
        self.sim = sim
        self.n = n_processes
        self.max_retries = max_retries
        self.directory = Directory()
        # Per shard: key -> (value, version); plus a lock table.
        self.storage: List[Dict[int, Tuple[Any, int]]] = [
            dict() for _ in range(self.n)
        ]
        self.locks: List[Dict[int, int]] = [dict() for _ in range(self.n)]
        self.rpcs: List[RpcEndpoint] = []
        self._txn_ids = itertools.count(1)
        self.txns_committed = 0
        self.txns_aborted = 0
        hosts = topology.assign_hosts(n_processes)
        for i, host in enumerate(hosts):
            self.directory.register(RPC_BASE + i, host.node_id)
        for i, host in enumerate(hosts):
            rpc = RpcEndpoint(
                Messenger(host, RPC_BASE + i, cpu_ns_per_msg), self.directory
            )
            rpc.serve("read", lambda src, arg, i=i: self._read(i, arg))
            rpc.serve("lock", lambda src, arg, i=i: self._lock(i, arg))
            rpc.serve("commit", lambda src, arg, i=i: self._commit(i, arg))
            rpc.serve("abort", lambda src, arg, i=i: self._abort(i, arg))
            rpc.serve("validate", lambda src, arg, i=i: self._validate(i, arg))
            self.rpcs.append(rpc)

    def shard_of(self, key: int) -> int:
        return key % self.n

    # Server-side handlers ------------------------------------------------
    def _read(self, shard: int, key: int):
        value, version = self.storage[shard].get(key, (None, 0))
        locked = key in self.locks[shard]
        return (value, version, locked)

    def _lock(self, shard: int, arg):
        key, txn_id, expected_version = arg
        if key in self.locks[shard]:
            return False
        _value, version = self.storage[shard].get(key, (None, 0))
        if expected_version is not None and version != expected_version:
            return False
        self.locks[shard][key] = txn_id
        return True

    def _validate(self, shard: int, arg):
        key, expected_version, txn_id = arg
        _value, version = self.storage[shard].get(key, (None, 0))
        owner = self.locks[shard].get(key)
        # A lock held by the validating transaction itself is fine (the
        # read set may overlap the write set).
        return version == expected_version and owner in (None, txn_id)

    def _commit(self, shard: int, arg):
        key, txn_id, value = arg
        if self.locks[shard].get(key) != txn_id:
            return False
        _old, version = self.storage[shard].get(key, (None, 0))
        self.storage[shard][key] = (value, version + 1)
        del self.locks[shard][key]
        return True

    def _abort(self, shard: int, arg):
        key, txn_id = arg
        if self.locks[shard].get(key) == txn_id:
            del self.locks[shard][key]
        return True

    # Client side ----------------------------------------------------------
    def run_txn(self, initiator: int, ops: List[tuple]) -> Future:
        from repro.sim import Process

        result = TxnResult()
        result.started_at = self.sim.now
        done = Future(self.sim)
        Process(self.sim, self._txn_proc(initiator, ops, result, done))
        return done

    def _txn_proc(self, initiator: int, ops, result: TxnResult, done: Future):
        from repro.sim import all_of, sim_sleep

        rpc = self.rpcs[initiator]
        backoff_rng = self.sim.rng(f"farm.backoff.{initiator}")
        kind = classify(ops)
        for _attempt in range(self.max_retries):
            if result.aborts:
                # Randomized backoff breaks retry lockstep under
                # contention (FaRM clients do the same).
                yield sim_sleep(
                    self.sim, backoff_rng.randrange(2_000, 30_000)
                )
            txn_id = next(self._txn_ids)
            reads = [op for op in ops if op[0] == "r"]
            writes = [op for op in ops if op[0] == "w"]
            # Read phase (also fetches versions of the write set for OCC).
            versions: Dict[int, int] = {}
            read_keys = [op[1] for op in reads]
            if kind != "wo":
                futures = [
                    rpc.call(RPC_BASE + self.shard_of(k), "read", k)
                    for k in read_keys + [op[1] for op in writes]
                ]
                replies = yield all_of(futures)
                locked = False
                for key, (value, version, is_locked) in zip(
                    read_keys + [op[1] for op in writes], replies
                ):
                    versions[key] = version
                    locked = locked or is_locked
                    if key in read_keys:
                        result.values[key] = value
                if locked:
                    result.aborts += 1
                    self.txns_aborted += 1
                    continue
                if kind == "ro":
                    # 1-RTT read-only path (value+version+lock check).
                    result.committed = True
                    break
            # Commit phase: lock write set.
            lock_futures = [
                rpc.call(
                    RPC_BASE + self.shard_of(key),
                    "lock",
                    (key, txn_id, versions.get(key)),
                )
                for _op, key, _arg in writes
            ]
            grants = yield all_of(lock_futures)
            if not all(grants):
                yield all_of(
                    [
                        rpc.call(
                            RPC_BASE + self.shard_of(key), "abort", (key, txn_id)
                        )
                        for _op, key, _arg in writes
                    ]
                )
                result.aborts += 1
                self.txns_aborted += 1
                continue
            # Validate the read set (WR only), then install + unlock.
            if kind == "wr" and reads:
                checks = yield all_of(
                    [
                        rpc.call(
                            RPC_BASE + self.shard_of(key),
                            "validate",
                            (key, versions[key], txn_id),
                        )
                        for key in read_keys
                    ]
                )
                if not all(checks):
                    yield all_of(
                        [
                            rpc.call(
                                RPC_BASE + self.shard_of(key),
                                "abort",
                                (key, txn_id),
                            )
                            for _op, key, _arg in writes
                        ]
                    )
                    result.aborts += 1
                    self.txns_aborted += 1
                    continue
            yield all_of(
                [
                    rpc.call(
                        RPC_BASE + self.shard_of(key),
                        "commit",
                        (key, txn_id, ("v", txn_id, arg)),
                    )
                    for _op, key, arg in writes
                ]
            )
            result.committed = True
            break
        result.finished_at = self.sim.now
        if result.committed:
            self.txns_committed += 1
        done.try_resolve(result)


# ----------------------------------------------------------------------
# Non-transactional upper bound
# ----------------------------------------------------------------------
class NonTxKVS:
    """Sharded store with one plain RPC per op — no transactions."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_processes: int,
        cpu_ns_per_msg: int = 200,
    ) -> None:
        self.sim = sim
        self.n = n_processes
        self.directory = Directory()
        self.storage: List[Dict[int, Any]] = [dict() for _ in range(self.n)]
        self.rpcs: List[RpcEndpoint] = []
        self.txns_committed = 0
        hosts = topology.assign_hosts(n_processes)
        for i, host in enumerate(hosts):
            self.directory.register(NONTX_BASE + i, host.node_id)
        for i, host in enumerate(hosts):
            rpc = RpcEndpoint(
                Messenger(host, NONTX_BASE + i, cpu_ns_per_msg), self.directory
            )
            rpc.serve("get", lambda src, key, i=i: self.storage[i].get(key))
            rpc.serve("put", lambda src, arg, i=i: self._put(i, arg))
            self.rpcs.append(rpc)

    def _put(self, shard: int, arg) -> bool:
        key, value = arg
        self.storage[shard][key] = value
        return True

    def shard_of(self, key: int) -> int:
        return key % self.n

    def run_txn(self, initiator: int, ops: List[tuple]) -> Future:
        """Fire every op in parallel; 'commit' = all RPCs answered."""
        from repro.sim import all_of

        result = TxnResult()
        result.started_at = self.sim.now
        done = Future(self.sim)
        rpc = self.rpcs[initiator]
        futures = []
        for op, key, arg in ops:
            if op == "r":
                futures.append(rpc.call(NONTX_BASE + self.shard_of(key), "get", key))
            else:
                futures.append(
                    rpc.call(NONTX_BASE + self.shard_of(key), "put", (key, arg))
                )

        def _finish(future) -> None:
            result.committed = True
            result.finished_at = self.sim.now
            self.txns_committed += 1
            done.try_resolve(result)

        all_of(futures).add_callback(_finish)
        return done
