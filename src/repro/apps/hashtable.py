"""Remote (RDMA) hash table (paper §7.3.3, Fig. 16).

A concurrent hash table sharded over ``n_servers`` servers; each bucket
is a linked list of entries living in the server's registered memory.

- :class:`RdmaHashTable` — the baseline: clients use one-sided READ /
  WRITE / CAS.  An insert writes the entry, then must *fence* (wait for
  the write's completion) before swinging the bucket pointer, or a
  concurrent reader could follow the pointer into unwritten memory —
  the WAW hazard of §2.2.1.  With replication, a leader-follower scheme
  sends updates to the leader, whose CPU forwards them to followers;
  only the leader may serve lookups (serializability).
- :class:`OnePipeHashTable` — operations travel through 1Pipe and are
  executed at each server in timestamp order: the fence disappears
  (write entry + swing pointer are pipelined back-to-back), and with
  replication every replica delivers the same update order, so *any*
  replica can serve a lookup — lookup throughput scales with the number
  of replicas (Fig. 16).

Bucket-pointer updates use CAS-with-retry in the baseline and are
naturally serialized by timestamps in the 1Pipe variant.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.gather import Calls
from repro.net.rpc import Messenger
from repro.net.topology import Topology
from repro.onepipe.cluster import OnePipeCluster
from repro.rdma.memory import MemoryRegion
from repro.rdma.ops import RdmaAgent, RdmaClient
from repro.sim import Future, Process, Simulator

HT_RESP_BASE = 6_000_000
HT_RPC_BASE = 7_000_000

N_BUCKETS = 4096


def bucket_of(key: int) -> int:
    return (key * 2654435761) % N_BUCKETS


def shard_of(key: int, n_servers: int) -> int:
    return key % n_servers


class _Region:
    """Hash table layout in a memory region.

    Addresses: ``("b", bucket)`` holds the head entry id (or None);
    ``("e", entry_id)`` holds ``(key, value, next_entry_id)``.
    """

    @staticmethod
    def apply_insert(region: MemoryRegion, entry_id, key, value, head):
        region.write(("e", entry_id), (key, value, head))
        region.write(("b", bucket_of(key)), entry_id)

    @staticmethod
    def chase(region: MemoryRegion, key: int) -> Optional[Any]:
        entry_id = region.read(("b", bucket_of(key)))
        while entry_id is not None:
            entry = region.read(("e", entry_id))
            if entry is None:
                return None
            ekey, value, entry_id = entry
            if ekey == key:
                return value
        return None


# ----------------------------------------------------------------------
# Baseline: one-sided RDMA with fences; leader-follower replication
# ----------------------------------------------------------------------
class RdmaHashTable:
    """One-sided-RDMA hash table with fences and leader-follower
    replication."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_servers: int = 16,
        n_clients: int = 16,
        n_replicas: int = 1,
        replication_cpu_ns: int = 400,
    ) -> None:
        self.sim = sim
        self.n_servers = n_servers
        self.n_replicas = n_replicas
        hosts = topology.assign_hosts(n_servers * n_replicas + n_clients)
        # Shard s replica r -> host index s * n_replicas + r; the leader
        # is replica 0.
        self.agents: Dict[Tuple[int, int], RdmaAgent] = {}
        self._follower_msgrs: Dict[Tuple[int, int], Messenger] = {}
        for s in range(n_servers):
            for r in range(n_replicas):
                host = hosts[s * n_replicas + r]
                agent = RdmaAgent(host)
                self.agents[(s, r)] = agent
                if n_replicas > 1:
                    messenger = Messenger(
                        host, HT_RPC_BASE + s * n_replicas + r,
                        cpu_ns_per_msg=replication_cpu_ns,
                    )
                    if r > 0:
                        messenger.on(
                            "repl",
                            lambda src, body, s=s, r=r: self._apply_replicated(
                                s, r, body
                            ),
                        )
                    else:
                        messenger.on("repl_ack", self._on_repl_ack)
                    self._follower_msgrs[(s, r)] = messenger
        self.clients: List[RdmaClient] = [
            RdmaClient(hosts[n_servers * n_replicas + c])
            for c in range(n_clients)
        ]
        self._repl_pending: Dict[int, tuple] = {}
        self._repl_ids = itertools.count(1)
        self._entry_ids = itertools.count(1)
        self.inserts = 0
        self.lookups = 0

    def leader_host(self, shard: int) -> str:
        return self.agents[(shard, 0)].host.node_id

    # ------------------------------------------------------------------
    def insert(self, client_idx: int, key: int, value: Any) -> Future:
        done = Future(self.sim)
        Process(self.sim, self._insert_proc(client_idx, key, value, done))
        return done

    def _insert_proc(self, client_idx, key, value, done):
        client = self.clients[client_idx]
        shard = shard_of(key, self.n_servers)
        leader = self.leader_host(shard)
        region = self.agents[(shard, 0)].region
        entry_id = (client_idx << 32) | next(self._entry_ids)
        while True:
            head = yield client.read(leader, ("b", bucket_of(key)))
            client.write(leader, ("e", entry_id), (key, value, head))
            # FENCE: the entry write must complete before the pointer
            # swing becomes visible (§2.2.1) — a full round trip.
            yield client.fence()
            swapped, _old = yield client.compare_and_swap(
                leader, ("b", bucket_of(key)), head, entry_id
            )
            if swapped:
                break
        if self.n_replicas > 1:
            # Leader-follower: the leader's CPU forwards the update.
            yield self._replicate(shard, (entry_id, key, value))
        self.inserts += 1
        done.try_resolve(True)

    def _replicate(self, shard: int, update: tuple) -> Future:
        repl_id = next(self._repl_ids)
        future = Future(self.sim)
        remaining = self.n_replicas - 1
        self._repl_pending[repl_id] = (future, remaining)
        leader_msgr = self._follower_msgrs[(shard, 0)]
        for r in range(1, self.n_replicas):
            leader_msgr.send(
                HT_RPC_BASE + shard * self.n_replicas + r,
                self.agents[(shard, r)].host.node_id,
                "repl",
                (repl_id, shard, update),
                size_bytes=96,
            )
        return future

    def _apply_replicated(self, shard: int, replica: int, body) -> None:
        repl_id, _shard, (entry_id, key, value) = body
        region = self.agents[(shard, replica)].region
        head = region.read(("b", bucket_of(key)))
        _Region.apply_insert(region, entry_id, key, value, head)
        self._follower_msgrs[(shard, replica)].send(
            HT_RPC_BASE + shard * self.n_replicas,
            self.agents[(shard, 0)].host.node_id,
            "repl_ack",
            repl_id,
            size_bytes=16,
        )

    def _on_repl_ack(self, _src: int, repl_id: int) -> None:
        entry = self._repl_pending.get(repl_id)
        if entry is None:
            return
        future, remaining = entry
        remaining -= 1
        if remaining == 0:
            del self._repl_pending[repl_id]
            future.try_resolve(True)
        else:
            self._repl_pending[repl_id] = (future, remaining)

    # ------------------------------------------------------------------
    def lookup(self, client_idx: int, key: int) -> Future:
        done = Future(self.sim)
        Process(self.sim, self._lookup_proc(client_idx, key, done))
        return done

    def _lookup_proc(self, client_idx, key, done):
        # Serializable lookups must go to the leader (only it is
        # guaranteed up to date in leader-follower replication).
        client = self.clients[client_idx]
        shard = shard_of(key, self.n_servers)
        leader = self.leader_host(shard)
        entry_id = yield client.read(leader, ("b", bucket_of(key)))
        value = None
        while entry_id is not None:
            entry = yield client.read(leader, ("e", entry_id))
            if entry is None:
                break
            ekey, evalue, entry_id = entry
            if ekey == key:
                value = evalue
                break
        self.lookups += 1
        done.try_resolve(value)


# ----------------------------------------------------------------------
# 1Pipe variant: ordered ops, no fences, all replicas serve reads
# ----------------------------------------------------------------------
class OnePipeHashTable:
    """Hash table whose operations are ordered by 1Pipe.

    Process layout: endpoints ``[0, n_servers * n_replicas)`` are
    servers (shard-major), endpoints after that are clients.
    """

    def __init__(
        self,
        cluster: OnePipeCluster,
        n_servers: int = 16,
        n_replicas: int = 1,
        cpu_ns_per_msg: int = 150,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.n_servers = n_servers
        self.n_replicas = n_replicas
        n_server_procs = n_servers * n_replicas
        if cluster.n_processes <= n_server_procs:
            raise ValueError("cluster too small for servers plus clients")
        self.regions: Dict[int, MemoryRegion] = {}
        self.calls = Calls(cluster, HT_RESP_BASE)
        # Per-instance so entry ids depend only on this run's history,
        # not on what else ran in the same Python process.
        self._entry_ids = itertools.count(1)
        self._lookup_rng = self.sim.rng("hashtable.replica_choice")
        self.inserts = 0
        self.lookups = 0
        for proc in range(n_server_procs):
            self.regions[proc] = MemoryRegion(f"ht{proc}")
            cluster.endpoint(proc).on_recv(
                lambda message, proc=proc: self._server_on_message(proc, message)
            )
        self.client_procs = list(range(n_server_procs, cluster.n_processes))
        self.calls.attach(range(cluster.n_processes), cpu_ns_per_msg)

    def replica_procs_of(self, shard: int) -> List[int]:
        base = shard * self.n_replicas
        return [base + r for r in range(self.n_replicas)]

    # ------------------------------------------------------------------
    def insert(self, client_proc: int, key: int, value: Any) -> Future:
        """Fence-free insert: entry write and pointer swing are pipelined
        in one reliable scattering; replicas apply both in timestamp
        order, so readers can never see the pointer before the entry."""
        entry_id = (client_proc << 32) | next(self._entry_ids)
        targets = self.replica_procs_of(shard_of(key, self.n_servers))
        call = self.calls.open(targets)
        entries = [
            (p, ("ins", call.id, client_proc, entry_id, key, value), 96)
            for p in targets
        ]
        self.cluster.endpoint(client_proc).reliable_send(entries)
        return self._done(call, insert=True)

    def lookup(self, client_proc: int, key: int) -> Future:
        """Ordered lookup served by a *random* replica — all replicas
        deliver updates in the same order, so any of them is
        serializable (the Fig. 16 scaling effect)."""
        replicas = self.replica_procs_of(shard_of(key, self.n_servers))
        target = replicas[self._lookup_rng.randrange(len(replicas))]
        call = self.calls.open([target])
        self.cluster.endpoint(client_proc).unreliable_send(
            [(target, ("get", call.id, client_proc, key), 32)]
        )
        return self._done(call, insert=False)

    def _done(self, call, insert: bool) -> Future:
        """Resolves with the call's last answer; counts the op first."""
        done = Future(self.sim)

        def finish(f) -> None:
            if insert:
                self.inserts += 1
            else:
                self.lookups += 1
            done.try_resolve(list(f.value.values())[-1])

        call.future.add_callback(finish)
        return done

    # ------------------------------------------------------------------
    def _server_on_message(self, proc: int, message) -> None:
        payload = message.payload
        tag = payload[0]
        region = self.regions[proc]
        if tag == "ins":
            _tag, call_id, client_proc, entry_id, key, value = payload
            head = region.read(("b", bucket_of(key)))
            _Region.apply_insert(region, entry_id, key, value, head)
            result = True
        elif tag == "get":
            _tag, call_id, client_proc, key = payload
            result = _Region.chase(region, key)
        else:
            return
        self.calls.answer(proc, client_proc, call_id, result, size_bytes=48)
