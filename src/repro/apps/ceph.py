"""Ceph-style replicated object storage (paper §7.3.4).

The baseline models Ceph OSD primary-backup replication: a 4 KB random
write travels client → primary; the primary writes its disk, then
forwards to the first backup, which writes and forwards the ack; then
the second backup — "the backups are also written sequentially", so the
client waits for 3 disk writes and 6 network messages (3 RTTs) in
sequence.

With 1Pipe's 1-RTT replication (§2.2.2) the client scatters the write to
all three OSDs directly; each writes its disk in parallel and acks with
its log checksum; the client completes after one round trip plus a
single disk write.  The paper measures 160±54 µs → 58±28 µs (64%
reduction) on Intel DC S3700 SSDs; the SSD model below is calibrated so
the *baseline* composition reproduces that band.
"""

from __future__ import annotations

from typing import Any

from repro.apps.gather import Calls
from repro.net.rpc import rpc_endpoints
from repro.net.topology import Topology
from repro.onepipe.cluster import OnePipeCluster
from repro.sim import Future, Process, Simulator

CEPH_RPC_BASE = 11_000_000
CEPH_RESP_BASE = 12_000_000


class SsdModel:
    """Latency model of a datacenter SATA SSD (Intel DC S3700 class).

    4 KB random-write latency: ~45 µs median with a lognormal-ish tail,
    matching the testbed's measured end-to-end compositions.
    """

    def __init__(self, sim: Simulator, name: str, median_us: float = 45.0,
                 sigma: float = 0.35) -> None:
        self.sim = sim
        self._rng = sim.rng(f"ssd.{name}")
        self.median_us = median_us
        self.sigma = sigma
        self.writes = 0

    def write(self, _n_bytes: int = 4096) -> Future:
        """Returns a future resolving when the write is durable."""
        import math

        self.writes += 1
        latency_us = self.median_us * math.exp(
            self._rng.gauss(0.0, self.sigma)
        )
        done = Future(self.sim)
        self.sim.schedule(int(latency_us * 1000), done.try_resolve, True)
        return done


class CephBaseline:
    """Primary-backup chain replication with sequential backup writes."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_replicas: int = 3,
        n_clients: int = 1,
        cpu_ns_per_msg: int = 500,
    ) -> None:
        self.sim = sim
        self.n_replicas = n_replicas
        rpcs = rpc_endpoints(
            topology, CEPH_RPC_BASE, n_replicas + n_clients, cpu_ns_per_msg
        )
        self.disks = [SsdModel(sim, f"osd{r}") for r in range(n_replicas)]
        self.osd_rpcs = rpcs[:n_replicas]
        self.client_rpcs = rpcs[n_replicas:]
        for rpc in self.osd_rpcs:
            # The RPC acknowledges receipt; the sequential disk write and
            # next-hop forwarding are driven by the chain process below.
            rpc.serve("chain_write", lambda src, arg: True)
        self.writes_completed = 0

    def write(self, client_idx: int, object_id: Any, n_bytes: int = 4096) -> Future:
        done = Future(self.sim)
        Process(self.sim, self._write_proc(client_idx, n_bytes, done))
        return done

    def _write_proc(self, client_idx: int, n_bytes: int, done: Future):
        rpc = self.client_rpcs[client_idx]
        # Hop 1: client -> primary (RPC), primary writes its disk.
        yield rpc.call(CEPH_RPC_BASE + 0, "chain_write", None, size_bytes=n_bytes)
        yield self.disks[0].write(n_bytes)
        # Hops 2..n: primary forwards to each backup sequentially; each
        # backup's disk write completes before the next hop.
        primary_rpc = self.osd_rpcs[0]
        for r in range(1, self.n_replicas):
            yield primary_rpc.call(
                CEPH_RPC_BASE + r, "chain_write", None, size_bytes=n_bytes
            )
            yield self.disks[r].write(n_bytes)
        self.writes_completed += 1
        done.try_resolve(True)


class CephOnePipe:
    """1-RTT parallel replication via a best-effort 1Pipe scattering.

    Process layout: endpoints ``[0, n_replicas)`` are OSDs; clients are
    later endpoints.
    """

    def __init__(
        self,
        cluster: OnePipeCluster,
        n_replicas: int = 3,
        cpu_ns_per_msg: int = 500,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.n_replicas = n_replicas
        self.disks = [SsdModel(self.sim, f"oposd{r}") for r in range(n_replicas)]
        self.calls = Calls(cluster, CEPH_RESP_BASE)
        self.writes_completed = 0
        for proc in range(n_replicas):
            cluster.endpoint(proc).on_recv(
                lambda message, r=proc: self._osd_on_message(r, message)
            )
        self.client_procs = list(range(n_replicas, cluster.n_processes))
        self.calls.attach(range(n_replicas), cpu_ns_per_msg)
        self.calls.attach(self.client_procs, 0)

    def write(self, client_proc: int, object_id: Any, n_bytes: int = 4096) -> Future:
        done = Future(self.sim)
        call = self.calls.open(range(self.n_replicas))
        call.future.add_callback(lambda _f: self._written(done))
        entries = [
            (r, ("wr", call.id, client_proc, object_id), n_bytes)
            for r in range(self.n_replicas)
        ]
        self.cluster.endpoint(client_proc).unreliable_send(entries)
        return done

    def _written(self, done: Future) -> None:
        self.writes_completed += 1
        done.try_resolve(True)

    def _osd_on_message(self, replica: int, message) -> None:
        if message.payload[0] != "wr":
            return
        _tag, call_id, client_proc, _object_id = message.payload
        disk_done = self.disks[replica].write()
        disk_done.add_callback(
            lambda _f: self.calls.answer(
                replica, client_proc, call_id, None, size_bytes=32
            )
        )
