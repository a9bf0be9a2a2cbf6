"""The open-loop engine: arrivals → admission → apps → SLO accounting.

One :class:`WorkloadEngine` drives a built cluster for one episode.  At
construction it

- installs an :class:`repro.onepipe.admission.AdmissionController` on
  every host agent that hosts app client processes,
- pre-computes each tenant's arrival instants from its rate curve
  (non-homogeneous Poisson, named stream ``workload.arrivals.<tenant>``),
- registers the per-tenant SLO metrics in the simulator's registry
  (``workload.tenant.<name>.*`` counters and the delivery-lag
  histogram; see ``KNOWN_WORKLOAD_METRICS`` in :mod:`repro.obs.export`).

Every arrival samples a logical client (Zipf over ``n_clients`` — this
is how "millions of users" stay O(1)), maps it to an initiator process,
samples a tenant key and an op kind, and submits a dispatch thunk to
the initiator host's admission controller.  Rejected submissions retry
with the tenant rate class's jittered exponential backoff (stream
``workload.retry.<tenant>``) until the retry budget is spent, then
count as dropped.  Delivery lag is client-observed completion latency:
``finish_time - arrival_time``, inclusive of queueing, retries having
happened earlier notwithstanding (each retry re-submits the same
arrival, so the lag of an op that eventually completes spans its whole
backoff history).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.apps.workloads import YcsbZipfKeys
from repro.onepipe.admission import ADMITTED, DEFERRED, REJECTED, AdmissionConfig
from repro.onepipe.cluster import OnePipeCluster
from repro.sim import Future

__all__ = ["APPS", "WORKLOAD_LAG_BOUNDS_NS", "WorkloadEngine", "build_app"]

# Delivery-lag buckets: wider than DEFAULT_LATENCY_BOUNDS_NS because an
# op that sat through several backoff rounds can take tens of ms.
WORKLOAD_LAG_BOUNDS_NS: Tuple[int, ...] = (
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
)


# ----------------------------------------------------------------------
# App adapters: a uniform issue() surface over repro.apps
# ----------------------------------------------------------------------
class RawTraffic:
    """Plain 1Pipe scatterings, one message each — the adapter the
    saturation-grade oracle tests use, because nothing but the ordering
    layer stands between the load and the delivery trace."""

    name = "raw"

    def __init__(self, cluster: OnePipeCluster) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.client_procs = list(range(cluster.n_processes))
        self.wait_queue_full = 0

    def issue(self, proc: int, key: int, write: bool, tag: str) -> Future:
        n = self.cluster.n_processes
        dst = key % n
        if dst == proc:
            dst = (dst + 1) % n
        endpoint = self.cluster.endpoint(proc)
        entries = [(dst, tag)]
        send = endpoint.reliable_send if write else endpoint.unreliable_send
        scattering = send(entries)
        done = Future(self.sim)
        if scattering is None:  # sender wait queue full — nothing entered
            self.wait_queue_full += 1
            done.try_resolve(False)
            return done
        scattering.completed.add_callback(
            lambda f: done.try_resolve(f.value)
        )
        return done


class KvsTraffic:
    """Single-op transactions on :class:`repro.apps.kvstore.OnePipeKVS`
    (every process is a shard server and an initiator)."""

    name = "kvstore"

    def __init__(self, cluster: OnePipeCluster) -> None:
        from repro.apps.kvstore import OnePipeKVS

        self.kvs = OnePipeKVS(cluster)
        self.client_procs = list(range(cluster.n_processes))

    def issue(self, proc: int, key: int, write: bool, tag: str) -> Future:
        ops = [("w", key, 64)] if write else [("r", key, None)]
        return self.kvs.run_txn(proc, ops)


class HashTableTraffic:
    """Inserts/lookups on :class:`repro.apps.hashtable.OnePipeHashTable`
    (2 shards x 2 replicas on the 8-host scenario fabric)."""

    name = "hashtable"

    def __init__(
        self, cluster: OnePipeCluster, n_servers: int = 2, n_replicas: int = 2
    ) -> None:
        from repro.apps.hashtable import OnePipeHashTable

        self.table = OnePipeHashTable(
            cluster, n_servers=n_servers, n_replicas=n_replicas
        )
        self.client_procs = list(self.table.client_procs)

    def issue(self, proc: int, key: int, write: bool, tag: str) -> Future:
        if write:
            return self.table.insert(proc, key, tag)
        return self.table.lookup(proc, key)


class ReplicationTraffic:
    """Log appends on
    :class:`repro.apps.replication.OnePipeReplicatedLog` (3 replicas;
    every op is an append — the key only diversifies payloads)."""

    name = "replication"

    def __init__(self, cluster: OnePipeCluster, n_replicas: int = 3) -> None:
        from repro.apps.replication import OnePipeReplicatedLog

        self.log = OnePipeReplicatedLog(cluster, n_replicas=n_replicas)
        self.client_procs = list(range(n_replicas, cluster.n_processes))
        for proc in self.client_procs:
            self.log.register_client(proc)

    def issue(self, proc: int, key: int, write: bool, tag: str) -> Future:
        return self.log.append(proc, tag)


APPS = {
    "raw": RawTraffic,
    "kvstore": KvsTraffic,
    "hashtable": HashTableTraffic,
    "replication": ReplicationTraffic,
}


def build_app(name: str, cluster: OnePipeCluster):
    if name not in APPS:
        raise ValueError(f"unknown workload app {name!r} (have {sorted(APPS)})")
    return APPS[name](cluster)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class _TenantState:
    __slots__ = (
        "spec", "procs", "client_picker", "key_picker", "op_rng",
        "retry_rng", "seq", "c_arrivals", "c_admitted", "c_deferred",
        "c_rejected", "c_retries", "c_dropped", "c_completed", "hist",
    )

    def __init__(self, spec, procs, client_picker, key_picker, op_rng,
                 retry_rng, metrics, lag_bounds) -> None:
        self.spec = spec
        self.procs = procs
        self.client_picker = client_picker
        self.key_picker = key_picker
        self.op_rng = op_rng
        self.retry_rng = retry_rng
        self.seq = 0
        prefix = f"workload.tenant.{spec.name}"
        self.c_arrivals = metrics.counter(f"{prefix}.arrivals")
        self.c_admitted = metrics.counter(f"{prefix}.admitted")
        self.c_deferred = metrics.counter(f"{prefix}.deferred")
        self.c_rejected = metrics.counter(f"{prefix}.rejected")
        self.c_retries = metrics.counter(f"{prefix}.retries")
        self.c_dropped = metrics.counter(f"{prefix}.dropped")
        self.c_completed = metrics.counter(f"{prefix}.completed")
        self.hist = metrics.histogram(f"{prefix}.delivery_lag_ns", lag_bounds)


class WorkloadEngine:
    """Drive one episode of open-loop multi-tenant traffic."""

    def __init__(
        self,
        cluster: OnePipeCluster,
        tenants,
        app,
        *,
        start_ns: int,
        horizon_ns: int,
        admission: AdmissionConfig,
        rng_tag: str = "workload",
    ) -> None:
        from repro.obs.registry import GLOBAL_METRICS
        from repro.workload.generators import OpenLoopArrivals

        self.sim = cluster.sim
        self.cluster = cluster
        self.app = app
        self.start_ns = start_ns
        self.horizon_ns = horizon_ns
        metrics = getattr(self.sim, "metrics", None) or GLOBAL_METRICS
        self._metrics = metrics
        self._m_arrivals = metrics.counter("workload.arrivals")
        self._m_retries = metrics.counter("workload.retries")
        self._m_dropped = metrics.counter("workload.dropped")
        self._m_completed = metrics.counter("workload.completed")
        self._h_queue_wait = metrics.histogram(
            "workload.queue_wait_ns", WORKLOAD_LAG_BOUNDS_NS
        )
        # One admission controller per host that runs client processes;
        # agents are deduplicated (several procs share a host).
        self.agents = []
        seen = set()
        for proc in app.client_procs:
            agent = cluster.endpoint(proc).agent
            if id(agent) not in seen:
                seen.add(id(agent))
                agent.install_admission(admission)
                self.agents.append(agent)
        self.agents.sort(key=lambda a: a.host.node_id)
        # Aggregate outcome counts (across tenants).
        self.offered = 0
        self.completed = 0
        self.dropped = 0
        self.retries = 0
        self.pending_retries = 0
        self.tenant_states: Dict[str, _TenantState] = {}
        for spec in tenants:
            procs = list(app.client_procs)
            if spec.initiators is not None:
                procs = [app.client_procs[i] for i in spec.initiators]
            state = _TenantState(
                spec,
                procs,
                YcsbZipfKeys(
                    self.sim.rng(f"{rng_tag}.clients.{spec.name}"),
                    n_keys=spec.n_clients,
                    theta=spec.client_theta,
                ),
                YcsbZipfKeys(
                    self.sim.rng(f"{rng_tag}.keys.{spec.name}"),
                    n_keys=spec.key_space,
                    theta=spec.key_theta,
                ),
                self.sim.rng(f"{rng_tag}.ops.{spec.name}"),
                self.sim.rng(f"{rng_tag}.retry.{spec.name}"),
                metrics,
                WORKLOAD_LAG_BOUNDS_NS,
            )
            self.tenant_states[spec.name] = state
            arrivals = OpenLoopArrivals.times(
                self.sim.rng(f"{rng_tag}.arrivals.{spec.name}"),
                spec.curve,
                start_ns,
                start_ns + horizon_ns,
            )
            for at in arrivals:
                self.sim.schedule_at(at, self._arrive, state, at)
        # Utilization is measured over the traffic window only; the
        # snapshot freezes busy/saturated time at the window's end.
        self.util_snapshot: Dict[str, dict] = {}
        self.sim.schedule_at(
            start_ns + horizon_ns, self._snapshot_utilization
        )

    # ------------------------------------------------------------------
    def _arrive(self, state: _TenantState, arrival_ns: int) -> None:
        state.c_arrivals.add()
        self._m_arrivals.add()
        self.offered += 1
        spec = state.spec
        client = state.client_picker.next_key()
        proc = state.procs[client % len(state.procs)]
        key = state.key_picker.next_key()
        write = state.op_rng.random() < spec.write_fraction
        self._submit(state, arrival_ns, proc, key, write, attempt=0)

    def _submit(
        self, state: _TenantState, arrival_ns: int, proc: int, key: int,
        write: bool, attempt: int,
    ) -> None:
        endpoint = self.cluster.endpoint(proc)
        agent = endpoint.agent
        if endpoint.closed or agent.host.failed:
            self._drop(state)
            return
        controller = agent.admission
        submit_ns = self.sim.now

        def dispatch(ticket: int) -> None:
            self._issue(
                state, arrival_ns, submit_ns, proc, key, write, ticket,
                controller,
            )

        status = controller.submit(dispatch)
        if status == ADMITTED:
            state.c_admitted.add()
            return
        if status == DEFERRED:
            state.c_deferred.add()
            return
        state.c_rejected.add()
        rate_class = state.spec.rate_class
        if attempt >= rate_class.max_retries:
            self._drop(state)
            return
        jitter = state.retry_rng.randrange(rate_class.backoff_base_ns)
        delay = rate_class.backoff_ns(attempt, jitter)
        state.c_retries.add()
        self._m_retries.add()
        self.retries += 1
        self.pending_retries += 1
        self.sim.schedule(
            delay, self._resubmit, state, arrival_ns, proc, key, write,
            attempt + 1,
        )

    def _resubmit(self, state, arrival_ns, proc, key, write, attempt) -> None:
        self.pending_retries -= 1
        self._submit(state, arrival_ns, proc, key, write, attempt)

    def _issue(
        self, state: _TenantState, arrival_ns: int, submit_ns: int,
        proc: int, key: int, write: bool, ticket: int, controller,
    ) -> None:
        now = self.sim.now
        if now > submit_ns:  # sat in the deferred FIFO
            self._h_queue_wait.observe(now - submit_ns)
        endpoint = self.cluster.endpoint(proc)
        if endpoint.closed or endpoint.agent.host.failed:
            # The host died while the op waited in the queue.
            controller.complete(ticket)
            self._drop(state)
            return
        state.seq += 1
        tag = f"w.{state.spec.name}.{proc}.{state.seq}"
        future = self.app.issue(proc, key, write, tag)

        def finish(_future) -> None:
            controller.complete(ticket)
            state.c_completed.add()
            self._m_completed.add()
            self.completed += 1
            state.hist.observe(self.sim.now - arrival_ns)

        future.add_callback(finish)

    def _drop(self, state: _TenantState) -> None:
        state.c_dropped.add()
        self._m_dropped.add()
        self.dropped += 1

    # ------------------------------------------------------------------
    def _snapshot_utilization(self) -> None:
        now = self.sim.now
        for agent in self.agents:
            controller = agent.admission
            snap = controller.utilization_snapshot(now)
            snap["max_queue_depth"] = controller.max_queue_depth
            self.util_snapshot[agent.host.node_id] = snap

    def admission_totals(self) -> Dict[str, int]:
        totals = {
            "admitted": 0, "deferred": 0, "rejected": 0,
            "completed": 0, "timed_out": 0, "max_queue_depth": 0,
        }
        for agent in self.agents:
            controller = agent.admission
            totals["admitted"] += controller.admitted
            totals["deferred"] += controller.deferred
            totals["rejected"] += controller.rejected
            totals["completed"] += controller.completed
            totals["timed_out"] += controller.timed_out
            if controller.max_queue_depth > totals["max_queue_depth"]:
                totals["max_queue_depth"] = controller.max_queue_depth
        return totals

    def drained(self) -> bool:
        """True when no operation is in flight, queued, or awaiting a
        retry — the backpressure-convergence criterion."""
        if self.pending_retries:
            return False
        return all(
            a.admission.inflight == 0 and a.admission.queue_depth == 0
            for a in self.agents
        )
