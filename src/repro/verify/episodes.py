"""Seeded workload fuzzer: deterministic, replayable protocol episodes.

An :class:`EpisodeSpec` is explicit data — every send (time, sender,
scatter-gather entries, service class) and every fault event is
enumerated, not regenerated from randomness at replay time.  That makes
a spec:

- **replayable**: :func:`replay_episode` rebuilds an identical cluster
  from ``spec.seed`` and re-executes the same sends and faults;
- **shrinkable**: :mod:`repro.verify.shrink` can delete sends/faults and
  replay the mutated spec, which a purely seed-driven generator could
  not support.

:func:`generate_episode` draws a spec from named RNG streams of the
episode seed (topology shape, sender mix, best-effort/reliable coin,
scatter fanout, mid-run faults via :class:`repro.chaos.schedule`), so a
``(seed, episode)`` pair fully determines the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.chaos.schedule import ChaosInjector, ChaosSchedule, FaultEvent
from repro.net.topology import build_episode_topology
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.sim import Simulator
from repro.sim.randomness import RngStreams
from repro.verify.oracle import Delivery, EpisodeObservation, SentMessage


class VerifyHarnessError(RuntimeError):
    """The harness itself (not the protocol) produced an unusable run,
    e.g. the delivery trace overflowed its record limit."""


@dataclass(frozen=True)
class SendOp:
    """One scattering the workload issues: when, who, to whom, how."""

    at: int                                  # absolute simulated ns
    src: int
    reliable: bool
    entries: Tuple[Tuple[int, Any], ...]     # ((dst, payload), ...)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at": self.at,
            "src": self.src,
            "reliable": self.reliable,
            "entries": [[dst, payload] for dst, payload in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SendOp":
        return cls(
            at=data["at"],
            src=data["src"],
            reliable=data["reliable"],
            entries=tuple((dst, payload) for dst, payload in data["entries"]),
        )


@dataclass(frozen=True)
class EpisodeSpec:
    """A fully explicit, replayable verification episode."""

    seed: int
    episode: int
    mode: str
    scale: str                               # net.topology.EPISODE_SCALES
    n_processes: int
    horizon_ns: int
    drain_ns: int
    sends: Tuple[SendOp, ...]
    faults: Tuple[FaultEvent, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "episode": self.episode,
            "mode": self.mode,
            "scale": self.scale,
            "n_processes": self.n_processes,
            "horizon_ns": self.horizon_ns,
            "drain_ns": self.drain_ns,
            "sends": [op.to_dict() for op in self.sends],
            "faults": [event.to_dict() for event in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EpisodeSpec":
        return cls(
            seed=data["seed"],
            episode=data["episode"],
            mode=data["mode"],
            scale=data["scale"],
            n_processes=data["n_processes"],
            horizon_ns=data["horizon_ns"],
            drain_ns=data["drain_ns"],
            sends=tuple(SendOp.from_dict(op) for op in data["sends"]),
            faults=tuple(
                FaultEvent(
                    at=event["at"],
                    kind=event["kind"],
                    target=event["target"],
                    duration_ns=event["duration_ns"],
                    params=dict(event["params"]),
                )
                for event in data["faults"]
            ),
        )

    def with_mode(self, mode: str) -> "EpisodeSpec":
        """The same fuzzed episode on a different switch incarnation."""
        return replace(self, mode=mode)


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def scatter_sends(
    rng: Any,
    prefix: str,
    n_processes: int,
    start_ns: int,
    horizon_ns: int,
    interval_ns: int,
    senders_per_round: int,
    max_fanout: int,
) -> List[SendOp]:
    """Seeded scatter traffic: one round every ``interval_ns`` from
    ``start_ns`` until ``horizon_ns``.

    Each round ``sample``s distinct senders; each sender draws a
    ``randint`` fanout, ``sample``s that many distinct peers and flips a
    ``random() < 0.5`` reliable coin, in that order.  Payloads read
    ``{prefix}.s{src}.q{sequence}.d{dst}``.
    """
    sends: List[SendOp] = []
    sequence = 0
    at = start_ns
    while at < horizon_ns:
        senders = rng.sample(
            range(n_processes), min(senders_per_round, n_processes)
        )
        for src in senders:
            fanout = rng.randint(1, max_fanout)
            peers = [dst for dst in range(n_processes) if dst != src]
            dsts = rng.sample(peers, min(fanout, len(peers)))
            reliable = rng.random() < 0.5
            sequence += 1
            entries = tuple(
                (dst, f"{prefix}.s{src}.q{sequence}.d{dst}") for dst in dsts
            )
            sends.append(SendOp(at, src, reliable, entries))
        at += interval_ns
    return sends


def generate_episode(
    seed: int,
    episode: int = 0,
    mode: str = "chip",
    scale: str = "small",
    n_processes: int = 8,
    horizon_ns: int = 500_000,
    # The drain must outlast failure handling: a gray partition freezes
    # the commit barrier until retransmission gives up on the unreachable
    # region, and buffered reliable messages only deliver after that.
    drain_ns: int = 5_000_000,
    n_faults: int = 3,
    interval_ns: int = 20_000,
    senders_per_round: int = 3,
    max_fanout: int = 3,
    start_ns: int = 60_000,
    adversarial: bool = False,
) -> EpisodeSpec:
    """Draw a deterministic random episode from the seed's named streams."""
    streams = RngStreams(seed)
    workload_rng = streams.stream(f"verify.workload.{episode}")
    fault_rng = streams.stream(f"verify.faults.{episode}")

    # Fault targets come from the topology the replay will build; a
    # throwaway simulator keeps generation free of side effects.
    topology = build_episode_topology(Simulator(seed=seed), scale)
    n_processes = min(n_processes, len(topology.hosts))
    faults: Tuple[FaultEvent, ...] = ()
    if n_faults > 0:
        schedule = ChaosSchedule.generate(
            fault_rng, topology, horizon_ns, n_faults=n_faults,
            adversarial=adversarial,
        )
        faults = tuple(schedule.events)

    sends = scatter_sends(
        workload_rng, f"e{episode}", n_processes, start_ns, horizon_ns,
        interval_ns, senders_per_round, max_fanout,
    )
    return EpisodeSpec(
        seed=seed,
        episode=episode,
        mode=mode,
        scale=scale,
        n_processes=n_processes,
        horizon_ns=horizon_ns,
        drain_ns=drain_ns,
        sends=tuple(sends),
        faults=faults,
    )


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class EpisodeRun:
    """One executed episode: the spec plus everything observed."""

    spec: EpisodeSpec
    observation: EpisodeObservation
    sends_issued: int            # SendOps whose sender was alive at op.at
    sends_skipped: int           # sender failed/closed before the op fired
    messages_delivered: int
    late_naks: int
    trace_records: int
    metrics: Optional[Dict[str, Any]] = None   # metrics_summary when enabled


def replay_episode(
    spec: EpisodeSpec,
    mutate: Optional[Callable[[OnePipeCluster], None]] = None,
    trace_limit: int = 1_000_000,
    metrics: bool = False,
) -> EpisodeRun:
    """Execute ``spec`` on a fresh simulator and extract the observation.

    ``mutate`` is applied to the built cluster before traffic starts —
    the mutation-testing hook that lets the suite prove the oracle
    catches an intentionally broken ordering implementation.

    ``metrics`` additionally enables the metrics registry for the run
    and attaches a :func:`repro.obs.export.metrics_summary` digest to
    the returned :class:`EpisodeRun` — the delivery trace and oracle
    verdict are identical either way (``tests/obs/test_determinism.py``).
    """
    sim = Simulator(seed=spec.seed)
    # Enable in place: endpoints cache the tracer object at construction.
    sim.tracer.enabled = True
    sim.tracer.limit = trace_limit
    if metrics:
        sim.metrics.enabled = True
    cluster = OnePipeCluster(
        sim,
        n_processes=spec.n_processes,
        config=OnePipeConfig(mode=spec.mode),
        topology=build_episode_topology(sim, spec.scale),
    )
    injector = ChaosInjector(cluster)
    if spec.faults:
        injector.apply(ChaosSchedule(list(spec.faults)))
    if mutate is not None:
        mutate(cluster)

    records, skipped = drive_sends(cluster, spec.sends)
    sim.run(until=spec.horizon_ns + spec.drain_ns)

    if sim.tracer.overflowed:
        raise VerifyHarnessError(
            f"delivery trace overflowed: {sim.tracer.dropped} records "
            f"dropped at limit {trace_limit} — raise trace_limit"
        )
    observation = extract_observation(sim, cluster, records)
    late_naks = sum(
        cluster.endpoint(i).receiver.late_naks
        for i in range(cluster.n_processes)
    )
    summary = None
    if metrics:
        from repro.obs.export import metrics_summary

        summary = metrics_summary(sim.metrics)
    return EpisodeRun(
        spec=spec,
        observation=observation,
        sends_issued=len(records),
        sends_skipped=len(skipped),
        messages_delivered=sum(
            len(trace) for trace in observation.deliveries.values()
        ),
        late_naks=late_naks,
        trace_records=len(sim.tracer.records),
        metrics=summary,
    )


def drive_sends(
    cluster: OnePipeCluster, sends: Iterable[SendOp]
) -> Tuple[List[Tuple[SendOp, Any]], List[SendOp]]:
    """Schedule every explicit :class:`SendOp` on ``cluster``'s simulator.

    Returns ``(records, skipped)``, filled in as the run proceeds:
    ``(op, scattering)`` per issued op in issue order (``scattering`` is
    None when the send buffer was full), and every op whose sender was
    closed, failed or declared failed when it fired.
    """
    records: List[Tuple[SendOp, Any]] = []
    skipped: List[SendOp] = []

    def issue(op: SendOp) -> None:
        if op.src in cluster.down_procs():
            skipped.append(op)
            return
        endpoint = cluster.endpoint(op.src)
        send = endpoint.reliable_send if op.reliable else endpoint.unreliable_send
        records.append((op, send(list(op.entries))))

    for op in sends:
        cluster.sim.schedule_at(op.at, issue, op)
    return records, skipped


def extract_observation(
    sim: Simulator, cluster: OnePipeCluster, records
) -> EpisodeObservation:
    """Build an :class:`EpisodeObservation` from a finished run.

    ``records`` is a list of ``(SendOp, Scattering)`` pairs in issue
    order (``Scattering`` is None when the send buffer was full), as
    :func:`drive_sends` and :class:`repro.chaos.monitor.InvariantMonitor`
    collect them; the deliveries come from ``sim``'s tracer.
    """
    sends: List[SentMessage] = []
    completions: Dict[int, Optional[bool]] = {}
    pair_seq: Dict[Tuple[int, int], int] = {}
    for index, (op, scattering) in enumerate(records):
        if scattering is None:  # send buffer full: nothing entered the pipe
            continue
        completions[index] = (
            scattering.completed.value if scattering.completed.done else None
        )
        for msg in scattering.msgs:
            pair = (op.src, msg.dst)
            seq = pair_seq.get(pair, 0)
            pair_seq[pair] = seq + 1
            sends.append(SentMessage(
                msg_id=msg.msg_id,
                src=op.src,
                dst=msg.dst,
                reliable=op.reliable,
                payload=msg.payload,
                ts=msg.ts,
                scattering=index,
                pair_seq=seq,
            ))

    deliveries: Dict[int, List[Delivery]] = {
        i: [] for i in range(cluster.n_processes)
    }
    cutoff_notices: Dict[int, List[Tuple[int, int, int]]] = {}
    for time, component, event, fields in sim.tracer.records:
        if not component.startswith("recv."):
            continue
        receiver = int(component[5:])
        if receiver not in deliveries:
            continue
        if event == "deliver":
            deliveries[receiver].append(Delivery(
                time=time,
                receiver=receiver,
                ts=fields["ts"],
                src=fields["src"],
                msg_id=fields["msg_id"],
                reliable=fields["reliable"],
                payload=fields["payload"],
            ))
        elif event == "discard_from":
            cutoff_notices.setdefault(receiver, []).append(
                (time, fields["failed_proc"], fields["failure_ts"])
            )

    controller = cluster.controller
    failure_cutoffs = (
        dict(controller.failed_procs) if controller is not None else {}
    )
    proc_hosts = {
        index: cluster.endpoint(index).agent.host.node_id
        for index in range(cluster.n_processes)
    }
    return EpisodeObservation(
        sends=sends,
        completions=completions,
        failure_cutoffs=failure_cutoffs,
        failed_procs=cluster.down_procs(),
        deliveries=deliveries,
        cutoff_notices=cutoff_notices,
        proc_hosts=proc_hosts,
    )
