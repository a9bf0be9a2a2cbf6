"""Cluster-wide total-order invariant monitor.

Records a live cluster's traffic and judges it against the §2.1
guarantees.  The rules themselves live in
:class:`repro.verify.oracle.ReferenceOracle` (O1–O6); the monitor only
collects what the oracle reads and adds the two rules the oracle does
not state:

- **Recording** — the simulator's tracer is switched on in place (the
  per-receiver delivery trace and discard notices), and wrapped
  ``*_send`` entry points keep a ``(SendOp, Scattering)`` pair per
  issued scattering.  :meth:`InvariantMonitor.final_check` turns both
  into an :class:`~repro.verify.oracle.EpisodeObservation` and runs the
  oracle over it: per-receiver total order (which implies
  cross-receiver agreement), at-most-once, no fabrication, per-pair
  FIFO, the failure cutoff and reliable completion.
- **I3 barrier monotonicity** — no host's received best-effort or commit
  barrier ever regresses (checked at every host-agent flush, the point
  where receivers are handed the pair, via a hook; the trace has no
  equivalent).
- **I6 strict failure cutoff** — no reliable message from a failed
  process is delivered at or beyond its failure timestamp, even before
  the receiver learned of the failure
  (:func:`repro.verify.oracle.failure_cutoff_strict`, checked at the
  end).

Every divergence becomes a structured :class:`InvariantViolation`
carrying the simulator seed, so any red run is replayable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

# The module, not its names: repro.verify imports the fault schedule
# from this package, so this module can load while
# repro.verify.episodes is still initialising.
from repro.verify import episodes
from repro.verify.oracle import (
    AttackInfo,
    ReferenceOracle,
    failure_cutoff_strict,
)


@dataclass
class InvariantViolation:
    """One broken §2.1 guarantee, with everything needed to replay it."""

    invariant: str          # divergence kind: "order", "barrier_monotonic", ...
    detail: str             # human-readable description
    seed: int               # simulator seed that reproduces the run
    time: int = 0           # simulated ns of the delivery, or of detection
    episode: Optional[int] = None   # chaos-campaign episode, if any
    mode: Optional[str] = None      # switch incarnation, if any
    receiver: Optional[int] = None  # receiving process, if any
    extra: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        where = f" episode={self.episode} mode={self.mode}" if self.mode else ""
        return (
            f"[{self.invariant}] {self.detail} "
            f"(seed={self.seed}{where} t={self.time})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "seed": self.seed,
            "time": self.time,
            "episode": self.episode,
            "mode": self.mode,
            "receiver": self.receiver,
        }


class InvariantMonitor:
    """Record a cluster's traffic and judge it against §2.1.

    Parameters
    ----------
    cluster:
        A built :class:`repro.onepipe.cluster.OnePipeCluster`; attach the
        monitor before traffic starts.
    seed:
        The seed that reproduces this run (stamped on violations);
        defaults to the cluster simulator's seed.
    episode, mode:
        Optional chaos-campaign coordinates stamped on violations.

    The monitor piggybacks on public hooks only: the simulator's tracer,
    wrapped ``*_send`` entry points, and a wrapped ``_flush`` per host
    agent for barrier monotonicity (:attr:`barrier_checks` counts the
    flushes it compared, so a caller can tell an unobserved run from a
    clean one).  I3 violations accumulate in :attr:`violations` as they
    happen; :meth:`final_check` adds the rest.
    """

    # Attack-mode input for the oracle (set by the Byzantine monitor).
    attack: Optional[AttackInfo] = None

    def __init__(
        self,
        cluster,
        seed: Optional[int] = None,
        episode: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.seed = seed if seed is not None else cluster.sim.seed
        self.episode = episode
        self.mode = mode
        self.violations: List[InvariantViolation] = []
        # (SendOp, Scattering) per send that entered the pipe, in order,
        # until final_check consumes them.
        self.records: List[Tuple[episodes.SendOp, Any]] = []
        self.total_sent_messages = 0
        self.total_sent_scatterings = 0
        self.barrier_checks = 0

        # Enable in place: endpoints cache the tracer object at construction.
        self.sim.tracer.enabled = True
        for endpoint in cluster.endpoints:
            proc = endpoint.proc_id
            endpoint.unreliable_send = partial(
                self._send, endpoint.unreliable_send, proc, False
            )
            endpoint.reliable_send = partial(
                self._send, endpoint.reliable_send, proc, True
            )
        for agent in cluster.agents.values():
            self._instrument_agent(agent)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _send(self, original, src: int, reliable: bool, entries):
        scattering = original(entries)
        self.total_sent_scatterings += 1
        self.total_sent_messages += len(entries)
        if scattering is not None:  # send buffer full: nothing entered
            pairs = tuple((entry[0], entry[1]) for entry in entries)
            op = episodes.SendOp(self.sim.now, src, reliable, pairs)
            self.records.append((op, scattering))
        return scattering

    def _instrument_agent(self, agent) -> None:
        # Observe at the flush, not at ``_update_barriers``: the beacon
        # fabric's inlined host ingress writes the barriers directly,
        # but both transports (and data-packet ingress) schedule
        # ``agent._flush`` at the instant of the change, and the flush
        # is where receivers are handed the pair.
        original = agent._flush
        host_id = agent.host.node_id
        seen = [agent.rx_be_barrier, agent.rx_commit_barrier]

        def hooked():
            self.barrier_checks += 1
            be, commit = agent.rx_be_barrier, agent.rx_commit_barrier
            if be < seen[0]:
                self._record(
                    "barrier_monotonic",
                    f"best-effort barrier regressed at {host_id}: "
                    f"{seen[0]} -> {be}",
                )
            if commit < seen[1]:
                self._record(
                    "barrier_monotonic",
                    f"commit barrier regressed at {host_id}: "
                    f"{seen[1]} -> {commit}",
                )
            seen[0], seen[1] = be, commit
            original()

        agent._flush = hooked

    # ------------------------------------------------------------------
    # Judgement
    # ------------------------------------------------------------------
    def final_check(self) -> List[InvariantViolation]:
        """Judge the recorded run: the reference oracle, then the strict
        cutoff I6.  Call once, after a quiesce period long enough for
        commit barriers to pass the last timestamps (reliable completion
        needs a drained run).  Returns all violations so far.

        The per-send records are released here: they pin every
        scattering of the run, and a caller may keep the cluster alive.
        """
        tracer = self.sim.tracer
        if tracer.overflowed:
            raise episodes.VerifyHarnessError(
                f"delivery trace overflowed: {tracer.dropped} records "
                f"dropped at limit {tracer.limit}"
            )
        records, self.records = self.records, []
        observation = episodes.extract_observation(
            self.sim, self.cluster, records
        )
        del records
        divergences = ReferenceOracle(observation, self.attack).check()
        divergences += failure_cutoff_strict(observation)
        for divergence in divergences:
            self._record(
                divergence.kind, divergence.detail,
                receiver=divergence.receiver, time=divergence.time,
            )
        return self.violations

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_delivered(self) -> int:
        """Deliveries the trace holds so far, over every receiver."""
        return sum(
            1
            for _time, component, event, _fields in self.sim.tracer.records
            if event == "deliver" and component.startswith("recv.")
        )

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def _record(self, invariant: str, detail: str, receiver=None,
                time: Optional[int] = None) -> None:
        self.violations.append(InvariantViolation(
            invariant=invariant,
            detail=detail,
            seed=self.seed,
            time=self.sim.now if time is None else time,
            episode=self.episode,
            mode=self.mode,
            receiver=receiver,
        ))
