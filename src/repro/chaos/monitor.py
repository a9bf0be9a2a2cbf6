"""Cluster-wide total-order invariant monitor.

Continuously checks the §2.1 guarantees against a live cluster:

- **I1 per-receiver total order** — every receiver's delivery stream is
  sorted by the total-order key ``(ts, sender)`` (checked per delivery).
- **I2 cross-receiver agreement** — any two receivers deliver their
  common messages in the same relative order (checked on demand, since
  it is quadratic).
- **I3 barrier monotonicity** — no host's received best-effort or commit
  barrier ever regresses (checked at every host-agent flush, the point
  where receivers are handed the pair, via a hook).
- **I4 per-pair FIFO** — messages from one sender to one receiver are
  delivered in send order (checked per delivery against the recorded
  send sequence).
- **I5 at-most-once** — no receiver delivers the same message twice
  (checked per delivery).
- **I6 failure cutoff** — no reliable message from a failed process is
  delivered at or beyond its failure timestamp (§5.2 restricted
  atomicity; checked at the end).
- **I7 reliable exactly-once** — a reliable scattering whose sender saw
  completion, from a sender that never failed, is delivered at every
  destination that never failed (checked at the end, after a quiesce
  period long enough for barriers to drain).

A violation is captured as a structured :class:`InvariantViolation`
carrying the simulator seed, so any red run is replayable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class InvariantViolation(Exception):
    """One broken §2.1 guarantee, with everything needed to replay it."""

    invariant: str          # "per_receiver_order", "barrier_monotonic", ...
    detail: str             # human-readable description
    seed: int               # simulator seed that reproduces the run
    time: int = 0           # simulated ns when detected
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
    """Subscribe to every endpoint of a cluster and check §2.1 live.

    Parameters
    ----------
    cluster:
        A built :class:`repro.onepipe.cluster.OnePipeCluster`.
    seed:
        The seed that reproduces this run (stamped on violations);
        defaults to the cluster simulator's seed.
    episode, mode:
        Optional chaos-campaign coordinates stamped on violations.
    raise_immediately:
        If True, the first violation is raised as an exception at the
        point of detection; otherwise violations accumulate in
        :attr:`violations` (the campaign's mode).

    The monitor piggybacks on public hooks only: ``on_recv`` (which
    supports multiple subscribers), wrapped ``*_send`` entry points for
    send-order tracking, and a wrapped ``_flush`` per host agent for
    barrier monotonicity (:attr:`barrier_checks` counts the flushes it
    compared, so a caller can tell an unobserved run from a clean one).
    """

    def __init__(
        self,
        cluster,
        seed: Optional[int] = None,
        episode: Optional[int] = None,
        mode: Optional[str] = None,
        raise_immediately: bool = False,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.seed = seed if seed is not None else cluster.sim.seed
        self.episode = episode
        self.mode = mode
        self.raise_immediately = raise_immediately
        self.violations: List[InvariantViolation] = []

        # Delivery state.
        self.deliveries: Dict[int, List[Any]] = {}
        self._last_key: Dict[int, Tuple[int, int]] = {}
        self._delivered_keys: Dict[int, set] = {}
        # Send state: (src, dst) -> ordered payload list; and per-pair
        # position of the last delivered payload.
        self._sent: Dict[Tuple[int, int], List[Any]] = {}
        self._fifo_pos: Dict[Tuple[int, int], int] = {}
        # Reliable scatterings: (src, entries, scattering, sent_at).
        self._reliable_sends: List[Tuple[int, tuple, Any, int]] = []
        self.total_sent_messages = 0
        self.total_sent_scatterings = 0
        self.barrier_checks = 0

        for index in range(cluster.n_processes):
            self._instrument_endpoint(cluster.endpoint(index))
        for agent in cluster.agents.values():
            self._instrument_agent(agent)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _instrument_endpoint(self, endpoint) -> None:
        proc = endpoint.proc_id
        self.deliveries[proc] = []
        self._delivered_keys[proc] = set()
        endpoint.on_recv(self._make_delivery_callback(proc))

        original_unreliable = endpoint.unreliable_send
        original_reliable = endpoint.reliable_send

        def unreliable_send(entries):
            scattering = original_unreliable(entries)
            self._note_send(proc, entries, reliable=False, scattering=scattering)
            return scattering

        def reliable_send(entries):
            scattering = original_reliable(entries)
            self._note_send(proc, entries, reliable=True, scattering=scattering)
            return scattering

        endpoint.unreliable_send = unreliable_send
        endpoint.reliable_send = reliable_send

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
    # Event handlers
    # ------------------------------------------------------------------
    def _note_send(self, src, entries, reliable, scattering) -> None:
        self.total_sent_scatterings += 1
        for entry in entries:
            dst, payload = entry[0], entry[1]
            self._sent.setdefault((src, dst), []).append(payload)
            self.total_sent_messages += 1
        if reliable:
            self._reliable_sends.append(
                (src, tuple((e[0], e[1]) for e in entries), scattering,
                 self.sim.now)
            )

    def _make_delivery_callback(self, receiver: int):
        def on_delivery(message) -> None:
            self.deliveries[receiver].append(message)
            key = (message.ts, message.src)
            # I1: per-receiver total order.
            last = self._last_key.get(receiver)
            if last is not None and key < last:
                self._record(
                    "per_receiver_order",
                    f"receiver {receiver} delivered {key} after {last}",
                    receiver=receiver,
                )
            if last is None or key > last:
                self._last_key[receiver] = key
            # I5: at-most-once.
            dedup_key = (message.src, message.ts, repr(message.payload))
            if dedup_key in self._delivered_keys[receiver]:
                self._record(
                    "at_most_once",
                    f"receiver {receiver} delivered message "
                    f"(src={message.src}, ts={message.ts}, "
                    f"payload={message.payload!r}) twice",
                    receiver=receiver,
                )
            self._delivered_keys[receiver].add(dedup_key)
            # I4: per-pair FIFO against the recorded send order.
            self._check_fifo(receiver, message)

        return on_delivery

    def _check_fifo(self, receiver: int, message) -> None:
        pair = (message.src, receiver)
        sent = self._sent.get(pair)
        if sent is None:
            return  # sent before instrumentation or via a side door
        position = self._fifo_pos.get(pair, -1)
        try:
            found = sent.index(message.payload, position + 1)
        except ValueError:
            try:
                earlier = sent.index(message.payload)
            except ValueError:
                return  # payload not tracked (e.g. controller-forwarded)
            self._record(
                "pair_fifo",
                f"receiver {receiver} delivered payload "
                f"{message.payload!r} from {message.src} out of send "
                f"order (send position {earlier} <= last delivered "
                f"position {position})",
                receiver=receiver,
            )
            return
        self._fifo_pos[pair] = found

    # ------------------------------------------------------------------
    # On-demand checks
    # ------------------------------------------------------------------
    def check_agreement(self) -> None:
        """I2: any two receivers order their common messages alike."""
        sequences = {
            i: [(m.ts, m.src, repr(m.payload)) for m in msgs]
            for i, msgs in self.deliveries.items()
        }
        receivers = sorted(sequences)
        for a_pos, i in enumerate(receivers):
            index_i = {key: n for n, key in enumerate(sequences[i])}
            for j in receivers[a_pos + 1:]:
                positions = [
                    index_i[key] for key in sequences[j] if key in index_i
                ]
                if positions != sorted(positions):
                    self._record(
                        "cross_receiver_agreement",
                        f"receivers {i} and {j} disagree on the relative "
                        f"order of common messages",
                        receiver=j,
                    )

    def check_failure_cutoffs(self) -> None:
        """I6: no reliable delivery from a failed sender at/past its
        failure timestamp (the §5.2 Discard guarantee)."""
        controller = self.cluster.controller
        if controller is None:
            return
        cutoffs = dict(controller.failed_procs)
        if not cutoffs:
            return
        for receiver, msgs in self.deliveries.items():
            for m in msgs:
                cutoff = cutoffs.get(m.src)
                if cutoff is None or not m.reliable:
                    continue
                if m.ts >= cutoff:
                    self._record(
                        "failure_cutoff",
                        f"receiver {receiver} delivered reliable message "
                        f"ts={m.ts} from failed process {m.src} "
                        f"(failure ts {cutoff})",
                        receiver=receiver,
                    )

    def check_reliable_exactly_once(self) -> None:
        """I7: completed reliable scatterings between never-failed
        processes are delivered at every destination.

        Only meaningful after a quiesce period: the caller must have run
        the simulation long enough for commit barriers to pass the last
        timestamps (the campaign drains a couple of milliseconds).
        """
        failed = self._ever_failed_procs()
        delivered = {
            receiver: {
                (m.src, repr(m.payload)) for m in msgs if m.reliable
            }
            for receiver, msgs in self.deliveries.items()
        }
        for src, entries, scattering, _sent_at in self._reliable_sends:
            if scattering is None or src in failed:
                continue
            if not scattering.completed.done or not scattering.completed.value:
                continue
            for dst, payload in entries:
                if dst in failed or dst not in delivered:
                    continue
                if (src, repr(payload)) not in delivered[dst]:
                    self._record(
                        "reliable_exactly_once",
                        f"completed reliable scattering from {src}: entry "
                        f"for {dst} (payload {payload!r}) never delivered",
                        receiver=dst,
                    )

    def _ever_failed_procs(self) -> set:
        failed = set()
        controller = self.cluster.controller
        if controller is not None:
            failed.update(controller.failed_procs)
        for index in range(self.cluster.n_processes):
            endpoint = self.cluster.endpoint(index)
            if endpoint.agent.host.failed or endpoint.closed:
                failed.add(endpoint.proc_id)
        return failed

    def final_check(self) -> List[InvariantViolation]:
        """Run every end-of-run check; returns all violations so far."""
        self.check_agreement()
        self.check_failure_cutoffs()
        self.check_reliable_exactly_once()
        return self.violations

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def total_delivered(self) -> int:
        return sum(len(msgs) for msgs in self.deliveries.values())

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        return counts

    def _record(self, invariant: str, detail: str, receiver=None) -> None:
        violation = InvariantViolation(
            invariant=invariant,
            detail=detail,
            seed=self.seed,
            time=self.sim.now,
            episode=self.episode,
            mode=self.mode,
            receiver=receiver,
        )
        self.violations.append(violation)
        if self.raise_immediately:
            raise violation
