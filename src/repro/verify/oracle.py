"""Reference oracle for the §2.1 delivery contract.

The oracle is deliberately *not* a simulator: it is a few dozen lines of
pure Python over plain data, simple enough to audit by eye, so that when
it disagrees with the real protocol stack the stack is presumed wrong.

Inputs (an :class:`EpisodeObservation`, extracted from a run):

- every sent message with the timestamp the host agent assigned at NIC
  egress (``None`` if the message never left the send queue);
- the completion outcome of every scattering (the sender-visible 2PC
  result for reliable, "handed to the network" for best effort);
- the failure cutoffs the controller determined (failed proc → failure
  timestamp) and the set of processes that ever failed;
- the per-receiver delivery traces recorded by the expanded
  :class:`repro.sim.trace.Tracer`.

The contract, as checkable statements:

- **O1 total order** — each receiver's delivery sequence is exactly its
  own messages sorted by the global key ``(ts, src, msg_id)``.  (This is
  the *unique legal order* of the delivered set; it also implies
  cross-receiver agreement, since all receivers sort by the same key.)
- **O2 at-most-once** — no ``msg_id`` is delivered twice at a receiver.
- **O3 no fabrication** — everything delivered was sent, to that
  receiver, with that payload, service class, and timestamp.
- **O4 per-pair FIFO** — messages of one sender-receiver pair are
  delivered in send order.
- **O5 failure cutoff** — once a receiver has been told to discard a
  failed sender (its ``discard_from`` notice, carrying the controller's
  failure timestamp), it delivers nothing from that sender at or beyond
  the cutoff.  The atomicity is *restricted* (§5.2): deliveries that
  happened before the notice cannot be retracted and are legal even if
  the eventually-determined cutoff is below their timestamps (the
  application handles those through failure notification callbacks).
  :func:`failure_cutoff_strict` states the stricter reading, which has
  no such exemption; :meth:`ReferenceOracle.check` does not run it.
- **O6 reliable completion** — a reliable scattering whose sender saw
  completion, from a sender that never failed, is delivered at every
  destination that never failed (requires a drained run: commit barriers
  must have passed the last timestamps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple


# Slotted: an observation holds one of each per message, all at once.
@dataclass(frozen=True, slots=True)
class SentMessage:
    """One message of a scattering, as the sender issued it."""

    msg_id: int
    src: int
    dst: int
    reliable: bool
    payload: Any
    ts: Optional[int]        # NIC-egress timestamp; None if never dispatched
    scattering: int          # index of the owning scattering, in send order
    pair_seq: int            # send sequence number within the (src, dst) pair


@dataclass(frozen=True, slots=True)
class Delivery:
    """One record of a receiver's delivery trace."""

    time: int                # simulated time of the delivery decision
    receiver: int
    ts: int
    src: int
    msg_id: int
    reliable: bool
    payload: Any

    def key(self) -> Tuple[int, int, int]:
        """The global total-order key (paper §2.1)."""
        return (self.ts, self.src, self.msg_id)


@dataclass
class EpisodeObservation:
    """Everything the oracle needs, extracted from one episode run."""

    sends: List[SentMessage]
    completions: Dict[int, Optional[bool]]   # scattering index -> outcome
    failure_cutoffs: Dict[int, int]          # failed proc -> failure ts
    failed_procs: Set[int]                   # procs that ever failed/closed
    deliveries: Dict[int, List[Delivery]]    # receiver -> chronological trace
    # receiver -> [(notice time, failed proc, cutoff ts)]: when each
    # receiver was told to discard a failed sender (its discard_from
    # call).  O5 is enforceable only from this moment on.
    cutoff_notices: Dict[int, List[Tuple[int, int, int]]] = field(
        default_factory=dict
    )
    # proc -> host id placement, used by the attack-mode checks to map a
    # targeted host to the processes an adversary can frame or corrupt.
    proc_hosts: Dict[int, str] = field(default_factory=dict)


@dataclass
class Divergence:
    """One disagreement between the actual trace and the oracle."""

    kind: str                # "order", "duplicate", "fabrication", ...
    detail: str
    receiver: Optional[int] = None
    index: Optional[int] = None     # position in the delivery trace, if any
    time: Optional[int] = None      # simulated time of that delivery
    seed: Optional[int] = None      # replay coordinates, stamped by the runner
    episode: Optional[int] = None
    mode: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        where = f" seed={self.seed} mode={self.mode}" if self.seed else ""
        return f"[{self.kind}] {self.detail}{where}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "receiver": self.receiver,
            "index": self.index,
            "seed": self.seed,
            "episode": self.episode,
            "mode": self.mode,
        }


@dataclass
class AttackInfo:
    """What the episode's schedule planted, for attack-mode checking.

    ``adversaries`` is ``[(kind, target), ...]`` over the ``byz_*``
    fault kinds; ``eviction_capable_faults`` is True when the schedule
    also contains legitimate faults that could justify an eviction
    (a real crash, a cable cut, ...), in which case the
    wrongful-eviction check stands down.
    """

    adversaries: List[Tuple[str, str]] = field(default_factory=list)
    eviction_capable_faults: bool = False

    def targets(self, kind: str) -> List[str]:
        return [t for k, t in self.adversaries if k == kind]


def failure_cutoff_strict(observation: EpisodeObservation) -> List[Divergence]:
    """The strict reading of the §5.2 failure cutoff: no reliable message
    from a failed process is delivered at or beyond its failure
    timestamp, whenever the delivery happened.

    Unlike O5 it does not exempt deliveries made before the receiver's
    discard notice, so it is red on some traces the restricted atomicity
    of §5.2 allows (docs/TESTING.md has the measured cases).  The chaos
    monitor runs it as its I6; :meth:`ReferenceOracle.check` does not.
    """
    out: List[Divergence] = []
    cutoffs = observation.failure_cutoffs
    for receiver in sorted(observation.deliveries):
        for index, delivery in enumerate(observation.deliveries[receiver]):
            cutoff = cutoffs.get(delivery.src)
            if cutoff is None or not delivery.reliable or delivery.ts < cutoff:
                continue
            out.append(Divergence(
                "failure_cutoff_strict",
                f"receiver {receiver} delivered reliable message "
                f"ts={delivery.ts} from failed process {delivery.src} "
                f"(failure ts {cutoff})",
                receiver=receiver, index=index, time=delivery.time,
            ))
    return out


class ReferenceOracle:
    """Compute the legal outcome of an episode and diff the actual one.

    With ``attack`` set (an :class:`AttackInfo`), the check additionally
    runs attack-mode rules that pin each planted adversary to the §2.1
    clause it violates (see :data:`repro.byz.monitor.ADVERSARY_CLAUSES`)
    — e.g. a lying sender whose timestamps regress and who was never
    evicted, or a correct host framed by a forged failure notice.
    Without ``attack`` the behavior is unchanged.
    """

    def __init__(
        self,
        observation: EpisodeObservation,
        attack: Optional[AttackInfo] = None,
    ) -> None:
        self.obs = observation
        self.attack = attack
        self._by_id: Dict[int, SentMessage] = {
            sent.msg_id: sent for sent in observation.sends
        }
        self._adversary_procs: Set[int] = set()
        if attack is not None:
            adversary_hosts = {
                t
                for k, t in attack.adversaries
                if k in ("byz_lying_sender", "byz_equivocate")
            }
            self._adversary_procs = {
                proc
                for proc, host in observation.proc_hosts.items()
                if host in adversary_hosts
            }

    # ------------------------------------------------------------------
    # The oracle's own answers
    # ------------------------------------------------------------------
    def expected_order(self, receiver: int) -> List[Delivery]:
        """The unique legal order of what ``receiver`` actually delivered:
        its delivered messages sorted by the global key."""
        return sorted(
            self.obs.deliveries.get(receiver, ()), key=Delivery.key
        )

    def required_reliable(self, receiver: int) -> List[SentMessage]:
        """Reliable messages that MUST appear in ``receiver``'s trace:
        entries of completed scatterings between never-failed processes."""
        out = []
        for sent in self.obs.sends:
            if not sent.reliable or sent.dst != receiver:
                continue
            if sent.src in self.obs.failed_procs:
                continue
            if receiver in self.obs.failed_procs:
                continue
            if self.obs.completions.get(sent.scattering) is True:
                out.append(sent)
        return out

    # ------------------------------------------------------------------
    # Conformance checking
    # ------------------------------------------------------------------
    def check(self) -> List[Divergence]:
        """Diff every receiver's trace against the contract.

        Returns divergences in detection order: trace-level problems
        (fabrication, duplicates, ordering, FIFO, cutoffs) first, per
        receiver, then missing reliable deliveries.
        """
        out: List[Divergence] = []
        for receiver in sorted(self.obs.deliveries):
            out.extend(self._check_trace(receiver))
        out.extend(self._check_reliable_completion())
        if self.attack is not None:
            out.extend(self._check_attacks(out))
        return out

    def _check_trace(self, receiver: int) -> List[Divergence]:
        out: List[Divergence] = []
        trace = self.obs.deliveries[receiver]
        seen: Set[int] = set()
        clean: List[Delivery] = []
        pair_pos: Dict[int, int] = {}
        # Earliest discard notice this receiver got per failed sender.
        notices: Dict[int, Tuple[int, int]] = {}
        for time, proc, cutoff in self.obs.cutoff_notices.get(receiver, ()):
            if proc not in notices or time < notices[proc][0]:
                notices[proc] = (time, cutoff)
        for index, delivery in enumerate(trace):
            sent = self._by_id.get(delivery.msg_id)
            if (
                sent is None
                or sent.dst != receiver
                or sent.src != delivery.src
                or sent.reliable != delivery.reliable
                or sent.payload != delivery.payload
                or sent.ts != delivery.ts
            ):
                if (
                    sent is not None
                    and sent.dst == receiver
                    and sent.src == delivery.src
                    and sent.payload != delivery.payload
                    and delivery.src in self._adversary_procs
                ):
                    # Attack mode: a payload that diverges from the one
                    # the adversary's process actually handed down is an
                    # equivocation, not a stack bug.
                    out.append(Divergence(
                        "equivocation",
                        f"receiver {receiver} delivered payload "
                        f"{delivery.payload!r} for msg_id="
                        f"{delivery.msg_id} but process {delivery.src} "
                        f"sent {sent.payload!r} — §2.1 integrity (O3): "
                        f"every receiver of a scattering sees the "
                        f"sender's single message",
                        receiver=receiver, index=index, time=delivery.time,
                    ))
                else:
                    out.append(Divergence(
                        "fabrication",
                        f"receiver {receiver} delivered "
                        f"msg_id={delivery.msg_id} "
                        f"(ts={delivery.ts}, src={delivery.src}) that does "
                        f"not match any send",
                        receiver=receiver, index=index, time=delivery.time,
                    ))
                continue
            if delivery.msg_id in seen:
                out.append(Divergence(
                    "duplicate",
                    f"receiver {receiver} delivered msg_id={delivery.msg_id} "
                    f"twice",
                    receiver=receiver, index=index, time=delivery.time,
                ))
                continue
            seen.add(delivery.msg_id)
            # O5: failure cutoff, from the discard notice onward.
            notice = notices.get(sent.src)
            if (
                notice is not None
                and delivery.time > notice[0]
                and sent.ts >= notice[1]
            ):
                out.append(Divergence(
                    "failure_cutoff",
                    f"receiver {receiver} delivered "
                    f"msg_id={delivery.msg_id} ts={sent.ts} from failed "
                    f"process {sent.src} after being told at t="
                    f"{notice[0]} to discard from ts {notice[1]}",
                    receiver=receiver, index=index, time=delivery.time,
                ))
            # O4: per-pair FIFO in send order.
            last = pair_pos.get(sent.src)
            if last is not None and sent.pair_seq <= last:
                out.append(Divergence(
                    "pair_fifo",
                    f"receiver {receiver} delivered send #{sent.pair_seq} "
                    f"of pair ({sent.src}->{receiver}) after send #{last}",
                    receiver=receiver, index=index, time=delivery.time,
                ))
            else:
                pair_pos[sent.src] = sent.pair_seq
            clean.append(delivery)
        # O1: the delivered sequence equals its own sorted order.
        expected = sorted(clean, key=Delivery.key)
        for position, (actual, legal) in enumerate(zip(clean, expected)):
            if actual.msg_id != legal.msg_id:
                out.append(Divergence(
                    "order",
                    f"receiver {receiver} delivery #{position} is "
                    f"msg_id={actual.msg_id} key={actual.key()} but the "
                    f"unique legal order puts msg_id={legal.msg_id} "
                    f"key={legal.key()} there",
                    receiver=receiver, index=position, time=actual.time,
                ))
                break  # later positions are all shifted; report the first
        return out

    # ------------------------------------------------------------------
    # Attack-mode checks (docs/BYZANTINE.md)
    # ------------------------------------------------------------------
    def _check_attacks(self, trace_divergences: List[Divergence]) -> List[Divergence]:
        attack = self.attack
        out: List[Divergence] = []

        # byz_lying_sender -> §2.1 O1 (monotone timestamps).  A lying
        # process whose assigned timestamps regress across its send
        # sequence, and which the cluster never evicted, broke total
        # order undetected.  A hardened run evicts it, which puts it in
        # failed_procs and satisfies this check.
        lying_hosts = set(attack.targets("byz_lying_sender"))
        if lying_hosts:
            by_src: Dict[int, List[SentMessage]] = {}
            for sent in self.obs.sends:
                if self.obs.proc_hosts.get(sent.src) in lying_hosts:
                    by_src.setdefault(sent.src, []).append(sent)
            for src, sends in sorted(by_src.items()):
                stamps = [
                    s.ts
                    for s in sorted(sends, key=lambda s: s.scattering)
                    if s.ts is not None
                ]
                regressed = any(
                    later < earlier
                    for earlier, later in zip(stamps, stamps[1:])
                )
                if regressed and src not in self.obs.failed_procs:
                    out.append(Divergence(
                        "lying_sender",
                        f"process {src} assigned regressing timestamps "
                        f"and was never evicted — §2.1 total order (O1): "
                        f"a sender's timestamps are monotone, so "
                        f"delivery order matches timestamp order",
                    ))

        # byz_corrupt_beacon -> §4.2 barrier promise.  An inflated
        # barrier makes receivers treat honest in-flight messages as
        # late arrivals and NAK them, so the breach usually surfaces as
        # reliable scatterings aborted with *no* legitimate fault in the
        # episode (denial of delivery); occasionally it surfaces as an
        # outright order divergence.  Pin both to the clause.
        if attack.targets("byz_corrupt_beacon"):
            for divergence in trace_divergences:
                if divergence.kind == "order":
                    divergence.extra["clause"] = (
                        "§2.1 ordered delivery (O1) via the §4.2 barrier "
                        "promise: an emitted barrier never passes "
                        "timestamps still in flight"
                    )
            if not attack.eviction_capable_faults:
                denied = sorted({
                    sent.scattering
                    for sent in self.obs.sends
                    if sent.reliable
                    and sent.ts is not None
                    and sent.src not in self.obs.failed_procs
                    and sent.src not in self._adversary_procs
                    and sent.dst not in self.obs.failed_procs
                    and self.obs.completions.get(sent.scattering) is not True
                })
                if denied:
                    out.append(Divergence(
                        "denied_completion",
                        f"{len(denied)} reliable scatterings between "
                        f"correct processes aborted under a corrupted "
                        f"barrier with no legitimate fault present "
                        f"(first: #{denied[0]}) — §2.1 reliable "
                        f"completion (O6) via the §4.2 barrier promise: "
                        f"an emitted barrier never passes timestamps "
                        f"still in flight, so honest messages are never "
                        f"rejected as late",
                        extra={"scatterings": denied},
                    ))

        # byz_forge_notice -> §2.1 O5/O6.  The forged notice names a
        # correct host; if its processes ended up evicted although no
        # legitimate fault could have killed them, they were framed.
        framed_hosts = set(attack.targets("byz_forge_notice"))
        if framed_hosts and not attack.eviction_capable_faults:
            for proc in sorted(self.obs.failed_procs):
                host = self.obs.proc_hosts.get(proc)
                if host in framed_hosts:
                    out.append(Divergence(
                        "wrongful_eviction",
                        f"correct process {proc} on {host} was evicted "
                        f"on fabricated failure evidence — §2.1 reliable "
                        f"completion (O6) and restricted failure "
                        f"atomicity (O5): correct processes are never "
                        f"evicted on fabricated failure evidence",
                    ))
        return out

    def _check_reliable_completion(self) -> List[Divergence]:
        out: List[Divergence] = []
        for receiver in sorted(self.obs.deliveries):
            delivered_ids = {
                d.msg_id for d in self.obs.deliveries[receiver]
            }
            for sent in self.required_reliable(receiver):
                if sent.msg_id not in delivered_ids:
                    out.append(Divergence(
                        "reliable_missing",
                        f"completed reliable scattering #{sent.scattering} "
                        f"from {sent.src}: msg_id={sent.msg_id} "
                        f"(ts={sent.ts}) never delivered at {receiver}",
                        receiver=receiver,
                    ))
        return out
