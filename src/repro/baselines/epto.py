"""EpTO-style epidemic total order broadcast (ROADMAP item 4a).

Probabilistic total order via *ball dissemination* [Matos et al.,
Middleware'15]: every round, each member relays the set of events it
learned during the round (its "ball") to ``fanout`` uniformly random
peers.  Events carry a logical-clock timestamp and a time-to-live that
counts relay rounds; once an event's TTL reaches the round bound
``ttl`` the epidemic has (with high probability) reached everyone, the
event is declared *stable*, and it is delivered in ``(ts, src)`` order
behind every still-unstable event with a smaller timestamp.

There is no sequencer, token, or quorum anywhere: the protocol
tolerates member churn by construction (gossip targets are resampled
every round and crashed peers are simply skipped), at the price of a
delivery latency of ``ttl`` gossip rounds and a *probabilistic* rather
than uniform agreement guarantee.  The shootout therefore holds it
(:data:`repro.baselines.shootout.PROMISES`) only to the orders members
*do* deliver never contradicting each other — holes are allowed under
churn, and even a clean run need not deliver everything.

Determinism: gossip targets come from the named simulator stream
``rng("epto")``, so a seed fixes the entire epidemic.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Tuple

from repro.baselines.common import BroadcastGroup, BroadcastMember
from repro.net.topology import Topology
from repro.sim import Simulator

# Event ids are (src_index, local_seq); wire events are
# [id, ts, ttl, src_index, payload] lists (ttl is mutable in place).
EventId = Tuple[int, int]


def default_ttl(n_members: int) -> int:
    """Round bound: 2·⌈log2 n⌉ + 2 rounds spreads a ball w.h.p."""
    return 2 * max(1, math.ceil(math.log2(max(2, n_members)))) + 2


class _EptoMember(BroadcastMember):
    def __init__(self, group, index, host, cpu):
        super().__init__(group, index, host, cpu)
        self.clock = 0
        self.next_seq = 0
        # Dissemination component: events to relay next round.
        self.next_ball: Dict[EventId, List] = {}
        # Ordering component: events received but not yet stable.
        self.received: Dict[EventId, List] = {}
        self.delivered_ids = set()
        self.last_delivered_ts = -1

    def tick(self, observed: int = 0) -> int:
        self.clock = max(self.clock, observed) + 1
        return self.clock


class EptoBroadcast(BroadcastGroup):
    """Epidemic total order via balls, TTLs, and logical clocks."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_members: int,
        cpu_ns_per_msg: int = 200,
        payload_bytes: int = 64,
        round_interval_ns: int = 25_000,
        fanout: int = 0,
        ttl: int = 0,
    ) -> None:
        self.round_interval_ns = round_interval_ns
        self.fanout = fanout or max(2, math.ceil(math.log2(max(2, n_members))))
        self.ttl = ttl or default_ttl(n_members)
        self.balls_sent = 0
        self.rounds = 0
        super().__init__(
            sim, topology, n_members, cpu_ns_per_msg, payload_bytes
        )

    def _make_member(self, index, host, cpu):
        return _EptoMember(self, index, host, cpu)

    def _wire(self) -> None:
        self._rng = self.sim.rng("epto")
        for member in self.members:
            member.messenger.on(
                "ball",
                lambda src, body, m=member: self._on_ball(m, body),
            )
        self._task = self.sim.every(self.round_interval_ns, self._round)

    def stop(self) -> None:
        self._task.cancel()

    # ------------------------------------------------------------------
    def broadcast(self, sender_index: int, payload: Any) -> None:
        member = self.members[sender_index]
        if member.host.failed:
            return
        ts = member.tick()
        event_id = (member.index, member.next_seq)
        member.next_seq += 1
        member.next_ball[event_id] = [event_id, ts, 0, member.index, payload]

    # ------------------------------------------------------------------
    # Dissemination component (one gossip round, all members)
    # ------------------------------------------------------------------
    def _round(self) -> None:
        self.rounds += 1
        for member in self.members:
            if member.host.failed:
                continue
            ball = member.next_ball
            member.next_ball = {}
            for event in ball.values():
                event[2] += 1  # ttl
            if ball:
                self._gossip(member, ball)
            self._order(member, ball)

    def _gossip(self, member: _EptoMember, ball: Dict[EventId, List]) -> None:
        peers = [
            m
            for m in self.members
            if m is not member and not m.host.failed
        ]
        if not peers:
            return
        fanout = min(self.fanout, len(peers))
        # Seeded sample: resampled every round, so a crashed target this
        # round costs nothing next round (churn tolerance).
        targets = self._rng.sample(peers, fanout)
        body = [list(event) for event in ball.values()]
        for target in targets:
            self.balls_sent += 1
            member.messenger.send(
                target.proc_id,
                target.host.node_id,
                "ball",
                body,
                size_bytes=self.payload_bytes * max(1, len(body)),
            )

    def _on_ball(self, member: _EptoMember, body: Any) -> None:
        # Receives only merge into the next ball; the ordering component
        # runs once per round so TTL counts rounds, not ball arrivals.
        if member.host.failed:
            return
        for raw in body:
            event_id, ts, ttl_, src, payload = raw
            event_id = tuple(event_id)
            member.tick(observed=ts)
            if ttl_ < self.ttl:
                held = member.next_ball.get(event_id)
                if held is None:
                    member.next_ball[event_id] = [
                        event_id, ts, ttl_, src, payload
                    ]
                elif held[2] < ttl_:
                    held[2] = ttl_

    # ------------------------------------------------------------------
    # Ordering component (stability detection + in-order delivery)
    # ------------------------------------------------------------------
    def _order(self, member: _EptoMember, ball: Dict[EventId, List]) -> None:
        for event in member.received.values():
            event[2] += 1  # every round survived raises confidence
        for event_id, event in ball.items():
            if (
                event_id in member.delivered_ids
                or event[1] <= member.last_delivered_ts
            ):
                continue  # too late: already delivered past its slot
            held = member.received.get(event_id)
            if held is None:
                member.received[event_id] = event
            elif held[2] < event[2]:
                held[2] = event[2]
        self._flush(member)

    def _flush(self, member: _EptoMember) -> None:
        if not member.received:
            return
        unstable_floor = None
        deliverable = []
        for event in member.received.values():
            if event[2] >= self.ttl:
                deliverable.append(event)
            elif unstable_floor is None or event[1] < unstable_floor:
                unstable_floor = event[1]
        for event in sorted(deliverable, key=lambda e: (e[1], e[3])):
            event_id, ts, _ttl, src, payload = event
            if unstable_floor is not None and ts >= unstable_floor:
                break  # an earlier event may still stabilize first
            del member.received[event_id]
            member.delivered_ids.add(event_id)
            member.last_delivered_ts = max(member.last_delivered_ts, ts)
            member.record_delivery((ts, src), src, payload)
