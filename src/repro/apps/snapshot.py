"""Consistent distributed snapshots via 1Pipe (paper §2.2.4).

The paper: "1Pipe timestamp is also a global synchronization point.  For
example, to take a consistent distributed snapshot, the initiator
broadcasts a message with timestamp T to all processes, which directs
all processes to record its local state."

Because every process delivers the snapshot marker at the same position
of the total order, the recorded states form a *consistent cut*: every
application message ordered before the marker is reflected at both its
sender and its receiver, and no message after the marker is reflected
anywhere — without stopping the world and without Chandy-Lamport
channel recording (the network's total order replaces it).

The demo application is a token-conservation system: processes pass
value among themselves; a consistent snapshot must always show the same
global total.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.apps.gather import Calls
from repro.onepipe.cluster import OnePipeCluster
from repro.sim import Future


class SnapshotParticipant:
    """A process with local state participating in snapshots.

    ``state`` is application-defined; ``snapshot_fn()`` must return an
    immutable copy of it.  Application messages and snapshot markers
    share the endpoint's reliable total order, which is what makes the
    cut consistent.
    """

    def __init__(self, coordinator: "SnapshotCoordinator", proc_id: int,
                 on_message: Callable[[int, Any], None],
                 snapshot_fn: Callable[[], Any]) -> None:
        self.coordinator = coordinator
        self.proc_id = proc_id
        self.on_message = on_message
        self.snapshot_fn = snapshot_fn


class SnapshotCoordinator:
    """Drives snapshot markers and application traffic over one cluster."""

    def __init__(self, cluster: OnePipeCluster, member_procs: List[int]) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.member_procs = list(member_procs)
        self.participants: Dict[int, SnapshotParticipant] = {}
        self.calls = Calls(cluster)

    def register(
        self,
        proc_id: int,
        on_message: Callable[[int, Any], None],
        snapshot_fn: Callable[[], Any],
    ) -> SnapshotParticipant:
        participant = SnapshotParticipant(self, proc_id, on_message, snapshot_fn)
        self.participants[proc_id] = participant
        self.cluster.endpoint(proc_id).on_reliable_recv(
            lambda message, p=participant: self._on_delivery(p, message)
        )
        return participant

    def take_snapshot(self, initiator_proc: int) -> Future:
        """Broadcast a marker; resolves with {proc: state} once every
        member recorded its cut."""
        call = self.calls.open(self.member_procs)
        entries = [(p, ("marker", call.id), 32) for p in self.member_procs]
        self.cluster.endpoint(initiator_proc).reliable_send(entries)
        return call.future

    # ------------------------------------------------------------------
    def _on_delivery(self, participant: SnapshotParticipant, message) -> None:
        tag = message.payload[0]
        if tag == "app":
            participant.on_message(message.src, message.payload[1])
            return
        if tag != "marker":
            return
        self.calls.collect(
            message.payload[1], participant.proc_id, participant.snapshot_fn()
        )


class TokenConservationDemo:
    """Processes pass integer value around; total value is invariant.

    A snapshot is consistent iff the recorded balances sum to the
    initial total — the classic test for snapshot algorithms.
    """

    def __init__(self, cluster: OnePipeCluster, member_procs: List[int],
                 initial_balance: int = 100) -> None:
        self.coordinator = SnapshotCoordinator(cluster, member_procs)
        self.balances: Dict[int, int] = {
            p: initial_balance for p in member_procs
        }
        self.total = initial_balance * len(member_procs)
        for proc in member_procs:
            self.coordinator.register(
                proc,
                on_message=lambda src, body, p=proc: self._receive(p, body),
                snapshot_fn=lambda p=proc: self.balances[p],
            )

    def _receive(self, proc: int, amount: int) -> None:
        self.balances[proc] += amount

    def transfer(self, src_proc: int, dst_proc: int, amount: int) -> None:
        """Move value: debit locally *when sending*, credit on delivery.

        The debit is applied at send time and the credit at delivery —
        between the two, the value is 'in flight'.  With 1Pipe ordering,
        a marker delivered before the credit is also delivered before
        the debit's snapshot... no: the debit happens at the *sender's*
        send instant, which precedes its marker delivery only if the
        transfer's timestamp precedes the marker's.  To make the demo's
        cut exact, the debit also travels through the total order: the
        sender sends itself a debit message in the same scattering.
        """
        self.coordinator.cluster.endpoint(src_proc).reliable_send(
            [
                (src_proc, ("app", -amount), 32),
                (dst_proc, ("app", amount), 32),
            ]
        )
