"""Admission control and bounded-queue backpressure at the host agent.

Open-loop overload (ROADMAP item 3) needs a decision point *before* a
message enters the 1Pipe sender: once :meth:`HostAgent._stamp_egress`
assigns a scattering its timestamp, §2.1 obliges the pipe to deliver or
explicitly fail it — silently shedding it would violate the contract.
The :class:`AdmissionController` therefore sits in front of
``endpoint.*_send``: an operation is **admitted** (dispatched now),
**deferred** (parked in a bounded FIFO until an in-flight slot frees
up), or **rejected** (queue full — the caller retries with jittered
backoff or gives up).  A rejected operation never touched the sender,
so no timestamped message is ever dropped; a deferred operation
dispatches in FIFO order, so per-sender submission order — and with it
the per-sender timestamp order of §2.1 — is preserved.

The controller is opt-in: ``HostAgent.admission`` stays ``None`` unless
:meth:`HostAgent.install_admission` is called, so every existing report
is byte-identical to a build without this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.onepipe.hostagent import HostAgent

__all__ = ["ADMITTED", "AdmissionConfig", "AdmissionController", "DEFERRED",
           "REJECTED"]

ADMITTED = "admitted"
DEFERRED = "deferred"
REJECTED = "rejected"


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-host-agent admission knobs.

    ``max_inflight`` bounds concurrently outstanding operations;
    ``queue_limit`` bounds the deferred FIFO (0 disables deferral —
    anything over ``max_inflight`` is rejected outright);
    ``op_timeout_ns`` is the backstop that frees a slot whose operation
    never completed (e.g. its server died mid-episode), so one dead
    peer cannot wedge the admission pipeline forever.
    """

    max_inflight: int = 4
    queue_limit: int = 32
    op_timeout_ns: int = 3_000_000


class AdmissionController:
    """Bounded in-flight window + bounded FIFO in front of one host
    agent's senders."""

    def __init__(self, agent: "HostAgent", config: AdmissionConfig) -> None:
        if config.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1: {config.max_inflight}")
        if config.queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0: {config.queue_limit}")
        self.sim = agent.sim
        self.agent = agent
        self.config = config
        self.inflight = 0
        self._queue: deque = deque()
        self._open: set = set()
        self._ticket_seq = 0
        self._timers: dict = {}
        # Outcome counts (also mirrored into the shared workload.*
        # registry counters so scenario totals aggregate across agents).
        self.admitted = 0
        self.deferred = 0
        self.rejected = 0
        self.completed = 0
        self.timed_out = 0
        self.max_queue_depth = 0
        self.max_inflight_seen = 0
        # Busy/saturation time accounting for the utilization metric:
        # busy = at least one op in flight, saturated = window full.
        self._busy_since: Optional[int] = None
        self._sat_since: Optional[int] = None
        self.busy_ns = 0
        self.saturated_ns = 0
        metrics = agent._metrics
        self._m_admitted = metrics.counter("workload.admitted")
        self._m_deferred = metrics.counter("workload.deferred")
        self._m_rejected = metrics.counter("workload.rejected")
        self._m_timed_out = metrics.counter("workload.timed_out")

    # ------------------------------------------------------------------
    def submit(self, dispatch: Callable[[int], None]) -> str:
        """Admit, defer, or reject one operation.

        ``dispatch(ticket)`` performs the actual send; it runs now on
        admission or later (FIFO) when a slot frees up.  The caller must
        invoke :meth:`complete` with the same ticket when the operation
        finishes; the ``op_timeout_ns`` backstop covers operations that
        never do.  On rejection ``dispatch`` is never invoked — nothing
        reached a sender, so nothing was timestamped.
        """
        if self.inflight >= self.config.max_inflight:
            if len(self._queue) >= self.config.queue_limit:
                self.rejected += 1
                self._m_rejected.add()
                return REJECTED
            self._queue.append(dispatch)
            depth = len(self._queue)
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth
            self.deferred += 1
            self._m_deferred.add()
            return DEFERRED
        self.admitted += 1
        self._m_admitted.add()
        self._start(dispatch)
        return ADMITTED

    def complete(self, ticket: int) -> None:
        """Release one in-flight slot (idempotent per ticket) and
        dispatch the queue head, if any."""
        if ticket not in self._open:
            return
        self._open.discard(ticket)
        timer = self._timers.pop(ticket, None)
        if timer is not None:
            timer.cancel()
        self.completed += 1
        self._account_release()
        if self._queue:
            self._start(self._queue.popleft())

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def _start(self, dispatch: Callable[[int], None]) -> None:
        now = self.sim.now
        if self.inflight == 0:
            self._busy_since = now
        self.inflight += 1
        if self.inflight > self.max_inflight_seen:
            self.max_inflight_seen = self.inflight
        if self.inflight == self.config.max_inflight:
            self._sat_since = now
        self._ticket_seq += 1
        ticket = self._ticket_seq
        self._open.add(ticket)
        if self.config.op_timeout_ns > 0:
            self._timers[ticket] = self.sim.schedule(
                self.config.op_timeout_ns, self._timeout, ticket
            )
        dispatch(ticket)

    def _timeout(self, ticket: int) -> None:
        if ticket not in self._open:
            return
        self._open.discard(ticket)
        self._timers.pop(ticket, None)
        self.timed_out += 1
        self._m_timed_out.add()
        self._account_release()
        if self._queue:
            self._start(self._queue.popleft())

    def _account_release(self) -> None:
        now = self.sim.now
        if self.inflight == self.config.max_inflight and self._sat_since is not None:
            self.saturated_ns += now - self._sat_since
            self._sat_since = None
        self.inflight -= 1
        if self.inflight == 0 and self._busy_since is not None:
            self.busy_ns += now - self._busy_since
            self._busy_since = None

    # ------------------------------------------------------------------
    def utilization_snapshot(self, at_ns: int) -> dict:
        """Busy/saturated time with open intervals extended to
        ``at_ns`` (does not close them — accounting continues)."""
        busy = self.busy_ns
        if self._busy_since is not None and at_ns > self._busy_since:
            busy += at_ns - self._busy_since
        saturated = self.saturated_ns
        if self._sat_since is not None and at_ns > self._sat_since:
            saturated += at_ns - self._sat_since
        return {"busy_ns": busy, "saturated_ns": saturated}
