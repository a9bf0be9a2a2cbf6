"""Scatter-gather calls: the second idiom every §7.3 app builds on 1Pipe.

The §3 API has one primitive, a timestamped scatter.  Each app on top of
it scatters to N shards or replicas, gathers their answers and then
resolves a future.  :class:`Calls` is one app's table of such calls: it
numbers them, owns the app's per-process answer messengers (plain,
unordered messages at ``base + proc``) and resolves each call's future
with ``{server: answer}``, in arrival order, once no expected server is
left.  What a call's answers mean (commit, quorum, retry) stays with the
app.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable

from repro.net.rpc import Messenger
from repro.onepipe.cluster import OnePipeCluster
from repro.sim import Future


class Call:
    """One outstanding scatter.  ``timer`` is an optional retry timer the
    app schedules; it is cancelled when the call completes or closes."""

    __slots__ = ("id", "future", "waiting", "answers", "timer")

    def __init__(self, call_id: int, future: Future, expect: Iterable[int]):
        self.id = call_id
        self.future = future
        self.waiting = set(expect)
        self.answers: Dict[int, Any] = {}
        self.timer = None


class Calls:
    """One app's outstanding calls and answer messengers."""

    def __init__(self, cluster: OnePipeCluster, base: int = 0) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.base = base
        self._messengers: Dict[int, Messenger] = {}
        self._open: Dict[int, Call] = {}
        self._ids = itertools.count(1)

    def attach(self, procs: Iterable[int], cpu_ns_per_msg: int) -> None:
        """Give each of ``procs`` an answer messenger at ``base + proc``."""
        for proc in procs:
            messenger = Messenger(
                self.cluster.endpoint(proc).agent.host,
                self.base + proc,
                cpu_ns_per_msg,
            )
            messenger.on("answer", self._on_answer)
            self._messengers[proc] = messenger

    def open(self, expect: Iterable[int]) -> Call:
        """A new call waiting on an answer from each server in ``expect``."""
        call = Call(next(self._ids), Future(self.sim), expect)
        self._open[call.id] = call
        return call

    def close(self, call: Call) -> None:
        """Abandon ``call``: later answers to it are dropped."""
        self._open.pop(call.id, None)
        if call.timer is not None:
            call.timer.cancel()

    def answer(
        self, server: int, client: int, call_id: int, answer: Any,
        size_bytes: int,
    ) -> None:
        """Send ``server``'s answer to call ``call_id`` of ``client``."""
        self._messengers[server].send(
            self.base + client,
            self.cluster.directory.host_of(client),
            "answer",
            (call_id, server, answer),
            size_bytes=size_bytes,
        )

    def collect(self, call_id: int, server: int, answer: Any) -> None:
        """Record ``server``'s answer (a reply that arrived locally)."""
        call = self._open.get(call_id)
        if call is None:
            return  # completed or abandoned
        call.answers[server] = answer
        call.waiting.discard(server)
        if not call.waiting:
            self._complete(call)

    def forget(self, server: int) -> None:
        """Stop waiting on a failed ``server`` in every open call."""
        for call in list(self._open.values()):
            if server in call.waiting:
                call.waiting.discard(server)
                if not call.waiting:
                    self._complete(call)

    def _on_answer(self, _src: int, body: Any) -> None:
        self.collect(*body)

    def _complete(self, call: Call) -> None:
        self.close(call)
        call.future.try_resolve(call.answers)
