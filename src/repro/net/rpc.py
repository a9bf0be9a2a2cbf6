"""Plain (unordered) messaging and request/response RPC.

The paper's baselines — FaRM-style OCC, two-phase locking, leader-follower
replication, the centralized sequencer — all use ordinary point-to-point
messaging without 1Pipe ordering.  :class:`Messenger` provides that:
fire-and-forget typed messages between process endpoints, delivered as
soon as the network gets them there.  :class:`RpcEndpoint` layers
request/response with futures and timeouts on top, which makes the
application baselines read like straightforward RPC code;
:func:`rpc_endpoints` deploys one per process of a baseline.

A per-endpoint CPU model (``cpu_ns_per_msg``) serializes message handling
so that endpoint throughput saturates realistically, matching how the
paper's throughput is CPU-bound (§7.2).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.net.nic import Host
from repro.net.packet import Packet, PacketKind
from repro.net.topology import Topology
from repro.sim import Future, Simulator


class Messenger:
    """Fire-and-forget typed messages between process endpoints.

    One Messenger per process: it registers ``proc_id`` on its host and
    dispatches incoming payloads of the form ``(msg_type, body)`` to
    handlers registered per type.
    """

    def __init__(
        self,
        host: Host,
        proc_id: int,
        cpu_ns_per_msg: int = 0,
    ) -> None:
        self.host = host
        self.sim: Simulator = host.sim
        self.proc_id = proc_id
        self.cpu_ns_per_msg = cpu_ns_per_msg
        self._handlers: Dict[str, Callable[[int, Any], None]] = {}
        self._cpu_free_at = 0
        self.rx_messages = 0
        self.tx_messages = 0
        host.register_endpoint(proc_id, self._on_packet)

    def close(self) -> None:
        self.host.unregister_endpoint(self.proc_id)

    def on(self, msg_type: str, handler: Callable[[int, Any], None]) -> None:
        """Register ``handler(src_proc, body)`` for ``msg_type``."""
        if msg_type in self._handlers:
            raise ValueError(f"duplicate handler for {msg_type!r}")
        self._handlers[msg_type] = handler

    def send(
        self,
        dst_proc: int,
        dst_host: str,
        msg_type: str,
        body: Any = None,
        size_bytes: int = 64,
    ) -> None:
        """Send a message; delivery is unordered w.r.t. other senders.

        Sending shares the endpoint's CPU with receiving: a process that
        fans a message out to N peers pays N per-message costs (this is
        what makes token holders and host sequencers the bottleneck of
        their protocols)."""
        packet = Packet(
            PacketKind.RAW,
            src=self.proc_id,
            dst=dst_proc,
            src_host=self.host.node_id,
            dst_host=dst_host,
            payload_bytes=size_bytes,
            payload=(msg_type, body),
        )
        self.tx_messages += 1
        if self.cpu_ns_per_msg:
            start = max(self.sim.now, self._cpu_free_at)
            self._cpu_free_at = start + self.cpu_ns_per_msg
            self.sim.schedule_at(
                self._cpu_free_at, self.host.send_packet, packet
            )
        else:
            self.host.send_packet(packet)

    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if packet.kind != PacketKind.RAW:
            return
        if self.cpu_ns_per_msg:
            # Serialize handling on this endpoint's CPU.
            start = max(self.sim.now, self._cpu_free_at)
            self._cpu_free_at = start + self.cpu_ns_per_msg
            self.sim.schedule_at(self._cpu_free_at, self._dispatch, packet)
        else:
            self._dispatch(packet)

    def _dispatch(self, packet: Packet) -> None:
        self.rx_messages += 1
        msg_type, body = packet.payload
        handler = self._handlers.get(msg_type)
        if handler is None:
            raise KeyError(
                f"proc {self.proc_id}: no handler for message {msg_type!r}"
            )
        handler(packet.src, body)


class RpcTimeout(Exception):
    """Raised into the caller when a request's timeout elapses."""


class RpcEndpoint:
    """Request/response RPC over a :class:`Messenger`.

    Server side registers functions with :meth:`serve`; client side calls
    :meth:`call` and waits on the returned future (usually from inside a
    sim process: ``reply = yield rpc.call(...)``).
    """

    def __init__(self, messenger: Messenger, directory: "Directory") -> None:
        self.messenger = messenger
        self.sim = messenger.sim
        self.directory = directory
        # Request ids only correlate replies and key the server's
        # at-most-once cache (by source process), so each endpoint
        # numbers its own.
        self._req_ids = itertools.count(1)
        self._pending: Dict[int, Future] = {}
        self._methods: Dict[str, Callable[[int, Any], Any]] = {}
        self._responded: Dict[tuple, tuple] = {}
        # Default retransmission policy applied when a call() does not
        # specify one (benchmarks running under injected loss set this).
        self.default_retries = 0
        self.default_retry_timeout_ns = 100_000
        messenger.on("__rpc_req", self._on_request)
        messenger.on("__rpc_rsp", self._on_response)

    def serve(self, method: str, fn: Callable[[int, Any], Any]) -> None:
        """Register ``fn(src_proc, arg) -> result`` under ``method``."""
        if method in self._methods:
            raise ValueError(f"duplicate RPC method {method!r}")
        self._methods[method] = fn

    def call(
        self,
        dst_proc: int,
        method: str,
        arg: Any = None,
        size_bytes: int = 64,
        timeout_ns: Optional[int] = None,
        retries: int = 0,
        retry_timeout_ns: int = 100_000,
    ) -> Future:
        """Invoke ``method`` on ``dst_proc``; future resolves with the
        result (or fails with :class:`RpcTimeout`).

        With ``retries > 0`` the request is retransmitted on loss
        (at-most-once execution: the server caches and replays its
        response for duplicate request ids).
        """
        req_id = next(self._req_ids)
        future = Future(self.sim)
        self._pending[req_id] = future
        if retries == 0 and self.default_retries:
            retries = self.default_retries
            retry_timeout_ns = self.default_retry_timeout_ns
        self._transmit(dst_proc, req_id, method, arg, size_bytes)
        if retries > 0:
            self.sim.schedule(
                retry_timeout_ns, self._retry,
                dst_proc, req_id, method, arg, size_bytes,
                retries, retry_timeout_ns,
            )
        elif timeout_ns is not None:
            self.sim.schedule(timeout_ns, self._timeout, req_id)
        return future

    def _transmit(self, dst_proc, req_id, method, arg, size_bytes) -> None:
        self.messenger.send(
            dst_proc,
            self.directory.host_of(dst_proc),
            "__rpc_req",
            (req_id, method, arg),
            size_bytes=size_bytes,
        )

    def _retry(
        self, dst_proc, req_id, method, arg, size_bytes, left, timeout_ns
    ) -> None:
        future = self._pending.get(req_id)
        if future is None or future.done:
            return
        if left <= 0:
            self._timeout(req_id)
            return
        self._transmit(dst_proc, req_id, method, arg, size_bytes)
        self.sim.schedule(
            timeout_ns, self._retry,
            dst_proc, req_id, method, arg, size_bytes, left - 1, timeout_ns,
        )

    def _timeout(self, req_id: int) -> None:
        future = self._pending.pop(req_id, None)
        if future is not None and not future.done:
            future.fail(RpcTimeout(f"request {req_id} timed out"))

    def _on_request(self, src_proc: int, body: Any) -> None:
        req_id, method, arg = body
        # At-most-once execution: duplicates (client retransmissions)
        # replay the cached response instead of re-executing.
        cached = self._responded.get((src_proc, req_id))
        if cached is not None:
            self.messenger.send(
                src_proc,
                self.directory.host_of(src_proc),
                "__rpc_rsp",
                (req_id, cached[0]),
            )
            return
        fn = self._methods.get(method)
        if fn is None:
            raise KeyError(
                f"proc {self.messenger.proc_id}: no RPC method {method!r}"
            )
        result = fn(src_proc, arg)
        self._responded[(src_proc, req_id)] = (result,)
        if len(self._responded) > 8192:
            # Drop the oldest half (clients only retransmit recent ids).
            keys = list(self._responded)
            for key in keys[: len(keys) // 2]:
                del self._responded[key]
        self.messenger.send(
            src_proc,
            self.directory.host_of(src_proc),
            "__rpc_rsp",
            (req_id, result),
        )

    def _on_response(self, _src_proc: int, body: Any) -> None:
        req_id, result = body
        future = self._pending.pop(req_id, None)
        if future is not None:
            future.try_resolve(result)


class Directory:
    """Maps process ids to host node ids (a name service).

    Real systems use a registry (the paper's controller stores process
    information in etcd); tests and apps populate this directly.
    """

    def __init__(self) -> None:
        self._host_of: Dict[int, str] = {}

    def register(self, proc_id: int, host_id: str) -> None:
        existing = self._host_of.get(proc_id)
        if existing is not None and existing != host_id:
            raise ValueError(
                f"proc {proc_id} already registered on {existing}"
            )
        self._host_of[proc_id] = host_id

    def host_of(self, proc_id: int) -> str:
        return self._host_of[proc_id]


def rpc_endpoints(
    topology: Topology, base: int, n: int, cpu_ns_per_msg: int
) -> List[RpcEndpoint]:
    """``n`` RPC endpoints, process ids ``base .. base + n - 1``, one per
    host of ``topology.assign_hosts(n)``, sharing one :class:`Directory`."""
    hosts = topology.assign_hosts(n)
    directory = Directory()
    for i, host in enumerate(hosts):
        directory.register(base + i, host.node_id)
    return [
        RpcEndpoint(Messenger(host, base + i, cpu_ns_per_msg), directory)
        for i, host in enumerate(hosts)
    ]
