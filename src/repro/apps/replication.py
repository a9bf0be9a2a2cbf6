"""Replication on 1Pipe (paper §2.2.2): 1-RTT log replication, a
leader-follower baseline, and state machine replication.

The 1-RTT scheme: a client scatters a log entry to all replicas via
*best effort* 1Pipe (the network serializes, no primary needed).  Each
(client, replica) pair maintains a sequence number — the replica rejects
gaps — and every replica keeps a running checksum over all appended
entries.  The paper folds entry timestamps into the checksum; we fold
entry *identities* ``(client, seq)`` instead, because a retransmitted
entry is re-stamped with a fresh timestamp at one replica but keeps the
original at the others — identity checksums stay equal whenever the
logs agree in content and order, which is the property being checked.  The replica's ACK carries the checksum;
if the client sees equal checksums from every replica, the logs are
consistent at least up to its entry and replication finished in one
round trip.  A rejection means a lost message: the client retransmits
from the first rejected sequence number.  Diverging checksums resolve the
append as ``False`` and leave recovery to the application: the paper
truncates to a consistent prefix by consensus, which this module does not
model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.net.rpc import Messenger, rpc_endpoints
from repro.net.topology import Topology
from repro.onepipe.cluster import OnePipeCluster
from repro.sim import Future, Process, Simulator, all_of

REPL_RESP_BASE = 8_000_000
REPL_RPC_BASE = 9_000_000


class LogEntryRecord:
    __slots__ = ("ts", "client", "seq", "payload")

    def __init__(self, ts, client, seq, payload):
        self.ts = ts
        self.client = client
        self.seq = seq
        self.payload = payload

    def key(self):
        return (self.ts, self.client, self.seq)


class OnePipeReplicatedLog:
    """1-RTT multi-client replication over best-effort 1Pipe.

    Process layout: endpoints ``[0, n_replicas)`` are replicas; clients
    are any other endpoints of the cluster.
    """

    def __init__(
        self,
        cluster: OnePipeCluster,
        n_replicas: int = 3,
        cpu_ns_per_msg: int = 200,
        append_timeout_ns: int = 200_000,
    ) -> None:
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.n_replicas = n_replicas
        self.append_timeout_ns = append_timeout_ns
        self.logs: List[List[LogEntryRecord]] = [[] for _ in range(n_replicas)]
        self.checksums: List[int] = [0] * n_replicas
        # Per replica: client -> next expected sequence number.
        self._expected: List[Dict[int, int]] = [dict() for _ in range(n_replicas)]
        # Checksum at append time per (client, seq): duplicates (caused
        # by a lost ACK) are re-ACKed with the *historical* checksum so
        # the client's cross-replica comparison stays meaningful.
        self._ack_history: List[Dict[tuple, int]] = [
            dict() for _ in range(n_replicas)
        ]
        self._responders: Dict[int, Messenger] = {}
        self._client_state: Dict[int, dict] = {}
        self.appends_committed = 0
        self.retransmissions = 0
        for proc in range(n_replicas):
            endpoint = cluster.endpoint(proc)
            endpoint.on_recv(
                lambda message, r=proc: self._replica_on_message(r, message)
            )
            self._responders[proc] = Messenger(
                endpoint.agent.host, REPL_RESP_BASE + proc, cpu_ns_per_msg
            )

    def register_client(self, client_proc: int) -> None:
        endpoint = self.cluster.endpoint(client_proc)
        messenger = Messenger(
            endpoint.agent.host, REPL_RESP_BASE + client_proc, 0
        )
        messenger.on("rack", self._client_on_ack)
        self._client_state[client_proc] = {
            "messenger": messenger,
            "next_seq": 1,
            # seq -> {"payload", "acks": {replica: checksum}, "future"}
            "inflight": {},
        }

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def append(self, client_proc: int, payload: Any) -> Future:
        """Replicate one log entry; resolves True when all replica
        checksums matched (1 RTT in the common case)."""
        state = self._client_state[client_proc]
        seq = state["next_seq"]
        state["next_seq"] = seq + 1
        done = Future(self.sim)
        state["inflight"][seq] = {
            "payload": payload,
            "acks": {},
            "future": done,
        }
        self._transmit(client_proc, seq)
        self.sim.schedule(
            self.append_timeout_ns, self._check_timeout, client_proc, seq
        )
        return done

    def _transmit(self, client_proc: int, seq: int) -> None:
        state = self._client_state[client_proc]
        record = state["inflight"].get(seq)
        if record is None:
            return
        entries = [
            (replica, ("app", client_proc, seq, record["payload"]), 64)
            for replica in range(self.n_replicas)
        ]
        self.cluster.endpoint(client_proc).unreliable_send(entries)

    def _check_timeout(self, client_proc: int, seq: int) -> None:
        state = self._client_state[client_proc]
        record = state["inflight"].get(seq)
        if record is None:
            return
        # Packet loss: retransmit everything from the first incomplete
        # sequence number (per-pair FIFO keeps replicas consistent).
        self.retransmissions += 1
        for pending_seq in sorted(state["inflight"]):
            self._transmit(client_proc, pending_seq)
        self.sim.schedule(
            self.append_timeout_ns, self._check_timeout, client_proc, seq
        )

    def _client_on_ack(self, _src: int, body: Any) -> None:
        client_proc, seq, replica, status, checksum = body
        state = self._client_state.get(client_proc)
        if state is None:
            return
        record = state["inflight"].get(seq)
        if record is None:
            return
        if status == "reject":
            return  # timeout path will retransmit the gap
        record["acks"][replica] = checksum
        if len(record["acks"]) == self.n_replicas:
            checksums = set(record["acks"].values())
            del state["inflight"][seq]
            if len(checksums) == 1:
                self.appends_committed += 1
                record["future"].try_resolve(True)
            else:
                # Diverging checksums: lost messages or failure; the
                # application layer runs recovery (§2.2.2).
                record["future"].try_resolve(False)

    # ------------------------------------------------------------------
    # Replica side
    # ------------------------------------------------------------------
    def _replica_on_message(self, replica: int, message) -> None:
        if message.payload[0] != "app":
            return
        _tag, client_proc, seq, payload = message.payload
        expected = self._expected[replica].get(client_proc, 1)
        if seq > expected:
            status = "reject"  # gap: a previous entry was lost
            checksum = self.checksums[replica]
        elif seq < expected:
            # Retransmission of an appended entry (its ACK was lost):
            # re-ACK with the checksum recorded at append time.
            status = "ok"
            checksum = self._ack_history[replica].get(
                (client_proc, seq), self.checksums[replica]
            )
        else:
            self._expected[replica][client_proc] = seq + 1
            self.logs[replica].append(
                LogEntryRecord(message.ts, client_proc, seq, payload)
            )
            self.checksums[replica] = (
                (self.checksums[replica] * 1_000_003 + client_proc) * 1_000_003
                + seq
            ) % (1 << 61)
            self._ack_history[replica][(client_proc, seq)] = self.checksums[
                replica
            ]
            status = "ok"
            checksum = self.checksums[replica]
        self._responders[replica].send(
            REPL_RESP_BASE + client_proc,
            self.cluster.directory.host_of(client_proc),
            "rack",
            (client_proc, seq, replica, status, checksum),
            size_bytes=32,
        )

    # ------------------------------------------------------------------
    def logs_consistent(self) -> bool:
        """All replicas hold the same entries in the same order.

        Compared by identity (client, seq): a retransmitted entry keeps
        its identity but may carry a different timestamp at the replica
        that recovered it.
        """
        keys = [[(r.client, r.seq) for r in log] for log in self.logs]
        return all(k == keys[0] for k in keys[1:])


class LeaderFollowerLog:
    """Traditional 2-RTT replication: client -> leader -> followers."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        n_replicas: int = 3,
        n_clients: int = 4,
        cpu_ns_per_msg: int = 200,
    ) -> None:
        self.sim = sim
        self.n_replicas = n_replicas
        self.logs: List[List[Any]] = [[] for _ in range(n_replicas)]
        rpcs = rpc_endpoints(
            topology, REPL_RPC_BASE, n_replicas + n_clients, cpu_ns_per_msg
        )
        self.replica_rpcs = rpcs[:n_replicas]
        for replica, rpc in enumerate(self.replica_rpcs):
            if replica == 0:
                rpc.serve("append", self._leader_append)
            rpc.serve("replicate", lambda src, arg, r=replica: self._apply(r, arg))
        self.client_rpcs = rpcs[n_replicas:]
        self.appends_committed = 0

    def _apply(self, replica: int, entry: Any) -> bool:
        self.logs[replica].append(entry)
        return True

    def _leader_append(self, _src: int, entry: Any):
        # The leader serializes, appends locally and replicates; the
        # reply to the client happens after follower acks (second RTT).
        self.logs[0].append(entry)
        return ("replicate", entry)

    def append(self, client_proc_index: int, payload: Any) -> Future:
        done = Future(self.sim)
        rpc = self.client_rpcs[client_proc_index]
        Process(self.sim, self._append_proc(rpc, payload, done))
        return done

    def _append_proc(self, rpc, payload, done):
        _tag, entry = yield rpc.call(REPL_RPC_BASE + 0, "append", payload)
        # Leader -> followers -> leader -> client: modelled by the client
        # driving the follower round on the leader's behalf would be
        # wrong; instead the leader's reply above only returns after we
        # complete the follower round here *through the leader's rpc*.
        leader_rpc = self.replica_rpcs[0]
        yield all_of(
            [
                leader_rpc.call(REPL_RPC_BASE + r, "replicate", entry)
                for r in range(1, self.n_replicas)
            ]
        )
        self.appends_committed += 1
        done.try_resolve(True)


class StateMachineReplication:
    """SMR over reliable 1Pipe (§2.2.2): every command is scattered to
    all members; restricted atomicity + total order give every member
    the same command sequence.  ``apply`` is the deterministic state
    transition."""

    def __init__(
        self,
        cluster: OnePipeCluster,
        member_procs: List[int],
        apply: Callable[[int, Any, int], None],
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.member_procs = list(member_procs)
        self.apply = apply
        self.command_log: Dict[int, List] = {p: [] for p in self.member_procs}
        for proc in self.member_procs:
            cluster.endpoint(proc).on_reliable_recv(
                lambda message, p=proc: self._on_command(p, message)
            )

    def submit(self, proc: int, command: Any):
        """Broadcast a command from member ``proc`` to the group."""
        entries = [(p, ("smr", command), 64) for p in self.member_procs]
        return self.cluster.endpoint(proc).reliable_send(entries)

    def _on_command(self, member: int, message) -> None:
        if message.payload[0] != "smr":
            return
        command = message.payload[1]
        self.command_log[member].append((message.ts, message.src, command))
        self.apply(member, command, message.ts)
