"""A compact, faithful Raft (Ongaro & Ousterhout, §5 of the Raft paper).

Implements the complete core protocol:

- randomized election timeouts, RequestVote with the log up-to-date
  check (§5.4.1);
- AppendEntries with the consistency check, conflict truncation and
  follower catch-up via ``next_index`` backoff (§5.3);
- commitment only for entries of the leader's current term once
  replicated on a majority (§5.4.2), applied in order on every node.

Nodes exchange messages over a :class:`RaftNetwork` — a management
network model with a fixed one-way delay plus optional loss and
partitions for the fault tests.  Crash-stop is modelled with
``node.crash()`` / ``node.recover()`` (volatile state reset, persistent
state retained — as if re-reading stable storage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.sim import Simulator

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


@dataclass
class LogEntry:
    term: int
    command: Any


class RaftNetwork:
    """Management-network model carrying Raft RPCs between nodes."""

    def __init__(
        self, sim: Simulator, delay_ns: int = 2_000, loss_rate: float = 0.0
    ) -> None:
        self.sim = sim
        self.delay_ns = delay_ns
        self.loss_rate = loss_rate
        self._rng = sim.rng("raft.network")
        self._nodes: Dict[int, "RaftNode"] = {}
        self._partitions: List[Set[int]] = []
        self.messages_sent = 0

    def register(self, node: "RaftNode") -> None:
        self._nodes[node.node_id] = node

    def partition(self, *groups: Set[int]) -> None:
        """Split nodes into isolated groups (empty call heals)."""
        self._partitions = [set(g) for g in groups]

    def heal(self) -> None:
        self._partitions = []

    def _connected(self, a: int, b: int) -> bool:
        if not self._partitions:
            return True
        for group in self._partitions:
            if a in group:
                return b in group
        return False

    def send(self, src: int, dst: int, message: Tuple) -> None:
        self.messages_sent += 1
        if not self._connected(src, dst):
            return
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return
        self.sim.schedule(self.delay_ns, self._deliver, dst, src, message)

    def _deliver(self, dst: int, src: int, message: Tuple) -> None:
        node = self._nodes.get(dst)
        if node is not None and not node.crashed:
            node.on_message(src, message)


class RaftNode:
    """One Raft replica."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        peers: List[int],
        network: RaftNetwork,
        apply_callback: Optional[Callable[[Any, int], None]] = None,
        election_timeout_ns: int = 150_000,
        heartbeat_interval_ns: int = 30_000,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.peers = [p for p in peers if p != node_id]
        self.network = network
        self.apply_callback = apply_callback
        self.election_timeout_ns = election_timeout_ns
        self.heartbeat_interval_ns = heartbeat_interval_ns
        self._rng = sim.rng(f"raft.node.{node_id}")

        # Persistent state (survives crashes).
        self.current_term = 0
        self.voted_for: Optional[int] = None
        self.log: List[LogEntry] = []

        # Volatile state.
        self.role = FOLLOWER
        self.commit_index = 0  # 1-based index of highest committed entry
        self.last_applied = 0
        self.leader_id: Optional[int] = None
        self.next_index: Dict[int, int] = {}
        self.match_index: Dict[int, int] = {}
        self.crashed = False

        self._votes: Set[int] = set()
        self._election_timer = None
        self._heartbeat_task = None
        network.register(self)
        self._reset_election_timer()

    # ------------------------------------------------------------------
    # Log helpers (1-based indices, per the Raft paper)
    # ------------------------------------------------------------------
    @property
    def last_log_index(self) -> int:
        return len(self.log)

    @property
    def last_log_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def term_at(self, index: int) -> int:
        if index == 0:
            return 0
        return self.log[index - 1].term

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _reset_election_timer(self) -> None:
        if self._election_timer is not None:
            self._election_timer.cancel()
        timeout = self.election_timeout_ns + self._rng.randrange(
            self.election_timeout_ns
        )
        self._election_timer = self.sim.schedule(
            timeout, self._election_timeout
        )

    def _election_timeout(self) -> None:
        if self.crashed or self.role == LEADER:
            return
        self._start_election()

    # ------------------------------------------------------------------
    # Elections (§5.2, §5.4.1)
    # ------------------------------------------------------------------
    def _start_election(self) -> None:
        self.role = CANDIDATE
        self.current_term += 1
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self.leader_id = None
        self._reset_election_timer()
        for peer in self.peers:
            self.network.send(
                self.node_id,
                peer,
                (
                    "request_vote",
                    self.current_term,
                    self.node_id,
                    self.last_log_index,
                    self.last_log_term,
                ),
            )
        self._maybe_win()

    def _maybe_win(self) -> None:
        if self.role != CANDIDATE:
            return
        if len(self._votes) * 2 > len(self.peers) + 1:
            self._become_leader()

    def _become_leader(self) -> None:
        self.role = LEADER
        self.leader_id = self.node_id
        self.next_index = {p: self.last_log_index + 1 for p in self.peers}
        self.match_index = {p: 0 for p in self.peers}
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
        self._heartbeat_task = self.sim.every(
            self.heartbeat_interval_ns, self._broadcast_append
        )
        self._broadcast_append()

    def _step_down(self, term: int) -> None:
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        self.role = FOLLOWER
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        self._reset_election_timer()

    # ------------------------------------------------------------------
    # Replication (§5.3)
    # ------------------------------------------------------------------
    def propose(self, command: Any) -> Optional[int]:
        """Append a command; returns its log index, or None if not
        leader (the caller should retry against the current leader)."""
        if self.crashed or self.role != LEADER:
            return None
        self.log.append(LogEntry(self.current_term, command))
        self._broadcast_append()
        if not self.peers:  # single-node group commits immediately
            self._advance_commit()
        return self.last_log_index

    def _broadcast_append(self) -> None:
        if self.crashed or self.role != LEADER:
            return
        for peer in self.peers:
            self._send_append(peer)

    def _send_append(self, peer: int) -> None:
        next_idx = self.next_index.get(peer, self.last_log_index + 1)
        prev_index = next_idx - 1
        prev_term = self.term_at(prev_index)
        entries = [
            (e.term, e.command) for e in self.log[prev_index:]
        ]
        self.network.send(
            self.node_id,
            peer,
            (
                "append_entries",
                self.current_term,
                self.node_id,
                prev_index,
                prev_term,
                entries,
                self.commit_index,
            ),
        )

    def _advance_commit(self) -> None:
        # Commit the highest index replicated on a majority whose entry
        # is from the current term (§5.4.2).
        for index in range(self.last_log_index, self.commit_index, -1):
            if self.term_at(index) != self.current_term:
                break
            replicas = 1 + sum(
                1 for p in self.peers if self.match_index.get(p, 0) >= index
            )
            if replicas * 2 > len(self.peers) + 1:
                self.commit_index = index
                break
        self._apply_committed()

    def _apply_committed(self) -> None:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log[self.last_applied - 1]
            if self.apply_callback is not None:
                self.apply_callback(entry.command, self.last_applied)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Tuple) -> None:
        kind = message[0]
        if kind == "request_vote":
            self._on_request_vote(src, *message[1:])
        elif kind == "vote_reply":
            self._on_vote_reply(src, *message[1:])
        elif kind == "append_entries":
            self._on_append_entries(src, *message[1:])
        elif kind == "append_reply":
            self._on_append_reply(src, *message[1:])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown raft message {kind!r}")

    def _on_request_vote(
        self, src: int, term: int, candidate: int, last_index: int, last_term: int
    ) -> None:
        if term > self.current_term:
            self._step_down(term)
        granted = False
        if term == self.current_term and self.voted_for in (None, candidate):
            log_ok = (last_term, last_index) >= (
                self.last_log_term,
                self.last_log_index,
            )
            if log_ok:
                granted = True
                self.voted_for = candidate
                self._reset_election_timer()
        self.network.send(
            self.node_id, src, ("vote_reply", self.current_term, granted)
        )

    def _on_vote_reply(self, src: int, term: int, granted: bool) -> None:
        if term > self.current_term:
            self._step_down(term)
            return
        if self.role != CANDIDATE or term != self.current_term:
            return
        if granted:
            self._votes.add(src)
            self._maybe_win()

    def _on_append_entries(
        self,
        src: int,
        term: int,
        leader: int,
        prev_index: int,
        prev_term: int,
        entries: List[Tuple[int, Any]],
        leader_commit: int,
    ) -> None:
        if term > self.current_term or (
            term == self.current_term and self.role != FOLLOWER
        ):
            self._step_down(term)
        if term < self.current_term:
            self.network.send(
                self.node_id,
                src,
                ("append_reply", self.current_term, False, 0),
            )
            return
        self.leader_id = leader
        self._reset_election_timer()
        # Consistency check (§5.3).
        if prev_index > self.last_log_index or (
            prev_index > 0 and self.term_at(prev_index) != prev_term
        ):
            self.network.send(
                self.node_id,
                src,
                ("append_reply", self.current_term, False, self.last_log_index),
            )
            return
        # Append, truncating conflicts.
        index = prev_index
        for entry_term, command in entries:
            index += 1
            if index <= self.last_log_index:
                if self.term_at(index) != entry_term:
                    del self.log[index - 1:]
                else:
                    continue
            self.log.append(LogEntry(entry_term, command))
        if leader_commit > self.commit_index:
            self.commit_index = min(leader_commit, self.last_log_index)
            self._apply_committed()
        self.network.send(
            self.node_id,
            src,
            ("append_reply", self.current_term, True, prev_index + len(entries)),
        )

    def _on_append_reply(
        self, src: int, term: int, success: bool, match: int
    ) -> None:
        if term > self.current_term:
            self._step_down(term)
            return
        if self.role != LEADER or term != self.current_term:
            return
        if success:
            self.match_index[src] = max(self.match_index.get(src, 0), match)
            self.next_index[src] = self.match_index[src] + 1
            self._advance_commit()
        else:
            # Back off and retry (follower's log is shorter/conflicting).
            hint = min(match + 1, max(1, self.next_index.get(src, 1) - 1))
            self.next_index[src] = hint
            self._send_append(src)

    # ------------------------------------------------------------------
    # Crash-stop
    # ------------------------------------------------------------------
    def crash(self) -> None:
        self.crashed = True
        self.role = FOLLOWER
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._election_timer is not None:
            self._election_timer.cancel()
            self._election_timer = None

    def recover(self) -> None:
        """Restart from persistent state (term, vote, log)."""
        self.crashed = False
        self.role = FOLLOWER
        self.leader_id = None
        self.commit_index = 0
        self.last_applied = 0
        self._reset_election_timer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RaftNode {self.node_id} {self.role} term={self.current_term} "
            f"log={self.last_log_index} commit={self.commit_index}>"
        )


class RaftGroup:
    """A Raft cluster of ``n`` nodes over one management network."""

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int = 3,
        delay_ns: int = 2_000,
        loss_rate: float = 0.0,
        apply_callback: Optional[Callable[[int, Any, int], None]] = None,
        election_timeout_ns: int = 150_000,
        heartbeat_interval_ns: int = 30_000,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.network = RaftNetwork(sim, delay_ns, loss_rate)
        ids = list(range(n_nodes))
        self.nodes = [
            RaftNode(
                sim,
                node_id,
                ids,
                self.network,
                apply_callback=(
                    (lambda cmd, idx, node_id=node_id: apply_callback(
                        node_id, cmd, idx
                    ))
                    if apply_callback
                    else None
                ),
                election_timeout_ns=election_timeout_ns,
                heartbeat_interval_ns=heartbeat_interval_ns,
            )
            for node_id in ids
        ]

    def leader(self) -> Optional[RaftNode]:
        leaders = [
            n for n in self.nodes if n.role == LEADER and not n.crashed
        ]
        if not leaders:
            return None
        # With partitions, stale leaders can coexist; highest term wins.
        return max(leaders, key=lambda n: n.current_term)

    def wait_for_leader_and(self, fn: Callable[[RaftNode], None]) -> None:
        """Poll until a leader exists, then call ``fn(leader)``."""
        leader = self.leader()
        if leader is not None:
            fn(leader)
        else:
            self.sim.schedule(10_000, self.wait_for_leader_and, fn)

    def propose(self, command: Any) -> bool:
        leader = self.leader()
        if leader is None:
            return False
        return leader.propose(command) is not None


class RaftReplicator:
    """Controller adapter: commit controller decisions through Raft.

    ``propose(entry, on_commit)`` retries until the entry is applied on
    the leader's state machine, then fires the callback — giving the
    controller the consensus-latency cost the paper's etcd store implies.
    """

    def __init__(self, group: RaftGroup) -> None:
        self.group = group
        self.sim = group.sim
        self._waiting: Dict[int, Callable[[], None]] = {}
        self._seq = 0
        for node in group.nodes:
            previous = node.apply_callback
            node.apply_callback = self._make_apply(node, previous)

    def _make_apply(self, node: RaftNode, previous):
        def apply(command: Any, index: int) -> None:
            if previous is not None:
                previous(command, index)
            if node.role == LEADER and isinstance(command, tuple):
                tag = command[0]
                if tag == "__ctrl":
                    callback = self._waiting.pop(command[1], None)
                    if callback is not None:
                        callback()

        return apply

    def propose(self, entry: Any, on_commit: Callable[[], None]) -> None:
        self._seq += 1
        seq = self._seq
        self._waiting[seq] = on_commit
        self._try_propose(seq, entry, attempts=0)

    def _try_propose(self, seq: int, entry: Any, attempts: int) -> None:
        if seq not in self._waiting:
            return
        leader = self.group.leader()
        if leader is None or leader.propose(("__ctrl", seq, entry)) is None:
            if attempts > 1000:  # pragma: no cover - runaway guard
                raise RuntimeError("raft replicator could not find a leader")
            self.sim.schedule(
                20_000, self._try_propose, seq, entry, attempts + 1
            )
