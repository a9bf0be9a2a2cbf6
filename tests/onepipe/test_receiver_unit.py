"""Unit tests for the receiver: assembly, dedup, NAKs, buffer stats."""

import pytest

from repro.net.packet import Packet, PacketKind
from repro.onepipe.config import OnePipeConfig
from repro.onepipe.receiver import ProcessReceiver
from repro.sim import Simulator


class _StubHost:
    """Collects the receiver's outgoing control packets (ACK/NAK)."""

    def __init__(self) -> None:
        self.sent = []

    def send_packet(self, packet):
        self.sent.append(packet)
        return True


class _StubAgent:
    def __init__(self, sim):
        self.sim = sim
        self.host = _StubHost()


@pytest.fixture()
def rig():
    """A standalone receiver: no cluster barriers, synchronous delivery
    (cpu cost 0) so assertions can run without stepping the simulator."""
    sim = Simulator(seed=1)
    agent = _StubAgent(sim)
    config = OnePipeConfig(cpu_ns_per_msg=0)
    receiver = ProcessReceiver(agent, proc_id=1, config=config)
    delivered = []
    receiver.deliver_callback = (
        lambda ts, src, payload, reliable: delivered.append(
            (ts, src, payload, reliable)
        )
    )
    return sim, receiver, delivered


def data_packet(ts, src=0, msg_id=1, psn=0, n_frags=1, last=True,
                payload="p", kind=PacketKind.DATA, size=64):
    return Packet(
        kind,
        src=src,
        dst=1,
        src_host="h0",
        dst_host="h1",
        msg_ts=ts,
        psn=psn,
        msg_id=msg_id,
        last_frag=last,
        payload_bytes=size,
        payload=payload if last else None,
        meta={"n_frags": n_frags},
    )


class TestAssembly:
    def test_single_fragment_buffers_and_delivers_on_barrier(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=100))
        assert delivered == []
        receiver.flush(be_barrier=101, commit_barrier=101)
        assert delivered == [(100, 0, "p", False)]

    def test_fragments_out_of_order_assemble(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(
            data_packet(ts=50, psn=2, n_frags=3, last=True)
        )
        receiver.on_data_packet(
            data_packet(ts=50, psn=0, n_frags=3, last=False)
        )
        assert receiver.arrivals == 0  # incomplete
        receiver.on_data_packet(
            data_packet(ts=50, psn=1, n_frags=3, last=False)
        )
        assert receiver.arrivals == 1
        receiver.flush(51, 51)
        assert len(delivered) == 1

    def test_duplicate_fragment_ignored(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=50, psn=0, n_frags=2, last=False))
        receiver.on_data_packet(data_packet(ts=50, psn=0, n_frags=2, last=False))
        assert receiver.arrivals == 0

    def test_strict_barrier_gate(self, rig):
        """A message with ts == barrier is NOT deliverable (strict <)."""
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=100))
        receiver.flush(be_barrier=100, commit_barrier=100)
        assert delivered == []
        receiver.flush(be_barrier=101, commit_barrier=101)
        assert len(delivered) == 1


class TestDedupAndLateness:
    def test_duplicate_message_reacked_not_redelivered(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=10, msg_id=7))
        receiver.flush(11, 11)
        receiver.on_data_packet(data_packet(ts=10, msg_id=7))  # rtx dup
        receiver.flush(12, 12)
        assert len(delivered) == 1
        assert receiver.duplicates == 1

    def test_buffered_duplicate_not_requeued(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=10, msg_id=7))
        receiver.on_data_packet(data_packet(ts=10, msg_id=7))
        receiver.flush(11, 11)
        assert len(delivered) == 1
        assert receiver.duplicates == 1

    def test_late_arrival_naked(self, rig):
        sim, receiver, delivered = rig
        receiver.flush(be_barrier=1000, commit_barrier=1000)
        receiver.on_data_packet(data_packet(ts=500, msg_id=9))
        assert receiver.late_naks == 1
        receiver.flush(2000, 2000)
        assert delivered == []

    def test_reliable_gated_by_commit_barrier_only(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(
            data_packet(ts=100, kind=PacketKind.RDATA)
        )
        receiver.flush(be_barrier=500, commit_barrier=50)
        assert delivered == []  # prepared, not committed
        receiver.flush(be_barrier=500, commit_barrier=101)
        assert len(delivered) == 1
        assert delivered[0][3] is True

    def test_merged_order_be_blocked_behind_uncommitted_reliable(self, rig):
        """Merged order: a best-effort message must not overtake an
        uncommitted reliable message with a smaller timestamp."""
        sim, receiver, delivered = rig
        receiver.on_data_packet(
            data_packet(ts=100, msg_id=1, kind=PacketKind.RDATA)
        )
        receiver.on_data_packet(data_packet(ts=200, msg_id=2))
        receiver.flush(be_barrier=300, commit_barrier=50)
        assert delivered == []  # BE@200 waits behind R@100
        receiver.flush(be_barrier=300, commit_barrier=150)
        assert [d[0] for d in delivered] == [100]  # BE@200 still gated
        receiver.flush(be_barrier=300, commit_barrier=201)
        assert [d[0] for d in delivered] == [100, 200]


class TestFailureDiscards:
    def test_discard_from_cutoff(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=100, msg_id=1))
        receiver.on_data_packet(data_packet(ts=300, msg_id=2))
        discarded = receiver.discard_from(failed_proc=0, failure_ts=200)
        assert discarded == 1
        assert receiver.discarded_on_failure == 1
        receiver.flush(1000, 1000)
        assert [d[0] for d in delivered] == [100]

    def test_discard_from_counts_assembling(self, rig):
        """Regression: in-flight partial messages beyond the cutoff are
        deleted by discard_from but were missing from the statistic."""
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=300, msg_id=2))  # buffered
        receiver.on_data_packet(  # still assembling (1 of 2 fragments)
            data_packet(ts=400, msg_id=3, psn=0, n_frags=2, last=False)
        )
        receiver.on_data_packet(  # assembling, but before the cutoff
            data_packet(ts=100, msg_id=4, psn=0, n_frags=2, last=False)
        )
        discarded = receiver.discard_from(failed_proc=0, failure_ts=200)
        assert discarded == 2  # the buffered one and the assembling one
        assert receiver.discarded_on_failure == 2
        # The pre-cutoff assembling message survives and can complete.
        receiver.on_data_packet(
            data_packet(ts=100, msg_id=4, psn=1, n_frags=2, last=True)
        )
        receiver.flush(1000, 1000)
        assert [d[0] for d in delivered] == [100]

    def test_arrivals_beyond_cutoff_dropped(self, rig):
        sim, receiver, delivered = rig
        receiver.discard_from(failed_proc=0, failure_ts=200)
        receiver.on_data_packet(data_packet(ts=250, msg_id=3))
        receiver.flush(1000, 1000)
        assert delivered == []

    def test_discard_message_tombstone(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=100, msg_id=5))
        assert receiver.discard_message(0, 5) is True
        receiver.flush(1000, 1000)
        assert delivered == []

    def test_discard_already_delivered_returns_false(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=100, msg_id=5))
        receiver.flush(101, 101)
        assert receiver.discard_message(0, 5) is False


class TestDeliveredIdPruning:
    """Regression: the delivered-id GC horizon must trail the *slower*
    barrier.  When the commit barrier lags the best-effort one (a gray
    link stalling the reliable plane), a horizon computed from
    ``_be_floor`` alone forgets a delivered reliable message whose
    retransmissions are still in flight — the retransmission is then
    NAKed as "late" instead of re-ACKed as a duplicate, telling the
    sender a committed-and-delivered message failed."""

    def test_prune_keeps_ids_above_lagging_commit_floor(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(
            data_packet(ts=100, msg_id=7, kind=PacketKind.RDATA)
        )
        # Best-effort barrier races ahead; commit barrier lags at 150.
        receiver.flush(be_barrier=1_000_000, commit_barrier=150)
        assert len(delivered) == 1
        receiver._prune_delivered(0)
        # ack_timeout_ns=50_000: a be-only horizon (1_000_000 - 500_000)
        # would have pruned ts=100; min(be, commit) keeps it.
        assert 7 in receiver._delivered_ids[0]
        # The retransmission (its ACK was lost) must be re-ACKed.
        receiver.on_data_packet(
            data_packet(ts=100, msg_id=7, kind=PacketKind.RDATA)
        )
        assert receiver.duplicates == 1
        assert receiver.late_naks == 0
        assert receiver.agent.host.sent[-1].kind == PacketKind.ACK
        receiver.flush(be_barrier=1_000_000, commit_barrier=1_000_000)
        assert len(delivered) == 1  # not delivered twice

    def test_prune_still_forgets_ancient_ids(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=100, msg_id=7))
        receiver.flush(be_barrier=200, commit_barrier=200)
        assert len(delivered) == 1
        # Both floors far past the message + 10x ack timeout.
        receiver.flush(be_barrier=2_000_000, commit_barrier=2_000_000)
        receiver._prune_delivered(0)
        assert 7 not in receiver._delivered_ids[0]


class TestControlReplies:
    def test_ack_emitted_on_assembly(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=10, msg_id=4))
        sent = receiver.agent.host.sent
        assert len(sent) == 1
        assert sent[0].kind == PacketKind.ACK
        assert sent[0].payload == ("ack", 4, False)
        assert sent[0].dst_host == "h0"

    def test_ack_echoes_ecn(self, rig):
        sim, receiver, delivered = rig
        pkt = data_packet(ts=10, msg_id=4)
        pkt.ecn = True
        receiver.on_data_packet(pkt)
        assert receiver.agent.host.sent[0].payload == ("ack", 4, True)

    def test_nak_emitted_for_late_message(self, rig):
        sim, receiver, delivered = rig
        receiver.flush(1000, 1000)
        receiver.on_data_packet(data_packet(ts=10, msg_id=4))
        sent = receiver.agent.host.sent
        assert len(sent) == 1
        assert sent[0].kind == PacketKind.NAK
        assert sent[0].payload == ("nak", 4)

    def test_no_ack_until_assembly_completes(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(
            data_packet(ts=10, msg_id=4, psn=0, n_frags=2, last=False)
        )
        assert receiver.agent.host.sent == []
        receiver.on_data_packet(
            data_packet(ts=10, msg_id=4, psn=1, n_frags=2, last=True)
        )
        assert len(receiver.agent.host.sent) == 1


class TestBufferAccounting:
    def test_buffer_bytes_tracked(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=10, msg_id=1, size=500))
        receiver.on_data_packet(data_packet(ts=20, msg_id=2, size=300))
        assert receiver.buffer_bytes == 800
        assert receiver.max_buffer_bytes == 800
        receiver.flush(15, 15)
        assert receiver.buffer_bytes == 300
        assert receiver.max_buffer_bytes == 800


class TestStrictMergeGate:
    """Best-effort delivery must also wait for the commit barrier, since
    the two services present one merged total order: a reliable message
    lost on a gray link and still retransmitting is invisible to the
    reorder buffer, and only the commit barrier proves nothing reliable
    below a timestamp can still arrive (found by the chaos campaign)."""

    def test_best_effort_waits_for_commit_floor(self, rig):
        sim, receiver, delivered = rig
        receiver.on_data_packet(data_packet(ts=200))
        receiver.flush(be_barrier=300, commit_barrier=150)
        assert delivered == []  # a reliable msg below 200 may still come
        receiver.flush(be_barrier=300, commit_barrier=250)
        assert [(ts, r) for ts, _s, _p, r in delivered] == [(200, False)]
