"""Tests for FIFO links: delay, queuing, drops, ECN, loss, failure."""

import pytest

from repro.net.link import Link
from repro.net.packet import HEADER_OVERHEAD_BYTES, Packet, PacketKind
from repro.net.switch import Node
from repro.sim import Simulator


class Sink(Node):
    """Records delivered packets with their arrival times."""

    def __init__(self, sim, node_id="sink"):
        super().__init__(sim, node_id)
        self.received = []

    def receive(self, packet, in_link):
        self.received.append((self.sim.now, packet))


def make_link(sim, sink, **kwargs):
    src = Sink(sim, "src")
    defaults = dict(
        bandwidth_gbps=80.0,  # 10 bytes/ns: easy math
        prop_delay_ns=100,
        queue_capacity_bytes=None,
        ecn_threshold_bytes=None,
    )
    defaults.update(kwargs)
    return Link(sim, "src->sink", src, sink, **defaults)


def data_packet(payload=1000 - HEADER_OVERHEAD_BYTES):
    return Packet(PacketKind.DATA, payload_bytes=payload)


def test_single_packet_delay_is_serialization_plus_propagation():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink)
    link.send(data_packet())  # 1000 wire bytes / 10 B-per-ns = 100ns ser
    sim.run()
    assert [t for t, _ in sink.received] == [200]  # 100 ser + 100 prop


def test_fifo_back_to_back_queuing():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink)
    for _ in range(3):
        link.send(data_packet())
    sim.run()
    times = [t for t, _ in sink.received]
    assert times == [200, 300, 400]  # each queues behind the previous


def test_fifo_order_preserved():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink)
    packets = [data_packet() for _ in range(10)]
    for pkt in packets:
        link.send(pkt)
    sim.run()
    assert [p.pkt_id for _, p in sink.received] == [p.pkt_id for p in packets]


def test_idle_link_resets_serialization_start():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink)
    link.send(data_packet())
    sim.run()
    # Much later, send another: no queuing behind the old one.
    sim.schedule(10_000 - sim.now, lambda: None)
    sim.run()
    link.send(data_packet())
    sim.run()
    assert sink.received[-1][0] == 10_000 + 200


def test_tail_drop_when_queue_full():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, queue_capacity_bytes=2500)
    results = [link.send(data_packet()) for _ in range(4)]
    assert results == [True, True, False, False]  # 2x1000B fit, rest drop
    sim.run()
    assert len(sink.received) == 2
    assert link.dropped_overflow == 2


def test_backlog_drains_and_accepts_again():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, queue_capacity_bytes=2500)
    link.send(data_packet())
    link.send(data_packet())
    assert link.send(data_packet()) is False
    sim.run()
    assert link.queue_bytes == 0
    assert link.send(data_packet()) is True


def test_ecn_marking_above_threshold():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink, ecn_threshold_bytes=1500)
    p1, p2, p3 = data_packet(), data_packet(), data_packet()
    link.send(p1)  # backlog 0 at enqueue: unmarked
    link.send(p2)  # backlog 1000: unmarked
    link.send(p3)  # backlog 2000 > 1500: marked
    sim.run()
    assert (p1.ecn, p2.ecn, p3.ecn) == (False, False, True)
    assert link.ecn_marked == 1


def test_corruption_loss_rate_statistics():
    sim = Simulator(seed=5)
    sink = Sink(sim)
    link = make_link(sim, sink, loss_rate=0.3)
    n = 2000
    for _ in range(n):
        link.send(Packet(PacketKind.DATA, payload_bytes=0))
    sim.run()
    delivered = len(sink.received)
    assert delivered == n - link.dropped_corruption
    assert 0.6 * n < delivered < 0.8 * n  # ~70% expected


def test_failed_link_discards_silently():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink)
    link.fail()
    assert link.send(data_packet()) is False
    sim.run()
    assert sink.received == []
    assert link.dropped_down == 1
    link.recover()
    assert link.send(data_packet()) is True
    sim.run()
    assert len(sink.received) == 1


def test_link_down_kills_in_flight_packets():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink)
    link.send(data_packet())
    sim.schedule(150, link.fail)  # packet arrives at 200
    sim.run()
    assert sink.received == []


def test_stats_counters():
    sim = Simulator()
    sink = Sink(sim)
    link = make_link(sim, sink)
    link.send(data_packet())
    sim.run()
    assert link.tx_packets == 1
    assert link.tx_bytes == 1000
    assert link.last_tx_time == 0


def test_invalid_parameters_rejected():
    sim = Simulator()
    sink = Sink(sim)
    with pytest.raises(ValueError):
        make_link(sim, sink, bandwidth_gbps=0)
    with pytest.raises(ValueError):
        make_link(sim, sink, prop_delay_ns=-5)
    with pytest.raises(ValueError):
        make_link(sim, sink, loss_rate=1.5)
    link = make_link(sim, sink)
    with pytest.raises(ValueError):
        link.set_loss_rate(-0.1)


class TestDegradationValidation:
    def test_rejects_nonpositive_bandwidth_factor(self):
        sim = Simulator()
        link = make_link(sim, Sink(sim))
        for bad in (0.0, -0.5):
            with pytest.raises(ValueError):
                link.set_degradation(bandwidth_factor=bad)

    def test_rejects_negative_extra_delay(self):
        sim = Simulator()
        link = make_link(sim, Sink(sim))
        with pytest.raises(ValueError):
            link.set_degradation(extra_delay_ns=-1)

    def test_rejected_call_leaves_link_nominal(self):
        sim = Simulator()
        sink = Sink(sim)
        link = make_link(sim, sink)
        with pytest.raises(ValueError):
            link.set_degradation(bandwidth_factor=-1.0)
        assert not link.degraded
        link.send(data_packet())
        sim.run()
        assert [t for t, _ in sink.received] == [200]

    def test_burst_loss_rejects_out_of_range_probabilities(self):
        sim = Simulator()
        link = make_link(sim, Sink(sim))
        for args in ((1.5, 0.5), (0.5, -0.1), (0.5, 0.5, 2.0)):
            with pytest.raises(ValueError):
                link.set_burst_loss(*args)
