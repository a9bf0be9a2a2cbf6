"""Tests for DCTCP congestion control, send windows and background flows."""

import pytest

from repro.net import BackgroundFlow, SendWindow, TransportParams
from repro.net.transport import DctcpState
from repro.sim import Simulator
from tests.instruments import build_single_rack


class TestDctcp:
    def test_additive_increase_without_marks(self):
        state = DctcpState(TransportParams(init_cwnd=4.0))
        start = state.cwnd
        for _ in range(4):  # one full window of clean ACKs
            state.on_ack(False)
        assert state.cwnd == start + 1

    def test_marked_window_cuts_cwnd(self):
        params = TransportParams(init_cwnd=16.0)
        state = DctcpState(params)
        for _ in range(16):
            state.on_ack(True)  # 100% marked
        # alpha jumps to g*1; cwnd reduced by alpha/2.
        assert state.cwnd < 16.0
        assert state.alpha > 0

    def test_alpha_converges_toward_mark_fraction(self):
        state = DctcpState(TransportParams(init_cwnd=10.0, max_cwnd=10.0))
        for _ in range(400):
            state.on_ack(True)
        assert state.alpha > 0.9

    def test_cwnd_bounds(self):
        params = TransportParams(init_cwnd=4.0, min_cwnd=2.0, max_cwnd=6.0)
        state = DctcpState(params)
        for _ in range(100):
            state.on_ack(False)
        assert state.cwnd <= 6.0
        for _ in range(2000):
            state.on_ack(True)
        assert state.cwnd >= 2.0

    def test_timeout_backoff(self):
        state = DctcpState(TransportParams(init_cwnd=32.0, min_cwnd=2.0))
        state.on_timeout()
        assert state.cwnd == 16.0


class TestSendWindow:
    def test_reserve_launch_ack_cycle(self):
        win = SendWindow(TransportParams(init_cwnd=4.0, receive_window=4))
        assert win.available() == 4
        assert win.reserve(3) is True
        assert win.available() == 1
        win.launch(3)
        assert win.in_flight == 3
        win.on_ack(False)
        assert win.in_flight == 2

    def test_reserve_fails_when_exhausted(self):
        win = SendWindow(TransportParams(init_cwnd=4.0, receive_window=4))
        assert win.reserve(4) is True
        assert win.reserve(1) is False

    def test_launch_more_than_reserved_rejected(self):
        win = SendWindow(TransportParams())
        win.reserve(2)
        with pytest.raises(ValueError):
            win.launch(3)

    def test_receive_window_caps_cwnd(self):
        win = SendWindow(TransportParams(init_cwnd=100.0, receive_window=8))
        assert win.limit() == 8


class TestBackgroundFlow:
    def test_flow_makes_progress_and_respects_window(self):
        sim = Simulator()
        topo, hosts = build_single_rack(sim, n_hosts=2)
        flow = BackgroundFlow(sim, hosts[0], hosts[1])
        flow.start()
        sim.run(until=2_000_000)  # 2 ms
        assert flow.packets_acked > 100
        assert flow.in_flight <= int(flow.dctcp.cwnd) + 1

    def test_competing_flows_fill_bottleneck(self):
        sim = Simulator()
        # Small queue so ECN kicks in.
        topo, hosts = build_single_rack(
            sim, n_hosts=3, ecn_threshold_bytes=30_000
        )
        flows = [
            BackgroundFlow(sim, hosts[0], hosts[2]),
            BackgroundFlow(sim, hosts[1], hosts[2]),
        ]
        for flow in flows:
            flow.start()
        sim.run(until=3_000_000)
        # Both flows progress (fair-ish sharing via DCTCP).
        assert all(f.packets_acked > 50 for f in flows)
        # ECN must have engaged at the shared downlink.
        downlink = hosts[2].downlink
        assert downlink.ecn_marked > 0

    def test_stop_halts_flow(self):
        sim = Simulator()
        topo, hosts = build_single_rack(sim, n_hosts=2)
        flow = BackgroundFlow(sim, hosts[0], hosts[1])
        flow.start()
        sim.run(until=500_000)
        flow.stop()
        acked = flow.packets_acked
        sim.run(until=1_500_000)
        # In-flight drains but no new packets are emitted.
        assert flow.packets_acked <= acked + int(flow.dctcp.cwnd) + 1
