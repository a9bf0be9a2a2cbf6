"""Property suite for the closed-form flow model (repro.net.flow).

Three families, per the hyperscale design contract:

- congestion factor: >= 1 always, monotone in concurrency and in
  modeled scale, and its milli quantization is the exact ``round``;
- straggler factor: bounded in ``[1, 1 + STRAGGLER_CEILING]`` and
  scale-monotone;
- exactness anchor: the closed-form wave latency over an idle link
  equals the event-level beacon delivery time *to the nanosecond*,
  including degraded links — this is what lets the hybrid engine claim
  its cold beacon floors are lower-bounded by real link physics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import flow
from repro.net.link import Link
from repro.net.packet import BEACON_BYTES, Packet, PacketKind
from repro.net.switch import Node
from repro.net.topology import fat_tree_descriptor
from repro.sim import Simulator

CONCURRENCY = st.integers(min_value=0, max_value=100_000)
HOSTS = st.integers(min_value=0, max_value=2_000_000)


class TestCongestion:
    @given(concurrent=CONCURRENCY, n_hosts=HOSTS)
    def test_at_least_one(self, concurrent, n_hosts):
        assert flow.congestion_factor(concurrent, n_hosts) >= 1.0

    @given(concurrent=CONCURRENCY, n_hosts=HOSTS)
    def test_monotone_in_concurrency(self, concurrent, n_hosts):
        assert flow.congestion_factor(
            concurrent + 1, n_hosts
        ) >= flow.congestion_factor(concurrent, n_hosts)

    @given(
        concurrent=CONCURRENCY,
        smaller=HOSTS,
        growth=st.integers(min_value=1, max_value=500_000),
    )
    def test_monotone_in_scale(self, concurrent, smaller, growth):
        assert flow.congestion_factor(
            concurrent, smaller + growth
        ) >= flow.congestion_factor(concurrent, smaller)

    @given(concurrent=CONCURRENCY, n_hosts=HOSTS)
    def test_milli_is_exact_round(self, concurrent, n_hosts):
        assert flow.congestion_milli(concurrent, n_hosts) == round(
            flow.congestion_factor(concurrent, n_hosts) * 1000
        )

    def test_lone_flow_is_free_below_saturation(self):
        assert flow.congestion_factor(1, n_hosts=flow.SATURATION_HOSTS) == 1.0
        assert flow.congestion_factor(0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            flow.congestion_factor(-1)


class TestStraggler:
    @given(n_hosts=HOSTS)
    def test_bounded(self, n_hosts):
        factor = flow.straggler_factor(n_hosts)
        assert 1.0 <= factor <= 1.0 + flow.STRAGGLER_CEILING

    @given(n_hosts=HOSTS, growth=st.integers(min_value=1, max_value=500_000))
    def test_scale_monotone(self, n_hosts, growth):
        assert flow.straggler_factor(n_hosts + growth) >= flow.straggler_factor(
            n_hosts
        )

    @given(n_hosts=HOSTS)
    def test_milli_is_exact_round(self, n_hosts):
        assert flow.straggler_milli(n_hosts) == round(
            flow.straggler_factor(n_hosts) * 1000
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            flow.straggler_factor(-5)


class _Sink(Node):
    def __init__(self, sim, node_id="sink"):
        super().__init__(sim, node_id)
        self.arrivals = []

    def receive(self, packet, in_link):
        self.arrivals.append(self.sim.now)


def _beacon_link(sim, bandwidth_gbps, prop_delay_ns):
    src = _Sink(sim, "src")
    sink = _Sink(sim, "sink")
    return Link(
        sim, "src->sink", src, sink,
        bandwidth_gbps=bandwidth_gbps, prop_delay_ns=prop_delay_ns,
    ), sink


class TestClosedFormEqualsEventLevel:
    @settings(max_examples=40, deadline=None)
    @given(
        bandwidth_gbps=st.sampled_from([10, 25, 40, 80, 100, 400]),
        prop_delay_ns=st.integers(min_value=0, max_value=10_000),
        start_ns=st.integers(min_value=0, max_value=1_000_000),
    )
    def test_idle_link_beacon_exact(self, bandwidth_gbps, prop_delay_ns, start_ns):
        sim = Simulator(seed=1)
        link, sink = _beacon_link(sim, bandwidth_gbps, prop_delay_ns)
        predicted = flow.beacon_hop_ns(link)
        sim.schedule_at(
            start_ns, link.send, Packet(PacketKind.BEACON)
        )
        sim.run()
        assert sink.arrivals == [start_ns + predicted]

    @settings(max_examples=20, deadline=None)
    @given(
        bandwidth_factor=st.sampled_from([1.0, 0.5, 0.25, 0.1]),
        extra_delay_ns=st.integers(min_value=0, max_value=5_000),
    )
    def test_degraded_idle_link_beacon_exact(self, bandwidth_factor, extra_delay_ns):
        sim = Simulator(seed=1)
        link, sink = _beacon_link(sim, 100, 150)
        link.set_degradation(
            bandwidth_factor=bandwidth_factor, extra_delay_ns=extra_delay_ns
        )
        predicted = flow.beacon_hop_ns(link)
        link.send(Packet(PacketKind.BEACON))
        sim.run()
        assert sink.arrivals == [predicted]

    def test_idle_wave_chain_matches_event_level(self):
        """A beacon relayed across three idle links: the closed form
        (with per-boundary forwarding delay) equals the event-level
        arrival, hop for hop."""
        sim = Simulator(seed=1)
        forwarding_ns = 250
        links = []
        sinks = []
        for i, gbps in enumerate((100, 40, 100)):
            link, sink = _beacon_link(sim, gbps, 100 + 37 * i)
            links.append(link)
            sinks.append(sink)

        def relay(index):
            if index < len(links):
                links[index].send(Packet(PacketKind.BEACON))

        # Wire each sink to forward onto the next link after the switch
        # forwarding delay, event-level.
        for i, sink in enumerate(sinks[:-1]):
            nxt = i + 1

            def forward(packet, in_link, _n=nxt):
                sim.schedule(forwarding_ns, relay, _n)

            sink.receive = forward
        relay(0)
        sim.run()
        predicted = flow.idle_wave_latency_ns(
            links, forwarding_delay_ns=forwarding_ns
        )
        assert sinks[-1].arrivals == [predicted]

    def test_descriptor_wave_bound_composes_hop_forms(self):
        desc = fat_tree_descriptor(8)
        params = desc.params
        expected = (
            flow.beacon_wire_ns(params.host_link_gbps)
            + flow.beacon_wire_ns(params.fabric_link_gbps)
            + flow.beacon_wire_ns(params.fabric_link_gbps)
            + 3 * params.link_prop_delay_ns
            + 3 * params.forwarding_delay_ns
        )
        assert desc.beacon_wave_bound_ns() == expected

    def test_beacon_wire_matches_link_precompute(self):
        sim = Simulator(seed=1)
        link, _ = _beacon_link(sim, 100, 0)
        assert flow.beacon_wire_ns(100) == link._beacon_ser_ns
        assert BEACON_BYTES > 0
