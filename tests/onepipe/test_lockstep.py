"""Wave-granular fabric state (repro.onepipe.analytic, "Lockstep
egress" / "Bound ingress"): owed per-link accounting is invisible.

A locked switch *owes* its out-links their send accounting, so every
reader and every disturber of that state is a hook that settles or
unlocks first.  Three angles:

- a Hypothesis sequence test drives the ToR-down switch of one rack
  (2-16 out-links) through random interleavings of everything that can
  meet a lock, and compares per-link statistics, queue state, read
  results and per-host barrier sequences with the same script on
  event-level beacon packets (tests/reference.py);
- one test per hook, which fails when that hook is removed, and one
  for the assignment that is deliberately not a hook (a drop filter);
- the two regressions the prototype met: ``lockstep_waves`` counts on a
  clean run, and a relay swallowed by a crashed switch drops its engine
  off the fast ingress (``_cascade_fire``'s early return).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.topology import build_fat_tree, fat_tree_descriptor
from repro.onepipe.cluster import OnePipeCluster
from repro.onepipe.config import MODE_CHIP, MODE_SWITCH_CPU, OnePipeConfig
from repro.sim import Simulator
from tests.instruments import build_single_rack
from tests.reference import on_packet_beacons

RAW_BYTES = (0, 400, 1400)


def _beacons_with_even_barrier(packet):
    return packet.kind == PacketKind.BEACON and packet.barrier_ts % 2 == 0


def _rack(n_hosts, mode=MODE_CHIP):
    sim = Simulator(seed=5)
    topo, hosts = build_single_rack(sim, n_hosts=n_hosts)
    cluster = OnePipeCluster(
        sim, n_processes=n_hosts, config=OnePipeConfig(mode=mode),
        topology=topo,
    )
    switch = hosts[0].downlink.src
    assert switch.out_links == [host.downlink for host in hosts]
    return sim, cluster, switch


def _record_flushes(sim, cluster):
    """Every agent flush as ``(instant, host, be, commit)`` — the one
    place both beacon transports hand a host its barriers."""
    flushes = []
    for host_id, agent in sorted(cluster.agents.items()):
        flush = agent._flush

        def recording_flush(host_id=host_id, agent=agent, flush=flush):
            flushes.append(
                (sim.now, host_id, agent.rx_be_barrier, agent.rx_commit_barrier)
            )
            flush()

        agent._flush = recording_flush
    return flushes


def _apply(op, switch, engine, reads):
    """One scripted step against the ToR-down switch."""
    kind, index, arg = op
    links = switch.out_links
    link = links[index % len(links)]
    if kind == "wave":
        engine._emit_beacons(links)
    elif kind == "partial":
        engine._emit_beacons(links[: 1 + index % len(links)])
    elif kind == "data":
        link.send(Packet(PacketKind.RAW, payload_bytes=RAW_BYTES[arg % 3]))
    elif kind == "fail":
        link.fail()
    elif kind == "recover":
        link.recover()
    elif kind == "degrade":
        link.set_degradation(1.0 / (1 + arg % 3), 25 * (arg % 4))
    elif kind == "clear":
        link.clear_degradation()
    elif kind == "filter":
        link.drop_filter = _beacons_with_even_barrier
    elif kind == "unfilter":
        link.drop_filter = None
    elif kind == "queue":
        reads.append(("queue", link.name, link.queue_bytes))
    elif kind == "stats":
        reads.append(
            ("stats", link.name, link.tx_packets, link.tx_bytes,
             link.last_tx_time)
        )
    elif kind == "crash":
        switch.crash()
    elif kind == "revive":
        switch.recover()
    else:  # pragma: no cover - strategy and dispatcher out of step
        raise AssertionError(kind)


def _run_script(n_hosts, mode, script):
    """Run ``script`` ([(gap_ns, op)]) against one rack; every
    observable a lock could distort."""
    sim, cluster, switch = _rack(n_hosts, mode)
    engine = switch.engine
    reads = []
    flushes = _record_flushes(sim, cluster)
    # Past the switch-CPU incarnation's first relayed wave (five hops
    # through the spine and core at 10 us each), so every script meets
    # a rack that is already locked.
    at = 70_000
    for gap_ns, op in script:
        at += gap_ns
        sim.post_at(at, _apply, op, switch, engine, reads)
    sim.run(until=at + 25_000)
    links = switch.out_links
    return {
        "reads": reads,
        # Sorted: hosts flushing at one instant are independent, and a
        # beacon packet is its own event, so their order within the
        # instant is not part of the contract.
        "flushes": sorted(flushes),
        # tx_packets first: it settles, so the raw fields after it are
        # what an eager run would hold.
        "links": [
            (l.tx_packets, l.tx_bytes, l.last_tx_time, l.dropped_down,
             l.dropped_overflow, l.dropped_corruption, l.ecn_marked,
             l._busy_until, l._backlog_bytes, list(l._backlog_fifo))
            for l in links
        ],
        "hosts": [
            (l.dst.rx_packets, l.dst.onepipe_agent.rx_be_barrier)
            for l in links
        ],
        "beacons": cluster.total_beacons(),
        "lockstep_waves": getattr(cluster.fabric, "lockstep_waves", None),
    }


_OPS = st.tuples(
    st.sampled_from([
        "wave", "wave", "partial", "data", "data", "fail", "recover",
        "degrade", "clear", "filter", "unfilter", "queue", "stats",
        "crash", "revive",
    ]),
    st.integers(0, 15),
    st.integers(0, 11),
)
# Gaps straddle the 6 ns beacon serialization time (a wave can meet the
# previous one still on the wire) and the 3 us beacon interval.
_SCRIPT = st.lists(
    st.tuples(st.sampled_from([0, 1, 5, 7, 60, 700, 2_900, 4_100]), _OPS),
    min_size=4, max_size=24,
)


@settings(max_examples=200, deadline=None)
@given(
    n_hosts=st.integers(2, 16),
    mode=st.sampled_from([MODE_CHIP, MODE_SWITCH_CPU]),
    script=_SCRIPT,
)
def test_any_interleaving_matches_packet_beacons(n_hosts, mode, script):
    fabric = _run_script(n_hosts, mode, script)
    reference = on_packet_beacons(_run_script, n_hosts, mode, script)
    lockstep_waves = fabric.pop("lockstep_waves")
    assert reference.pop("lockstep_waves") is None
    assert fabric == reference
    assert fabric["flushes"], "the rack must actually move barriers"
    if mode == MODE_CHIP:
        # The script starts on a rack that has been relaying host waves
        # for 70 us.  (The CPU incarnations relay a wave per processing
        # window and keep-alive in between — partial emissions, which
        # unlock — so there only scripted waves are sure to lock.)
        assert lockstep_waves > 0


# ----------------------------------------------------------------------
# One test per hook
# ----------------------------------------------------------------------
def _locked_rack():
    """A rack whose ToR-down switch is locked and owes waves."""
    sim, cluster, switch = _rack(4)
    sim.run(until=20_000)
    lock = switch._lockstep
    assert lock is not None and lock.owed > 0
    return sim, cluster, switch, lock


def _attach_spare_link(link):
    switch = link.src
    spare = Link(link.sim, "spare", switch, link.dst)
    switch.attach_out_link(spare)


# action(link) -> None, and what it must do to the lock: release it (a
# disturbance), settle it (a read), or nothing (a drop filter acts at
# delivery only, which the lock does not owe).
_HOOKS = {
    "send": (
        lambda link: link.send(Packet(PacketKind.RAW, payload_bytes=400)),
        "unlock",
    ),
    "fail": (Link.fail, "unlock"),
    "set_degradation": (
        lambda link: link.set_degradation(0.5, 10), "unlock"
    ),
    "clear_degradation": (Link.clear_degradation, "unlock"),
    "drop_filter": (
        lambda link: setattr(link, "drop_filter", lambda packet: False),
        None,
    ),
    "attach_out_link": (_attach_spare_link, "unlock"),
    # Draining retires the serialized beacon the lock's shape stands on.
    "queue_bytes": (lambda link: link.queue_bytes, "unlock"),
    "tx_packets": (lambda link: link.tx_packets, "settle"),
    "tx_bytes": (lambda link: link.tx_bytes, "settle"),
    "last_tx_time": (lambda link: link.last_tx_time, "settle"),
}


@pytest.mark.parametrize("hook", sorted(_HOOKS))
def test_hook_settles_owed_accounting(hook):
    action, effect = _HOOKS[hook]
    sim, _cluster, switch, lock = _locked_rack()
    owed, last = lock.owed, lock.last
    links = list(switch.out_links)
    before = [link._tx_packets for link in links]
    action(links[1])
    if effect is None:
        assert switch._lockstep is lock and lock.owed == owed > 0
        assert [link._tx_packets for link in links] == before
        return
    assert lock.owed == 0
    # Every link of the fleet is settled, not only the one touched
    # (links[0] is never the touched one, so its counters are exact).
    assert links[0]._tx_packets == before[0] + owed
    assert links[0]._last_tx_time == last
    assert links[0]._busy_until == last + links[0]._beacon_ser_ns
    assert (switch._lockstep is None) == (effect == "unlock")


def _filtered_rack():
    """A locked rack whose downlinks gain a dropping and a passing
    filter mid-run."""
    sim, cluster, switch = _rack(4)
    flushes = _record_flushes(sim, cluster)
    sim.run(until=20_000)
    links = switch.out_links
    links[1].drop_filter = lambda packet: packet.kind == PacketKind.BEACON
    links[2].drop_filter = lambda packet: False
    waves = getattr(cluster.fabric, "lockstep_waves", None)
    sim.run(until=60_000)
    return {
        "flushes": sorted(flushes),
        "links": [
            (l.tx_packets, l.last_tx_time, l.dropped_corruption,
             l._busy_until, l._backlog_bytes)
            for l in links
        ],
        "beacons": cluster.total_beacons(),
        "locked_waves": (
            None if waves is None
            else (switch._lockstep is not None,
                  cluster.fabric.lockstep_waves - waves)
        ),
    }


def test_drop_filter_keeps_the_lock_and_matches_packet_beacons():
    fabric = _filtered_rack()
    reference = on_packet_beacons(_filtered_rack)
    locked, waves = fabric.pop("locked_waves")
    assert reference.pop("locked_waves") is None
    assert fabric == reference
    assert locked and waves > 0, "filtered links must not unlock the rack"
    assert fabric["links"][1][2] > 0, "the dropping filter must drop"


def test_partial_emission_unlocks():
    sim, cluster, switch, lock = _locked_rack()
    owed = lock.owed
    link = switch.out_links[1]
    before = link._tx_packets
    cluster.fabric.emit([link], 1, 1, 0)
    assert switch._lockstep is None and lock.owed == 0
    assert link._tx_packets == before + owed + 1
    assert link._last_tx_time == sim.now


def test_wave_on_busy_wire_is_replayed_link_by_link():
    """A second full-fleet emission before the previous beacon has
    serialized queues behind it: not an idle cycle, so not owed."""
    sim, cluster, switch, lock = _locked_rack()
    engine = switch.engine
    waves = cluster.fabric.lockstep_waves
    engine._send_beacons(switch.out_links, 1, 1)
    assert cluster.fabric.lockstep_waves == waves + 1
    engine._send_beacons(switch.out_links, 1, 1)  # same instant
    assert cluster.fabric.lockstep_waves == waves + 1
    assert switch._lockstep is None
    link = switch.out_links[0]
    assert len(link._backlog_fifo) == 2
    assert link._busy_until == sim.now + 2 * link._beacon_ser_ns


def test_hosts_never_lock():
    """The host NIC path replays its uplink without consulting a lock,
    so not even a full-fleet emission of a host's one link takes one."""
    sim, cluster, _switch, _lock = _locked_rack()
    host = cluster.endpoint(0).agent.host
    cluster.fabric.emit(host.out_links, 1, 1, 0)
    assert host._lockstep is None
    assert all(
        agent.host._lockstep is None for agent in cluster.agents.values()
    )


def test_lockstep_waves_on_clean_k4():
    sim = Simulator(seed=3)
    topo = build_fat_tree(sim, fat_tree_descriptor(4, hosts_per_tor=2).params)
    cluster = OnePipeCluster(sim, n_processes=8, topology=topo)
    sim.run(until=100_000)
    fabric = cluster.fabric
    assert 0 < fabric.lockstep_waves
    # Owed or written, a beacon is counted once: an idle cluster's
    # links carry nothing else.
    assert fabric.virtual_beacons == sum(
        link.tx_packets for link in topo.links.values()
    )


# ----------------------------------------------------------------------
# Bound ingress: the relay a crashed switch swallowed
# ----------------------------------------------------------------------
def _swallowed_relay(crash_offset_ns):
    """Crash ``tor0.0.up`` between a cascade trigger and its relay, one
    in-link lagging the others so the next wave arrives in two steps."""
    sim, cluster, down = _rack(4)
    up = cluster.topology.switches[down.node_id.replace(".down", ".up")]
    engine = up.engine
    fires = []
    fire = engine._cascade_fire

    def recording_fire():
        fires.append(sim.now)
        fire()

    engine._cascade_fire = recording_fire
    flushes = _record_flushes(sim, cluster)
    # The laggard is the host whose register holds the minimum: the
    # wave after the crash then reaches the engine with every other
    # register raised first and the minimum's holder last.
    sim.run(until=30_000)
    values = engine.be._values
    laggard = up.in_links[values.index(min(values))]
    laggard.set_degradation(1.0, 40)
    sim.run(until=40_000)
    if crash_offset_ns is not None:
        # The relay fires cascade_settle_ns (100) after its trigger.
        next_fire = fires[-1] + 3_000
        sim.post_at(next_fire + crash_offset_ns, up.crash)
        sim.post_at(next_fire + 300, up.recover)
    sim.run(until=80_000)
    return {
        "flushes": flushes,
        "fires": fires,
        "beacons": cluster.total_beacons(),
        "fp": engine._fp,
    }


def test_swallowed_relay_drops_engine_off_fast_ingress():
    fabric = _swallowed_relay(-1)
    reference = on_packet_beacons(_swallowed_relay, -1)
    fp = fabric.pop("fp")
    reference.pop("fp")
    assert fabric == reference
    assert fp is False
    # The crash really swallowed a relay (one fire fewer than an
    # undisturbed run up to the same instant would not show it: the
    # engine catches up; the trace differs instead).
    assert fabric["flushes"] != _swallowed_relay(None)["flushes"]


# ----------------------------------------------------------------------
# Whole episodes: locks meeting real fault schedules
# ----------------------------------------------------------------------
# Campaign seed 1, two episodes per incarnation, and the fault kinds of
# each schedule that meet a lock or an unclean link.
_EPISODE_FAULTS = {
    0: {"burst_loss", "degrade_link", "switch_flap"},
    1: {"degrade_link", "link_flap"},
    2: {"burst_loss", "switch_flap"},
    3: {"switch_flap"},
    4: {"burst_loss", "degrade_link", "link_flap"},
    5: {"link_flap"},
}


@pytest.mark.parametrize("index", sorted(_EPISODE_FAULTS))
def test_chaos_episode_identity(index):
    """The full episode report (monitor verdicts, fault schedule, burst
    drops, recoveries, delivery counts) must not move."""
    from repro.chaos import CampaignRunner

    runner = CampaignRunner(
        seed=1, episodes=6, horizon_ns=750_000, drain_ns=1_250_000
    )
    report = runner.run_episode(index)
    assert on_packet_beacons(runner.run_episode, index) == report
    assert report["mode"] == ("chip", "switch_cpu", "host_delegate")[index % 3]
    # The schedule still holds what this episode was chosen for.
    assert _EPISODE_FAULTS[index] <= {f["kind"] for f in report["faults"]}
