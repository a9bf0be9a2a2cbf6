"""The analytic beacon fabric's fidelity contract, enforced.

``repro.onepipe.analytic`` claims exactness, not approximation: every
observable of a run on the fabric — delivery traces, oracle verdicts,
barrier state, link counters, RNG-driven drop draws — must be
byte-identical to the same run on event-level beacon packets (only the
scheduler's event count and PacketTap captures may differ).  The fabric
is what every cluster runs, in every incarnation; the packet reference
is obtained through the one test-only seam, ``tests/reference.py``.
These tests pin the contract from seven angles:

- a clean steady-state workload on every incarnation, MODE_BFT
  included (MAC rejections and accusations are observed too);
- a perturbed run (corruption loss, burst loss, a packet-inspecting
  ``drop_filter``, receiver-side loss, a link flap, a filter installed
  *while virtual beacons are in flight*, a straggling switch, and a link
  silent past the dead-link timeout that then rejoins);
- the verify fuzzer corpus (delivery trace + reference-oracle verdict);
- the committed Byzantine breach reproducers (adversarial faults in
  un-hardened mode);
- the same reproducers, and a fail-stop witness, under MODE_BFT
  (divergences, accusations, evictions and MAC rejections);
- a chaos-campaign episode (full invariant-monitor report);
- the Fig. 10 recovery scenarios (ToR crash, host crash under reliable
  traffic with the controller's Detect→Resume round): per-host first
  catch-up instants.

Plus two regressions: back-to-back runs in one process stay identical
(no beacon state outlives its simulator), and every mode carries its
beacons on the fabric, only the test-only seam sending packets.
"""

import dataclasses

import pytest

from repro.net.packet import PacketKind
from repro.net.topology import build_fat_tree, fat_tree_descriptor
from repro.onepipe.analytic import BeaconFabric
from repro.onepipe.cluster import OnePipeCluster
from repro.onepipe.config import ALL_MODES, MODE_BFT, MODES, OnePipeConfig
from repro.sim import Simulator
from tests.instruments import PacketTap
from tests.reference import PacketBeacons, on_packet_beacons


def _sorted_links(topo):
    links = (
        topo.links.values() if hasattr(topo.links, "values") else topo.links
    )
    return sorted(links, key=lambda l: (l.src.node_id, l.dst.node_id))


def _k4_cluster(seed, mode="chip"):
    sim = Simulator(seed=seed)
    topo = build_fat_tree(sim, fat_tree_descriptor(4, hosts_per_tor=2).params)
    cluster = OnePipeCluster(
        sim, n_processes=8, config=OnePipeConfig(mode=mode), topology=topo
    )
    return sim, topo, cluster


def _rejections(cluster):
    """Every engine's and agent's count of beacons failing their MAC."""
    return (
        {sid: getattr(e, "beacons_rejected", 0)
         for sid, e in sorted(cluster.engines.items())},
        {hid: a.beacons_rejected for hid, a in sorted(cluster.agents.items())},
    )


def _run_workload(mode, seed, until, perturb=False):
    """One seeded workload; returns every observable the fabric touches."""
    sim, topo, cluster = _k4_cluster(seed, mode)
    links = _sorted_links(topo)

    if perturb:
        links[3].set_loss_rate(0.05)
        links[7].set_burst_loss(0.02, 0.3)
        # A drop_filter inspects packet objects, so the fabric shows it
        # a probe packet per arriving beacon.
        links[11].drop_filter = lambda p: p.kind == PacketKind.BEACON and (
            p.barrier_ts % 7 == 0
        )
        cluster.set_receiver_loss_rate(0.02)
        flap = links[15]
        sim.post(120_000, flap.fail)
        sim.post(180_000, flap.recover)
        # Install (and later remove) a filter while virtual beacons are
        # already in flight: the filter decides at arrival, exactly
        # where Link._deliver would consult it.
        late = links[19]
        sim.post(
            200_001,
            lambda: setattr(
                late, "drop_filter", lambda p: p.kind == PacketKind.BEACON
            ),
        )
        sim.post(260_000, lambda: setattr(late, "drop_filter", None))
        # A straggling spine: in the CPU incarnations its register
        # flushes land on instants of their own.
        spine = cluster.engines["spine1.0.up"]
        sim.post(90_000, spine.set_straggler, 2.5)
        sim.post(230_000, spine.set_straggler, 1.0)
        # A link that stays up but carries nothing for longer than the
        # dead-link timeout: declared dead, then it rejoins on the first
        # beacon through the fabric's bound ingress.
        silent = links[74]
        timeout = cluster.config.link_dead_timeout_ns
        sim.post(
            300_000, lambda: setattr(silent, "drop_filter", lambda p: True)
        )
        sim.post(
            300_000 + 2 * timeout,
            lambda: setattr(silent, "drop_filter", None),
        )

    n = cluster.n_processes
    delivered = []
    for i in range(n):
        cluster.endpoint(i).on_recv(
            lambda msg, i=i: delivered.append((i, msg.src, msg.payload, msg.ts))
        )

    def blast(round_no):
        for i in range(n):
            batch = [((i + j) % n, f"m{round_no}-{i}-{j}") for j in range(1, 4)]
            cluster.endpoint(i).reliable_send(batch)

    rounds, gap = (8, 40_000) if perturb else (6, 30_000)
    for r in range(rounds):
        sim.post(10_000 + r * gap, blast, r)
    sim.run(until=until)

    return {
        "delivered": sorted(delivered),
        "host_barriers": {
            hid: (a.rx_be_barrier, a.rx_commit_barrier)
            for hid, a in sorted(cluster.agents.items())
        },
        "receiver_drops": {
            hid: a.receiver_drops for hid, a in sorted(cluster.agents.items())
        },
        "engine_minima": {
            sid: (e.be.minimum(), e.commit.minimum())
            for sid, e in sorted(cluster.engines.items())
        },
        "link_stats": [
            (l.src.node_id, l.dst.node_id, l.tx_packets, l.tx_bytes,
             l.dropped_down, l.dropped_overflow, l.dropped_corruption,
             l.dropped_burst, l.ecn_marked, l._busy_until, l._backlog_bytes)
            for l in links
        ],
        "liveness": {
            sid: (e.links_declared_dead, sorted(l.name for l in e._dead))
            for sid, e in sorted(cluster.engines.items())
        },
        "beacons": cluster.total_beacons(),
        "beacons_rejected": _rejections(cluster),
        "accusations": list(cluster.controller.accusations),
        "now": sim.now,
    }


@pytest.mark.parametrize("mode", ALL_MODES)
def test_clean_run_identical(mode):
    off = on_packet_beacons(_run_workload, mode, seed=7, until=400_000)
    on = _run_workload(mode, seed=7, until=400_000)
    assert off == on
    assert off["delivered"], "workload must actually deliver"


@pytest.mark.parametrize("mode", ALL_MODES)
def test_perturbed_run_identical(mode):
    off = on_packet_beacons(
        _run_workload, mode, seed=11, until=500_000, perturb=True
    )
    on = _run_workload(mode, seed=11, until=500_000, perturb=True)
    assert off == on
    # The perturbations must engage the RNG-drawing drop paths, or this
    # test proves less than it claims.
    assert any(stats[6] or stats[7] for stats in off["link_stats"]), (
        "expected corruption/burst drops under perturbation"
    )
    # The silent link was declared dead and has rejoined.
    assert off["liveness"]["spine0.0.up"] == (1, [])


def test_fallback_beacons_on_filtered_links():
    """A filtered link's beacons stay virtual — no beacon packet reaches
    its destination — and a dropping predicate still counts
    ``dropped_corruption``."""
    sim, topo, cluster = _k4_cluster(seed=3)
    links = _sorted_links(topo)
    passing, dropping = links[5], links[6]
    passing.drop_filter = lambda p: False
    dropping.drop_filter = lambda p: p.kind == PacketKind.BEACON
    taps = [PacketTap(link.dst) for link in (passing, dropping)]
    sim.run(until=200_000)
    assert cluster.fabric.virtual_beacons > 0
    assert [tap.packets for tap in taps] == [[], []]
    assert passing.dropped_corruption == 0
    assert dropping.dropped_corruption > 0


def test_back_to_back_runs_identical():
    """Two fabric runs in one process match one run in a fresh
    process-state: no beacon packet or fabric state survives into (or
    poisons) a later run."""
    first = _run_workload("chip", seed=7, until=400_000)
    second = _run_workload("chip", seed=7, until=400_000)
    assert first == second


def _beacon_packets(sim, cluster):
    """Beacon packets that reached any node in 100 us of an idle run."""
    nodes = [*cluster.topology.switches.values(), *cluster.topology.hosts]
    taps = [PacketTap(node) for node in nodes]
    sim.run(until=100_000)
    assert cluster.total_beacons() > 0
    return sum(
        packet.kind == PacketKind.BEACON
        for tap in taps for packet in tap.packets
    )


@pytest.mark.parametrize("build", ["default", "bft", "reference"])
def test_transport_follows_mode(build):
    """There is one transport: a default cluster and every incarnation,
    MODE_BFT included, carry their beacons on the fabric; only the
    test-only reference seam sends beacon packets."""
    if build == "reference":
        sim, _topo, cluster = on_packet_beacons(_k4_cluster, seed=5)
        assert isinstance(cluster.fabric, PacketBeacons)
        assert _beacon_packets(sim, cluster) > 0
        return
    if build == "bft":
        builds = [_k4_cluster(seed=5, mode=MODE_BFT)]
    else:
        sim = Simulator(seed=5)
        builds = [(sim, None, OnePipeCluster(sim, 8))] + [
            _k4_cluster(seed=5, mode=mode) for mode in MODES
        ]
    for sim, _topo, cluster in builds:
        assert isinstance(cluster.fabric, BeaconFabric)
        assert _beacon_packets(sim, cluster) == 0
        assert cluster.fabric.virtual_beacons > 0


# ----------------------------------------------------------------------
# Fuzzer corpus + committed reproducers + chaos episode
# ----------------------------------------------------------------------
def _run_key(run):
    return (
        run.observation,
        run.sends_issued,
        run.sends_skipped,
        run.messages_delivered,
        run.late_naks,
        run.trace_records,
    )


@pytest.mark.parametrize("mode", MODES)
def test_fuzzer_corpus_identity(mode):
    """Delivery traces and oracle verdicts match on fuzzed episodes."""
    from repro.sim.randomness import episode_seed
    from repro.verify.episodes import generate_episode
    from repro.verify.runner import check_episode

    for index in range(2):
        spec = generate_episode(
            seed=episode_seed(9, index), episode=index, mode=mode,
            scale="small", n_faults=3,
        )
        run_off, divs_off = on_packet_beacons(check_episode, spec)
        run_on, divs_on = check_episode(spec)
        assert _run_key(run_off) == _run_key(run_on)
        assert [d.to_dict() for d in divs_off] == [d.to_dict() for d in divs_on]


@pytest.mark.parametrize(
    "name", ["corrupt_beacon", "equivocate", "forge_notice", "lying_sender"]
)
def test_breach_reproducer_identity(name):
    """The committed breach reproducers run un-hardened (chip mode), so
    the fabric stays engaged while an adversary is active — verdicts,
    including the expected breach divergences, must not move."""
    from tests.byz.test_reproducers import load_spec
    from repro.verify.runner import check_episode

    spec = load_spec(name)
    run_off, divs_off = on_packet_beacons(check_episode, spec)
    run_on, divs_on = check_episode(spec)
    assert _run_key(run_off) == _run_key(run_on)
    assert [d.to_dict() for d in divs_off] == [d.to_dict() for d in divs_on]
    assert divs_off, "a breach reproducer must diverge un-hardened"


def _bft_replay(name):
    """A committed reproducer replayed under MODE_BFT: everything the
    hardening decides."""
    from tests.byz.test_reproducers import load_spec
    from repro.verify.runner import check_episode

    captured = []
    run, divs = check_episode(
        dataclasses.replace(load_spec(name), mode=MODE_BFT),
        mutate=captured.append,
    )
    cluster = captured[0]
    return {
        "run": _run_key(run),
        "divergences": [d.to_dict() for d in divs],
        "accusations": list(cluster.controller.accusations),
        "evictions": list(cluster.controller.evictions),
        "beacons_rejected": _rejections(cluster),
    }


@pytest.mark.parametrize(
    "name",
    ["corrupt_beacon", "equivocate", "forge_notice", "lying_sender",
     "bft_flap_reliable_missing"],
)
def test_bft_reproducer_identity(name):
    """MODE_BFT on the fabric decides exactly what it decides on beacon
    packets: the MAC check and the f+1 cross-check ride each record."""
    fabric = _bft_replay(name)
    reference = on_packet_beacons(_bft_replay, name)
    assert fabric == reference
    engines, agents = fabric["beacons_rejected"]
    if name == "corrupt_beacon":
        assert sum(engines.values()) + sum(agents.values()) > 0
    if name == "bft_flap_reliable_missing":
        # A fail-stop witness (a link flap and a switch flap, no
        # adversary) the fuzzer found in MODE_BFT; it is reproduced
        # here, not fixed (ROADMAP item 1).
        assert [d["kind"] for d in fabric["divergences"]] == [
            "reliable_missing"
        ]


def test_chaos_episode_identity():
    """One chaos episode's full report (invariant-monitor verdicts,
    fault schedule, delivery counts) is unchanged by the fabric."""
    from repro.chaos import CampaignRunner

    runner = CampaignRunner(seed=13, episodes=1)
    assert on_packet_beacons(runner.run_episode, 0) == runner.run_episode(0)


@pytest.mark.parametrize("kind", ["ToR Switch", "Host"])
def test_fig10_recovery_identity(kind):
    """Controller-driven recovery (Detect → ... → Resume) is the path
    every figure newly takes on the fabric: each correct host's first
    catch-up instant after the crash must match the reference exactly."""
    from benchmarks.test_fig10_failure_recovery import catch_up_instants

    reference = on_packet_beacons(catch_up_instants, 16, kind)
    assert catch_up_instants(16, kind) == reference
    assert reference, "some correct host must catch up"
