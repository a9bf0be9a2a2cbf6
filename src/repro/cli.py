"""Command-line interface: quick experiments without writing code.

Usage::

    python -m repro.cli latency --mode chip --processes 32
    python -m repro.cli broadcast --processes 16 --system 1pipe
    python -m repro.cli failure --crash tor0.0
    python -m repro.cli topology
    python -m repro.cli snapshot
    python -m repro.cli chaos --episodes 100 --seed 7
    python -m repro.cli verify --episodes 25 --seed 1
    python -m repro.cli observe --hosts 8 --seed 1
    python -m repro.cli shootout --seed 1

Each subcommand builds the paper's 32-host testbed, runs a short
deterministic simulation, and prints a summary.
"""

from __future__ import annotations

import argparse
import sys

from repro.net.topology import EPISODE_SCALES
from repro.obs.export import write_json
from repro.onepipe import OnePipeCluster, OnePipeConfig
from repro.onepipe.config import ALL_MODES, MODES
from repro.sim import Simulator


def cmd_topology(args) -> int:
    from repro.net import build_testbed

    sim = Simulator(seed=args.seed)
    topo = build_testbed(sim)
    print(f"hosts: {len(topo.hosts)}")
    print(f"logical switches: {len(topo.switches)}")
    print(f"physical links: {len(topo.external_links())}")
    for name in sorted(topo.switches):
        switch = topo.switches[name]
        print(f"  {name:16s} in={len(switch.in_links):2d} "
              f"out={len(switch.out_links):2d} routes={len(switch.routes)}")
    return 0


def cmd_latency(args) -> int:
    from repro.bench.harness import LatencyProbe

    sim = Simulator(seed=args.seed)
    cluster = OnePipeCluster(
        sim,
        n_processes=args.processes,
        config=OnePipeConfig(
            mode=args.mode, beacon_interval_ns=args.beacon_us * 1000
        ),
    )
    probe = LatencyProbe(sim)
    for i in range(args.processes):
        cluster.endpoint(i).on_recv(lambda m: probe.mark_delivered(m.payload))

    def send(k):
        sender = k % args.processes
        dst = (sender + args.processes // 2 + 1) % args.processes
        probe.mark_sent(k)
        ep = cluster.endpoint(sender)
        fn = ep.reliable_send if args.reliable else ep.unreliable_send
        fn([(dst, k)])

    for k in range(args.count):
        sim.schedule(50_000 + k * 10_000, send, k)
    sim.run(until=50_000 + args.count * 10_000 + 1_000_000)
    if not probe.latencies:
        print("no deliveries — check parameters", file=sys.stderr)
        return 1
    service = "reliable" if args.reliable else "best-effort"
    print(f"{service} 1Pipe, mode={args.mode}, "
          f"{args.processes} processes, {len(probe.latencies)} probes")
    print(f"  mean {probe.mean_us():.2f} us   "
          f"p95 {probe.percentile_us(95):.2f} us")
    return 0


def cmd_broadcast(args) -> int:
    from repro.baselines import (
        LamportBroadcast,
        SequencerBroadcast,
        TokenRingBroadcast,
    )
    from repro.net import build_testbed

    sim = Simulator(seed=args.seed)
    n = args.processes
    window = 1_000_000
    if args.system == "1pipe":
        cluster = OnePipeCluster(sim, n_processes=n)
        delivered = [0]
        for i in range(n):
            cluster.endpoint(i).on_recv(
                lambda m: delivered.__setitem__(0, delivered[0] + 1)
            )

        def blast(s):
            cluster.endpoint(s).unreliable_send(
                [(d, "x") for d in range(n) if d != s]
            )

        for s in range(n):
            sim.every(20_000, blast, s)
        sim.run(until=window)
        count = delivered[0]
    else:
        topo = build_testbed(sim)
        if args.system in ("switchseq", "hostseq"):
            group = SequencerBroadcast(
                sim, topo, n,
                kind="switch" if args.system == "switchseq" else "host",
            )
        elif args.system == "token":
            group = TokenRingBroadcast(sim, topo, n)
            group.start()
        else:
            group = LamportBroadcast(sim, topo, n)
        for s in range(n):
            sim.every(20_000, group.broadcast, s, "x")
        sim.run(until=window)
        count = group.total_delivered()
    rate = count / n * 1e9 / window
    print(f"{args.system}: {count} deliveries in 1 ms "
          f"({rate / 1e3:.0f} K msg/s per process)")
    return 0


def cmd_failure(args) -> int:
    from repro.net import FailureInjector

    sim = Simulator(seed=args.seed)
    cluster = OnePipeCluster(sim, n_processes=8)
    injector = FailureInjector(cluster.topology)

    def traffic():
        for s in range(8):
            ep = cluster.endpoint(s)
            if not ep.agent.host.failed:
                ep.reliable_send([((s + 1) % 8, "x")])

    sim.every(20_000, traffic)
    crash_at = 150_000
    if args.crash.startswith("h"):
        injector.crash_host(args.crash, at=crash_at)
    else:
        injector.crash_switch(args.crash, at=crash_at)
    sim.run(until=3_000_000)
    controller = cluster.controller
    print(f"crashed {args.crash} at {crash_at / 1000:.0f} us")
    print(f"failed processes: {sorted(controller.failed_procs)}")
    for episode in controller.recoveries:
        print(f"recovery: detect {episode.first_report_time / 1000:.0f} us, "
              f"resume {episode.resume_time / 1000:.0f} us "
              f"({episode.duration_ns / 1000:.0f} us coordinated)")
    return 0


def cmd_snapshot(args) -> int:
    from repro.apps.snapshot import TokenConservationDemo

    sim = Simulator(seed=args.seed)
    cluster = OnePipeCluster(sim, n_processes=6)
    demo = TokenConservationDemo(cluster, list(range(6)))
    rng = sim.rng("transfers")
    for k in range(60):
        src = rng.randrange(6)
        dst = (src + 1 + rng.randrange(5)) % 6
        sim.schedule(20_000 + k * 5_000, demo.transfer, src, dst,
                     rng.randint(1, 20))
    totals = []
    for t in (60_000, 180_000):
        sim.schedule(
            t,
            lambda: demo.snapshot_total(0).add_callback(
                lambda f: totals.append(f.value)
            ),
        )
    sim.run(until=2_000_000)
    print(f"invariant total: {demo.total}")
    print(f"snapshot totals during concurrent transfers: {totals}")
    print("consistent!" if all(t == demo.total for t in totals)
          else "INCONSISTENT")
    return 0 if all(t == demo.total for t in totals) else 1


def cmd_chaos(args) -> int:
    from repro.chaos import CampaignRunner

    # Adversarial campaigns cycle the BFT incarnation too; the plain
    # default keeps the historical three-mode cycle byte-identical.
    if args.mode == "all":
        modes = ALL_MODES if args.adversarial else MODES
    else:
        modes = (args.mode,)

    def progress(report):
        n_viol = len(report["violations"])
        status = "ok" if n_viol == 0 else f"{n_viol} VIOLATIONS"
        print(f"episode {report['episode']:3d} mode={report['mode']:13s} "
              f"seed={report['seed']} faults={len(report['faults'])} "
              f"delivered={report['messages_delivered']} {status}")
        for violation in report["violations"]:
            print(f"  {violation['invariant']}: {violation['detail']} "
                  f"(replay seed {violation['seed']})", file=sys.stderr)

    runner = CampaignRunner(
        seed=args.seed,
        episodes=args.episodes,
        modes=modes,
        n_processes=args.processes,
        faults_per_episode=args.faults,
        use_raft=args.raft,
        metrics=args.metrics,
        adversarial=args.adversarial,
        jobs=args.jobs,
        progress=progress,
    )
    report = runner.run()
    write_json(report, args.out)
    print(f"{args.episodes} episodes, "
          f"{report['messages_delivered']} messages delivered, "
          f"{report['total_violations']} invariant violations "
          f"-> {args.out}")
    if report["total_violations"]:
        print(f"violations by invariant: "
              f"{report['violations_by_invariant']}", file=sys.stderr)
        return 1
    return 0


def cmd_observe(args) -> int:
    from repro.obs.export import validate_chrome_trace, validate_metrics_report
    from repro.obs.runner import run_observe

    report, trace, summary = run_observe(
        seed=args.seed,
        hosts=args.hosts,
        mode=args.mode,
        horizon_ns=args.horizon_us * 1000,
        drain_ns=args.drain_us * 1000,
        sample_interval_ns=args.sample_us * 1000,
        n_faults=args.faults,
    )
    problems = validate_metrics_report(report) + validate_chrome_trace(trace)
    for problem in problems:
        print(f"OBSERVE INVALID: {problem}", file=sys.stderr)
    if problems:
        return 1
    write_json(report, args.out_metrics)
    write_json(trace, args.out_trace)
    counters = summary["counters"]
    print(f"observe: {args.hosts} hosts, mode={args.mode}, seed={args.seed}")
    print(f"  {summary['scatterings_sent']} scatterings sent, "
          f"{summary['messages_delivered']} messages delivered, "
          f"{counters['engine.beacons_sent']} engine beacons, "
          f"{counters['link.tx_packets']} link transmissions")
    print(f"  {summary['trace_records']} trace records, "
          f"{summary['samples_taken']} samples "
          f"({len(report['series'])} series)")
    print(f"  metrics -> {args.out_metrics}")
    print(f"  trace   -> {args.out_trace} (chrome://tracing / Perfetto)")
    if summary["trace_overflowed"]:
        print("warning: trace record limit hit; trace is truncated",
              file=sys.stderr)
    return 0


def cmd_hyperscale(args) -> int:
    from dataclasses import replace

    from repro.hybrid import SCENARIOS, run_hyperscale

    if args.list:
        for name, scenario in sorted(SCENARIOS.items()):
            print(f"{name:12s} k={scenario.k:3d}  "
                  f"hosts={scenario.descriptor().n_hosts:6d}  "
                  f"hot_pods={scenario.hot_pods}  windows={scenario.windows}")
        return 0
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; "
              f"available: {', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    scenario = SCENARIOS[args.scenario]
    overrides = {"seed": args.seed}
    if args.windows is not None:
        overrides["windows"] = args.windows
    scenario = replace(scenario, **overrides)

    report = run_hyperscale(scenario, workers=args.workers)
    out = args.out or f"results/hyperscale_{scenario.name}.json"
    write_json(report, out)

    island = report["island"]
    fidelity = report["fidelity"]
    print(f"hyperscale {scenario.name}: k={scenario.k}, "
          f"{report['modeled_hosts']} modeled hosts, seed={scenario.seed}")
    print(f"  fidelity: {fidelity['hybrid.pods_hot']} hot / "
          f"{fidelity['hybrid.pods_cold']} cold pods "
          f"({fidelity['hybrid.links_hot']}/{fidelity['hybrid.links_cold']} "
          f"links), {fidelity['hybrid.passes']} passes, "
          f"promotions w/f/b = {fidelity['hybrid.promotions_watched']}/"
          f"{fidelity['hybrid.promotions_fault']}/"
          f"{fidelity['hybrid.promotions_backpressure']}")
    print(f"  sharding: {fidelity['hybrid.windows']} windows, "
          f"{fidelity['hybrid.cross_shard_events']} cross-shard events, "
          f"{fidelity['hybrid.lookahead_stalls']} lookahead stalls")
    print(f"  island: {island['hosts']} hosts, "
          f"{island['deliveries']} deliveries, "
          f"mean {island['mean_delivery_ns']} ns, "
          f"p99 {island['p99_delivery_ns']} ns, "
          f"{island['oracle_divergences']} oracle divergences")
    print(f"wrote {out}")
    return 1 if island["oracle_divergences"] else 0


def cmd_verify(args) -> int:
    from repro.verify import VerifyRunner

    if args.mode == "all":
        modes = ALL_MODES if args.adversarial else MODES
    else:
        modes = (args.mode,)
    runner = VerifyRunner(
        seed=args.seed,
        episodes=args.episodes,
        modes=modes,
        scale=args.scale,
        n_faults=args.faults,
        shrink=not args.no_shrink,
        metrics=args.metrics,
        adversarial=args.adversarial,
        jobs=args.jobs,
        progress=print if not args.quiet else None,
    )
    report = runner.run()
    write_json(report, args.out)
    print(f"{report['episodes_run']} episode runs "
          f"({args.episodes} episodes x {len(modes)} modes), "
          f"{report['divergence_count']} oracle divergences, "
          f"{len(report['harness_errors'])} harness errors -> {args.out}")
    if not report["ok"]:
        for result in report["results"]:
            for divergence in result["divergences"]:
                print(f"DIVERGENCE [{divergence['kind']}] "
                      f"{divergence['detail']} (replay: seed="
                      f"{divergence['seed']} mode={divergence['mode']})",
                      file=sys.stderr)
        shrunk = report.get("shrunk_reproducer")
        if shrunk:
            print(f"minimal reproducer: {shrunk['sends']} sends, "
                  f"{shrunk['faults']} faults "
                  f"(shrunk in {shrunk['replays']} replays) — see "
                  f"'shrunk_reproducer.spec' in {args.out}", file=sys.stderr)
        return 1
    return 0


def cmd_shootout(args) -> int:
    from repro.baselines.shootout import PROTOCOLS, SCENARIO_NAMES, ShootoutRunner

    protocols = (
        tuple(args.protocols.split(",")) if args.protocols else PROTOCOLS
    )
    scenarios = (
        tuple(args.scenarios.split(",")) if args.scenarios else SCENARIO_NAMES
    )

    def progress(cell):
        n_viol = len(cell["violations"])
        status = "ok" if n_viol == 0 else f"{n_viol} VIOLATIONS"
        latency = cell["latency"]
        print(f"{cell['scenario']:9s} {cell['protocol']:12s} "
              f"delivered {cell['delivery_permille']:4d}/1000  "
              f"p50 {latency['p50_ns'] / 1000:8.1f} us  "
              f"recovery {cell['recovery_stall_ns'] / 1000:8.1f} us  "
              f"{status}")

    runner = ShootoutRunner(
        seed=args.seed,
        protocols=protocols,
        scenarios=scenarios,
        n_members=args.members,
        metrics=args.metrics,
        jobs=args.jobs,
        progress=progress if not args.quiet else None,
    )
    report = runner.run()
    write_json(report, args.out)
    n_cells = len(protocols) * len(scenarios)
    print(f"{n_cells} cells ({len(scenarios)} scenarios x "
          f"{len(protocols)} protocols), "
          f"{report['total_contract_violations']} contract violations "
          f"-> {args.out}")
    for entry in report["scenarios"]:
        summary = report["crossover"][entry["scenario"]]
        line = (f"  {entry['scenario']:9s} fastest p50: "
                f"{summary['lowest_p50_latency']}")
        versus = summary.get("onepipe_vs_best_baseline")
        if versus:
            line += (f"  (1pipe p50 = {versus['p50_ratio_milli']}/1000 "
                     f"of best baseline {versus['baseline']})")
        print(line)
    if report["total_contract_violations"]:
        for entry in report["scenarios"]:
            for protocol, cell in entry["cells"].items():
                for violation in cell["violations"]:
                    print(f"VIOLATION {entry['scenario']}/{protocol}: "
                          f"{violation}", file=sys.stderr)
        return 1
    return 0


def cmd_workload(args) -> int:
    from repro.workload import get_scenario, run_scenario

    out = args.out or f"results/workload_{args.scenario}.json"
    scenario = get_scenario(args.scenario)
    report = run_scenario(
        scenario,
        seed=args.seed,
        jobs=args.jobs,
        faults=args.faults,
    )
    write_json(report, out)
    totals = report["totals"]
    utilization = report["utilization"]
    print(f"workload {scenario.name}: app={scenario.app}, "
          f"{scenario.shards} shards, seed={args.seed}"
          + (f", faults={args.faults}/shard" if args.faults else ""))
    print(f"  offered {totals['arrivals']}  admitted {totals['admitted']}  "
          f"deferred {totals['deferred']}  rejected {totals['rejected']}  "
          f"retries {totals['retries']}  dropped {totals['dropped']}  "
          f"completed {totals['completed']}")
    print(f"  busy fraction mean {utilization['mean_busy_fraction']:.3f} "
          f"max {utilization['max_busy_fraction']:.3f}  "
          f"max queue depth {utilization['max_queue_depth']}")
    for name, tenant in report["tenants"].items():
        lag = tenant["delivery_lag"]
        p99 = lag["p99"]
        p999 = lag["p999"]
        print(f"  tenant {name:12s} lag p99 "
              f"{p99 / 1000 if p99 is not None else float('nan'):9.1f} us  "
              f"p99.9 {p999 / 1000 if p999 is not None else float('nan'):9.1f} us  "
              f"({lag['count']} ops)")
    ordering = report["ordering"]
    print(f"  ordering: {ordering['deliveries']} deliveries, "
          f"{ordering['violations']} violations -> {out}")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="1Pipe reproduction: quick command-line experiments",
    )
    parser.add_argument("--seed", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("topology", help="print the testbed topology")

    latency = sub.add_parser("latency", help="delivery latency probe")
    latency.add_argument("--mode", default="chip", choices=ALL_MODES)
    latency.add_argument("--processes", type=int, default=32)
    latency.add_argument("--reliable", action="store_true")
    latency.add_argument("--beacon-us", type=int, default=3)
    latency.add_argument("--count", type=int, default=30)

    broadcast = sub.add_parser("broadcast", help="total order broadcast")
    broadcast.add_argument("--processes", type=int, default=8)
    broadcast.add_argument(
        "--system", default="1pipe",
        choices=["1pipe", "switchseq", "hostseq", "token", "lamport"],
    )

    failure = sub.add_parser("failure", help="crash a component")
    failure.add_argument("--crash", default="h3",
                         help="host (h3) or switch (tor0.0, core0)")

    sub.add_parser("snapshot", help="consistent snapshot demo")

    chaos = sub.add_parser(
        "chaos", help="seeded gray-failure campaign + invariant monitor"
    )
    chaos.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="campaign seed (overrides the global --seed)")
    chaos.add_argument("--episodes", type=int, default=12)
    chaos.add_argument("--processes", type=int, default=16)
    chaos.add_argument("--faults", type=int, default=4,
                       help="faults injected per episode")
    chaos.add_argument("--mode", default="all", choices=("all",) + ALL_MODES)
    chaos.add_argument("--adversarial", action="store_true",
                       help="mix Byzantine fault kinds (lying senders, "
                            "corrupt beacons, equivocation, forged notices) "
                            "into the campaign and run the Byzantine "
                            "monitor; with --mode all, also cycles the bft "
                            "incarnation (see docs/BYZANTINE.md)")
    chaos.add_argument("--raft", action="store_true",
                       help="replicate the controller on Raft and inject "
                            "leader partitions")
    chaos.add_argument("--metrics", action="store_true",
                       help="embed per-episode metrics summaries in the "
                            "report (see docs/OBSERVABILITY.md)")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes for episodes (the report is "
                            "byte-identical for any job count)")
    chaos.add_argument("--out", default="results/chaos_campaign.json")

    observe = sub.add_parser(
        "observe", help="instrumented run: metrics report + Chrome trace"
    )
    observe.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                         help="run seed (overrides the global --seed)")
    observe.add_argument("--hosts", type=int, default=8, choices=[8, 32],
                         help="fat-tree size (8: small episode fabric, 32: testbed)")
    observe.add_argument("--mode", default="chip", choices=ALL_MODES)
    observe.add_argument("--horizon-us", type=int, default=1000,
                         help="traffic window (microseconds)")
    observe.add_argument("--drain-us", type=int, default=1000,
                         help="post-traffic drain (microseconds)")
    observe.add_argument("--sample-us", type=int, default=25,
                         help="sampler interval (microseconds)")
    observe.add_argument("--faults", type=int, default=0,
                         help="chaos faults injected during the window")
    observe.add_argument("--out-metrics",
                         default="results/observe_metrics.json")
    observe.add_argument("--out-trace",
                         default="results/observe_trace.json")

    shootout = sub.add_parser(
        "shootout", help="baseline shootout: every total-order protocol "
                         "under identical chaos, per-protocol contract "
                         "oracles, crossover report"
    )
    shootout.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                          help="shootout seed (overrides the global --seed)")
    shootout.add_argument("--protocols", default=None,
                          help="comma-separated subset (default: lamport,"
                               "sequencer,token,epto,switchpaxos,onepipe)")
    shootout.add_argument("--scenarios", default=None,
                          help="comma-separated subset (default: clean,"
                               "crash,gray,degraded)")
    shootout.add_argument("--members", type=int, default=8,
                          help="broadcast group size")
    shootout.add_argument("--metrics", action="store_true",
                          help="embed per-cell metrics summaries in the "
                               "report (see docs/OBSERVABILITY.md)")
    shootout.add_argument("--jobs", type=int, default=1,
                          help="worker processes for cells (the report is "
                               "byte-identical for any job count)")
    shootout.add_argument("--quiet", action="store_true",
                          help="suppress per-cell progress lines")
    shootout.add_argument("--out", default="results/shootout_k4.json")

    workload = sub.add_parser(
        "workload", help="open-loop multi-tenant overload scenarios "
                         "with admission control + per-tenant SLOs"
    )
    workload.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                          help="scenario seed (overrides the global --seed)")
    workload.add_argument("--scenario", default="hotspot",
                          choices=["hotspot", "flash_crowd", "retry_storm"])
    workload.add_argument("--faults", type=int, default=0,
                          help="gray-failure faults injected per shard "
                               "(chaos schedule composed with the overload)")
    workload.add_argument("--jobs", type=int, default=1,
                          help="worker processes for shards (the report is "
                               "byte-identical for any job count)")
    workload.add_argument("--out", default=None,
                          help="report path (default: "
                               "results/workload_<scenario>.json)")

    hyperscale = sub.add_parser(
        "hyperscale", help="hybrid-fidelity run: packet-level hot island "
                           "+ flow-level cold fabric (10k+ modeled hosts)"
    )
    hyperscale.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                            help="scenario seed (overrides the global "
                                 "--seed)")
    hyperscale.add_argument("--scenario", default="k8_cold",
                            help="scenario name (see --list)")
    hyperscale.add_argument("--workers", type=int, default=1,
                            help="cold-fabric shard workers (the report is "
                                 "byte-identical for any worker count)")
    hyperscale.add_argument("--windows", type=int, default=None,
                            help="override the scenario's barrier count")
    hyperscale.add_argument("--out", default=None,
                            help="report path (default: "
                                 "results/hyperscale_<scenario>.json)")
    hyperscale.add_argument("--list", action="store_true",
                            help="list scenarios and exit")

    verify = sub.add_parser(
        "verify", help="fuzzed episodes checked against the delivery-"
                       "contract reference oracle"
    )
    verify.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="fuzzer seed (overrides the global --seed)")
    verify.add_argument("--episodes", type=int, default=10)
    verify.add_argument("--faults", type=int, default=3,
                        help="faults injected per episode")
    verify.add_argument("--mode", "--incarnation", default="all",
                        choices=("all",) + ALL_MODES)
    verify.add_argument("--adversarial", action="store_true",
                        help="mix Byzantine fault kinds into the fuzzed "
                             "episodes and run the oracle's attack-mode "
                             "checks; with --mode all, also cycles the bft "
                             "incarnation (see docs/BYZANTINE.md)")
    verify.add_argument("--scale", default="small", choices=EPISODE_SCALES,
                        help="episode topology (small: 8-host fat-tree)")
    verify.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking the first failing episode")
    verify.add_argument("--metrics", action="store_true",
                        help="embed per-episode metrics summaries in the "
                             "report (see docs/OBSERVABILITY.md)")
    verify.add_argument("--jobs", type=int, default=1,
                        help="worker processes for episode x mode pairs "
                             "(the report is byte-identical for any job "
                             "count)")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress per-episode progress lines")
    verify.add_argument("--out", default="results/verify_report.json")
    return parser


COMMANDS = {
    "topology": cmd_topology,
    "latency": cmd_latency,
    "broadcast": cmd_broadcast,
    "failure": cmd_failure,
    "snapshot": cmd_snapshot,
    "chaos": cmd_chaos,
    "observe": cmd_observe,
    "verify": cmd_verify,
    "workload": cmd_workload,
    "hyperscale": cmd_hyperscale,
    "shootout": cmd_shootout,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
