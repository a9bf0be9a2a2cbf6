"""Command-line interface: the seeded campaign and scenario runners.

Usage::

    python -m repro.cli chaos --episodes 100 --seed 7
    python -m repro.cli verify --episodes 25 --seed 1
    python -m repro.cli observe --hosts 8 --seed 1
    python -m repro.cli workload --scenario hotspot
    python -m repro.cli hyperscale --scenario k8_cold
    python -m repro.cli shootout --seed 1

Each subcommand runs a deterministic simulation from ``--seed``
(default 1), writes a JSON report, prints a summary, and exits
non-zero when a check fails.  Single-feature demos (latency, failure
recovery, snapshots) are the scripts in ``examples/``.
"""

from __future__ import annotations

import argparse
import sys

from repro.net.topology import EPISODE_SCALES
from repro.obs.export import write_json
from repro.onepipe.config import ALL_MODES, MODES


def _modes(args) -> tuple:
    """The incarnations ``--mode`` names.  ``all`` also cycles the BFT
    incarnation under ``--adversarial``; the plain default keeps the
    historical three-mode cycle byte-identical."""
    if args.mode != "all":
        return (args.mode,)
    return ALL_MODES if args.adversarial else MODES


def cmd_chaos(args) -> int:
    from repro.chaos import CampaignRunner

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
        modes=_modes(args),
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

    report = run_hyperscale(scenario)
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
    print(f"  cold fabric: {fidelity['hybrid.windows']} windows, "
          f"{fidelity['hybrid.cross_shard_events']} cross-pod flows, "
          f"{fidelity['hybrid.lookahead_stalls']} empty inboxes")
    print(f"  island: {island['hosts']} hosts, "
          f"{island['deliveries']} deliveries, "
          f"mean {island['mean_delivery_ns']} ns, "
          f"p99 {island['p99_delivery_ns']} ns, "
          f"{island['oracle_divergences']} oracle divergences")
    print(f"wrote {out}")
    return 1 if island["oracle_divergences"] else 0


def cmd_verify(args) -> int:
    from repro.verify import VerifyRunner

    modes = _modes(args)
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
        description="1Pipe reproduction: seeded campaign and scenario "
                    "runners (demos are in examples/)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags several runners share, one parent parser each.
    shared = {}
    for flag, kwargs in (
        ("--seed", dict(type=int, default=1, help="run seed")),
        ("--jobs", dict(type=int, default=1,
                        help="worker processes (the report is "
                             "byte-identical for any job count)")),
        ("--metrics", dict(action="store_true",
                           help="embed per-run metrics summaries in the "
                                "report (see docs/OBSERVABILITY.md)")),
        ("--quiet", dict(action="store_true",
                         help="suppress per-run progress lines")),
        ("--adversarial", dict(action="store_true",
                               help="mix Byzantine fault kinds (lying "
                                    "senders, corrupt beacons, "
                                    "equivocation, forged notices) into "
                                    "the episodes and run the attack-mode "
                                    "checks; with --mode all, also cycles "
                                    "the bft incarnation (see "
                                    "docs/BYZANTINE.md)")),
    ):
        shared[flag] = argparse.ArgumentParser(add_help=False)
        shared[flag].add_argument(flag, **kwargs)

    def add_runner(name, summary, *flags):
        return sub.add_parser(
            name, help=summary,
            parents=[shared[flag] for flag in ("--seed", *flags)],
        )

    chaos = add_runner(
        "chaos", "seeded gray-failure campaign + invariant monitor",
        "--jobs", "--metrics", "--adversarial",
    )
    chaos.add_argument("--episodes", type=int, default=12)
    chaos.add_argument("--processes", type=int, default=16)
    chaos.add_argument("--faults", type=int, default=4,
                       help="faults injected per episode")
    chaos.add_argument("--mode", default="all", choices=("all",) + ALL_MODES)
    chaos.add_argument("--raft", action="store_true",
                       help="replicate the controller on Raft and inject "
                            "leader partitions")
    chaos.add_argument("--out", default="results/chaos_campaign.json")

    observe = add_runner(
        "observe", "instrumented run: metrics report + Chrome trace"
    )
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

    shootout = add_runner(
        "shootout", "baseline shootout: every total-order protocol "
                    "under identical chaos, per-protocol contract "
                    "oracles, crossover report",
        "--jobs", "--metrics", "--quiet",
    )
    shootout.add_argument("--protocols", default=None,
                          help="comma-separated subset (default: lamport,"
                               "sequencer,token,epto,switchpaxos,onepipe)")
    shootout.add_argument("--scenarios", default=None,
                          help="comma-separated subset (default: clean,"
                               "crash,gray,degraded)")
    shootout.add_argument("--members", type=int, default=8,
                          help="broadcast group size")
    shootout.add_argument("--out", default="results/shootout_k4.json")

    workload = add_runner(
        "workload", "open-loop multi-tenant overload scenarios "
                    "with admission control + per-tenant SLOs",
        "--jobs",
    )
    workload.add_argument("--scenario", default="hotspot",
                          choices=["hotspot", "flash_crowd", "retry_storm"])
    workload.add_argument("--faults", type=int, default=0,
                          help="gray-failure faults injected per shard "
                               "(chaos schedule composed with the overload)")
    workload.add_argument("--out", default=None,
                          help="report path (default: "
                               "results/workload_<scenario>.json)")

    hyperscale = add_runner(
        "hyperscale", "hybrid-fidelity run: packet-level hot island "
                      "+ flow-level cold fabric (10k+ modeled hosts)"
    )
    hyperscale.add_argument("--scenario", default="k8_cold",
                            help="scenario name (see --list)")
    hyperscale.add_argument("--windows", type=int, default=None,
                            help="override the scenario's window count")
    hyperscale.add_argument("--out", default=None,
                            help="report path (default: "
                                 "results/hyperscale_<scenario>.json)")
    hyperscale.add_argument("--list", action="store_true",
                            help="list scenarios and exit")

    verify = add_runner(
        "verify", "fuzzed episodes checked against the delivery-"
                  "contract reference oracle",
        "--jobs", "--metrics", "--quiet", "--adversarial",
    )
    verify.add_argument("--episodes", type=int, default=10)
    verify.add_argument("--faults", type=int, default=3,
                        help="faults injected per episode")
    verify.add_argument("--mode", "--incarnation", default="all",
                        choices=("all",) + ALL_MODES)
    verify.add_argument("--scale", default="small", choices=EPISODE_SCALES,
                        help="episode topology (small: 8-host fat-tree)")
    verify.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking the first failing episode")
    verify.add_argument("--out", default="results/verify_report.json")
    return parser


COMMANDS = {
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
