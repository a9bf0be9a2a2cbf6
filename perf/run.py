#!/usr/bin/env python3
"""The repo's benchmark: six workloads, host-time and simulated-stat
metrics, per-layer attribution measured from outside (perf/README.md).

Two front ends over the same rep runner:

- the suite a developer runs::

      python perf/run.py [--seed 1] [--reps 7] [--only W] [--skip-traced]
                         [--quick] [--out perf/out/latest.json] [--record]
      python perf/run.py --compare A.json B.json

- the one-workload form the benchmark driver runs (``BENCHMARK.json``)::

      python perf/run.py --workload W --seed N --seconds S --trace 0|1

Method, fixed by the benchmark: every rep is a fresh single-threaded
``python`` subprocess (``PYTHONHASHSEED=0``); host time is
``time.process_time()`` of the timed phase; the reported value of a
host-side metric is the best of the reps (``host_s``: per segment of the
timed phase); simulated metrics must repeat exactly (digest check) or the
run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
HISTORY = PERF / "history.jsonl"
SCHEMA = "repro.perf/1"

# Host-side metrics: noisy, so best-of-N with the spread printed beside.
HOST_METRICS = ("host_s", "setup_s", "peak_rss_mb")
SUITE_PROBE_REPS = 5
DRIVER_PROBE_REPS = 3
DRIVER_TRACE_UNTRACED_REPS = 2
QUICK_SCALE = 0.1            # --quick: one-tenth of the frozen size
FULL_SCALE = 1.0


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# One rep, in this (fresh) process
# ----------------------------------------------------------------------
def run_rep(name: str, seed: int, scale: float, traced: bool) -> Dict[str, Any]:
    import cProfile
    import resource

    sys.path.insert(0, str(SRC))
    from layers import attribute
    from workloads import WORKLOADS, Tap

    workload = WORKLOADS[name]
    tap = Tap()
    tap.install(workload.stamp_sends)
    setup_profile = cProfile.Profile() if traced else None
    timed_profile = cProfile.Profile() if traced else None

    if traced:
        setup_profile.enable()
    timed = workload.build(seed, scale, tap, workload.tail_pct)
    if traced:
        setup_profile.disable()

    tap.marks.clear()
    setup_s = time.process_time()
    wall_start = time.perf_counter()
    if traced:
        timed_profile.enable()
    outcome = timed()
    if traced:
        timed_profile.disable()
    wall_s = time.perf_counter() - wall_start
    marks = [setup_s] + tap.marks + [time.process_time()]
    segments = [after - before for before, after in zip(marks, marks[1:])]

    counts = tap.counts()
    counts.update(outcome.counts)
    counts["sim.events"] = tap.events
    exact = {
        "events": tap.events,
        "sim_ns": tap.sim_ns,
        "attempted": outcome.attempted,
        "delivered": outcome.delivered,
        "p50_ns": outcome.p50_ns,
        "tail_ns": outcome.tail_ns,
        "tail_samples": outcome.tail_samples,
        "counts": counts,
    }
    checks = list(outcome.checks)
    beyond = outcome.tail_samples - math.ceil(
        workload.tail_pct / 100.0 * outcome.tail_samples
    )
    if beyond < 10 and scale >= FULL_SCALE:
        checks.append(
            f"p{workload.tail_pct:g} has only {beyond} samples beyond it"
        )
    if outcome.delivered < 1 or outcome.attempted < outcome.delivered:
        checks.append(
            f"delivered {outcome.delivered} of {outcome.attempted} attempted"
        )
    result = {
        "workload": name,
        "seed": seed,
        "host_s": sum(segments),
        "segments": segments,
        "setup_s": setup_s,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "exact": exact,
        "digest": hashlib.sha256(
            json.dumps(exact, sort_keys=True).encode()
        ).hexdigest()[:16],
        "checks": checks,
    }
    if traced:
        result["traced_wall_s"] = wall_s
        result["layers"] = attribute(timed_profile)
        result["setup_layers"] = attribute(setup_profile)
    return result


def spawn(args: List[str]) -> Dict[str, Any]:
    """Run this file in a fresh interpreter; its last stdout line is the
    JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())] + args,
        env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"rep {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn_rep(name: str, seed: int, scale: float, traced: bool = False):
    return spawn([
        "--rep", name, "--seed", str(seed), "--scale", repr(scale),
        "--trace", "1" if traced else "0",
    ])


# ----------------------------------------------------------------------
# Folding reps into metrics
# ----------------------------------------------------------------------
def quartile_spread(values: List[float]) -> Optional[float]:
    """(Q3 - Q1) / median, or None with too few values to say."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def fold(name: str, seed: int, reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """End-to-end metrics of one workload from its untraced reps, plus
    the failed checks (named with workload, rep and seed)."""
    first = reps[0]["exact"]
    failures = []
    for index, rep in enumerate(reps):
        where = f"{name} rep {index} seed {seed}"
        failures += [f"{where}: {check}" for check in rep["checks"]]
        if rep["digest"] != reps[0]["digest"]:
            failures.append(
                f"{where}: digest {rep['digest']} != rep 0 {reps[0]['digest']}"
            )
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in HOST_METRICS:
        values = [rep[metric] for rep in reps]
        metrics[metric] = {
            "value": min(values),
            "n": len(values),
            "median": statistics.median(values),
            "spread": quartile_spread(values),
        }
    # The tap cuts the timed phase into slices of simulated time; the
    # cuts line up across reps (same events), so the best is taken per
    # segment: on a machine whose speed wanders within a rep, every
    # segment meets a quiet moment long before a whole rep does.
    columns = list(zip(*(rep["segments"] for rep in reps)))
    if any(len(rep["segments"]) != len(columns) for rep in reps):
        failures.append(f"{name} seed {seed}: reps differ in segment count")
    metrics["host_s"]["best_rep"] = metrics["host_s"]["value"]
    metrics["host_s"]["value"] = sum(min(column) for column in columns)
    metrics["host_s"]["segments"] = len(columns)
    metrics["events_per_sim_us"] = {
        "value": first["events"] / (first["sim_ns"] / 1000.0)
    }
    metrics["deliver_p50_sim_us"] = {"value": first["p50_ns"] / 1000.0}
    metrics["deliver_tail_sim_us"] = {"value": first["tail_ns"] / 1000.0}
    metrics["delivered_frac"] = {
        "value": first["delivered"] / first["attempted"],
        "base": first["attempted"],
    }
    return {
        "end_to_end": metrics,
        "digest": reps[0]["digest"],
        "attempted": first["attempted"],
        "delivered": first["delivered"],
        "checks_failed": len(failures),
        "failures": failures,
    }


def fold_traced(
    spec: Dict[str, Any],
    untraced_host_s: float,
    traced: Dict[str, Any],
    probes: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json for one workload; a layer
    the workload never enters, or a count it cannot supply, reads 0."""
    counts = traced["exact"]["counts"]
    delivered = max(1, traced["exact"]["delivered"])
    values: Dict[str, float] = dict(counts)
    values.update(probes)
    for layer, row in traced["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls_in"] = row["calls_in"]
    for layer in ("net.topology", "net.routing"):
        values[f"setup.{layer}.self_s"] = traced["setup_layers"][layer]["self_s"]
    values["sim.events_per_msg"] = counts["sim.events"] / delivered
    values["onepipe.beacons_per_msg"] = (
        counts["onepipe.beacons_sent"] / delivered
    )
    values["trace.overhead_x"] = traced["host_s"] / untraced_host_s
    # Sum of self_s against the traced phase on the profiler's own clock.
    values["trace.accounted_frac"] = (
        sum(row["self_s"] for row in traced["layers"].values())
        / traced["traced_wall_s"]
    )
    return {
        metric["name"]: values.get(metric["name"], 0)
        for metric in spec["per_layer"]
    }


# ----------------------------------------------------------------------
# Driver form: one workload, one JSON line
# ----------------------------------------------------------------------
def run_driver(args: argparse.Namespace) -> int:
    spec = load_spec()
    name = args.workload
    deadline = time.monotonic() + args.seconds
    reps: List[Dict[str, Any]] = []
    if args.trace:
        for _ in range(DRIVER_TRACE_UNTRACED_REPS):
            reps.append(spawn_rep(name, args.seed, FULL_SCALE))
    else:
        # Measure for --seconds: as many fresh-process reps as fit, never
        # fewer than two (the digest check needs a pair).
        while len(reps) < 2 or time.monotonic() < deadline:
            reps.append(spawn_rep(name, args.seed, FULL_SCALE))
    folded = fold(name, args.seed, reps)

    if args.trace:
        traced = spawn_rep(name, args.seed, FULL_SCALE, traced=True)
        if traced["digest"] != folded["digest"]:
            folded["failures"].append(
                f"{name} traced rep seed {args.seed}: digest differs"
            )
        probes = spawn(["--probes", str(DRIVER_PROBE_REPS)])
        values = fold_traced(
            spec, folded["end_to_end"]["host_s"]["value"], traced, probes
        )
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": folded["end_to_end"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }
        print(f"{name} seed {args.seed}: {len(reps)} reps, "
              f"digest {folded['digest']}, host_s per rep "
              + " ".join(f"{rep['host_s']:.3f}" for rep in reps)
              + f", best whole rep "
              f"{folded['end_to_end']['host_s']['best_rep']:.4f}")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for failure in folded["failures"]:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not folded["failures"],
        "attempted": folded["attempted"],
        "failed": len(folded["failures"]),
        "metrics": metrics,
    }))
    return 0 if not folded["failures"] else 1


# ----------------------------------------------------------------------
# Suite form
# ----------------------------------------------------------------------
def environment_meta() -> Dict[str, Any]:
    return {
        "python_version": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def git_commit() -> str:
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_end_to_end(spec: Dict[str, Any], results: Dict[str, Any]) -> None:
    for name, result in results.items():
        print(f"\n== {name}  digest {result['digest']}  "
              f"checks_failed {result['checks_failed']}")
        for metric in spec["end_to_end"]:
            row = result["end_to_end"][metric["name"]]
            line = (f"  {metric['name']:<22} {row['value']:>12.6g} "
                    f"{metric['unit']:<10}")
            if "n" in row:
                spread = row["spread"]
                line += (f" best of {row['n']}, median {row['median']:.6g}, "
                         f"quartile spread "
                         + ("n/a" if spread is None else f"{spread:.1%}"))
            if "segments" in row:
                line += (f", per segment over {row['segments']} segments "
                         f"(best whole rep {row['best_rep']:.6g})")
            if "base" in row:
                line += f" of {row['base']} attempted"
            print(line)


def print_per_layer(
    name: str, values: Dict[str, float], probes: Dict[str, float]
) -> None:
    from layers import LAYERS

    total = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    print(f"\n== {name}  traced pass: overhead "
          f"{values['trace.overhead_x']:.2f}x, self_s sums to "
          f"{values['trace.accounted_frac']:.1%} of the traced phase")
    print(f"  {'layer':<24}{'self_s':>10}{'share':>8}{'calls_in':>12}")
    for layer in sorted(
        LAYERS, key=lambda layer: -values[f"{layer}.self_s"]
    ):
        self_s = values[f"{layer}.self_s"]
        if self_s == 0 and values[f"{layer}.calls_in"] == 0:
            continue
        print(f"  {layer:<24}{self_s:>10.4f}{self_s / total:>8.1%}"
              f"{values[f'{layer}.calls_in']:>12}")
    for key, value in values.items():
        if (value and key not in probes
                and not key.endswith((".self_s", ".calls_in"))):
            print(f"  {key:<40}{value:>14.6g}")


def run_suite(args: argparse.Namespace) -> int:
    spec = load_spec()
    started = time.monotonic()
    names = [w["name"] for w in spec["workloads"]]
    if args.only:
        unknown = [name for name in args.only if name not in names]
        if unknown:
            raise SystemExit(f"unknown workloads {unknown}; have {names}")
        names = args.only
    scale = QUICK_SCALE if args.quick else FULL_SCALE

    # Interleaved round-robin (w1..w6, w1..w6, ...): a slow phase of the
    # machine is spread over all workloads instead of landing on one.
    reps: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(args.reps):
        for name in names:
            reps[name].append(spawn_rep(name, args.seed, scale))
            print(f"rep {index} {name}: host_s "
                  f"{reps[name][-1]['host_s']:.3f}", file=sys.stderr)
    results = {name: fold(name, args.seed, reps[name]) for name in names}
    print_end_to_end(spec, results)

    probes: Dict[str, float] = {}
    if not args.skip_traced:
        probes = spawn(["--probes", str(SUITE_PROBE_REPS)])
        print(f"\n== layer probes, best of {SUITE_PROBE_REPS}")
        for probe, ns_per_op in probes.items():
            print(f"  {probe:<40}{ns_per_op:>14.6g} ns per operation")
        for name in names:
            traced = spawn_rep(name, args.seed, scale, traced=True)
            result = results[name]
            if traced["digest"] != result["digest"]:
                result["failures"].append(
                    f"{name} traced rep seed {args.seed}: digest differs"
                )
                result["checks_failed"] += 1
            result["per_layer"] = fold_traced(
                spec, result["end_to_end"]["host_s"]["value"], traced, probes
            )
            print_per_layer(name, result["per_layer"], probes)

    failures = [f for result in results.values() for f in result["failures"]]
    duration = time.monotonic() - started
    payload = {
        "schema": SCHEMA,
        "commit": git_commit(),
        "meta": environment_meta(),
        "seed": args.seed,
        "scale": scale,
        "reps": args.reps,
        "duration_s": duration,
        "workloads": results,
    }
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    if args.record:
        line = {
            key: payload[key]
            for key in ("commit", "meta", "seed", "scale", "reps")
        }
        line["end_to_end"] = {
            name: {
                metric: row["value"]
                for metric, row in result["end_to_end"].items()
            }
            for name, result in results.items()
        }
        line["checks_failed"] = len(failures)
        with open(HISTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"appended to {HISTORY}")
    print(f"\nduration {duration:.1f} s, {len(failures)} checks failed")
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Compare two suite outputs
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    with open(path_a, encoding="utf-8") as fh:
        side_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        side_b = json.load(fh)
    print(f"A = {path_a} ({side_a['commit'][:10]})   "
          f"B = {path_b} ({side_b['commit'][:10]})   ratio = B / A")
    print(f"{'workload':<15}{'metric':<22}{'A':>12}{'B':>12}{'ratio':>9}"
          f"{'bound':>7}  verdict")
    outside = 0
    for name in (w["name"] for w in spec["workloads"]):
        if name not in side_a["workloads"] or name not in side_b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            row_a = side_a["workloads"][name]["end_to_end"][metric["name"]]
            row_b = side_b["workloads"][name]["end_to_end"][metric["name"]]
            a, b, bound = row_a["value"], row_b["value"], metric["bound"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spreads = [
                row["spread"] for row in (row_a, row_b)
                if row.get("spread") is not None
            ]
            if any(spread > bound for spread in spreads):
                verdict = "unresolved"     # own spread exceeds the bound
            elif worse > bound:
                verdict = "outside"
                outside += 1
            else:
                verdict = "within"
            print(f"{name:<15}{metric['name']:<22}{a:>12.6g}{b:>12.6g}"
                  f"{b / a:>9.4f}{bound:>7.3f}  {verdict}")
        for side, label in ((side_a, "A"), (side_b, "B")):
            failed = side["workloads"][name]["checks_failed"]
            if failed:
                print(f"{name:<15}checks_failed on {label}: {failed}")
                outside += 1
    return 1 if outside else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--only", action="append", metavar="W")
    parser.add_argument("--skip-traced", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="one-tenth size (smoke test)")
    parser.add_argument("--out", default=None)
    parser.add_argument("--record", action="store_true",
                        help=f"append the end-to-end metrics to {HISTORY.name}")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    # Driver form.
    parser.add_argument("--workload", metavar="W")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one rep / the probes, in this process.
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--rep", help=argparse.SUPPRESS)
    parser.add_argument("--probes", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.rep:
        print(json.dumps(run_rep(args.rep, args.seed, args.scale,
                                 bool(args.trace))))
        return 0
    if args.probes:
        sys.path.insert(0, str(SRC))
        from probes import run_probes

        print(json.dumps(run_probes(reps=args.probes)))
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        if args.seconds is None:
            parser.error("--workload needs --seconds")
        return run_driver(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
