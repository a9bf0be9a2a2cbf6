"""Exact cost counts of the six benchmark workloads.

Each workload of ``BENCHMARK.json`` runs once at ``perf/run.py --quick``
size, untraced, in a fresh interpreter of its own (the perf ``Tap``
patches classes, so workloads cannot share a process).  Only exact,
machine-independent quantities are recorded: the rep digest, scheduler
events, beacons sent, events per simulated microsecond, and attempted /
delivered counts.  Wall times stay out — they do not reproduce.  The
metrics are ``perf/run.py``'s own: ``events_per_sim_us`` comes from its
``fold``, and its per-message metrics (``sim.events_per_msg``,
``onepipe.beacons_per_msg``) are the recorded counts over ``delivered``.

The committed ``results/cost_counts.json`` is the cost gate: a change
that moves any count fails ``git diff --exit-code results/`` until the
file is regenerated and the change says why.  Children inherit the
caller's ``PYTHONHASHSEED``, so CI regenerating the file under a second
hash seed proves no count depends on set or dict iteration order.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from repro.bench import save_results

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perf" / "run.py"
SEED = 1

_spec = importlib.util.spec_from_file_location("perf_run", RUN)
perf_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_run)


def spawn_rep(name: str) -> subprocess.Popen:
    """One untraced ``perf/run.py`` rep; its last stdout line is JSON.

    Unlike ``perf_run.spawn_rep`` it inherits ``PYTHONHASHSEED``."""
    return subprocess.Popen(
        [sys.executable, str(RUN), "--rep", name, "--seed", str(SEED),
         "--scale", repr(perf_run.QUICK_SCALE), "--trace", "0"],
        stdout=subprocess.PIPE, text=True,
    )


def cost_counts(name: str, rep) -> dict:
    folded = perf_run.fold(name, SEED, [rep])
    assert folded["failures"] == [], folded["failures"]
    counts = rep["exact"]["counts"]
    return {
        "digest": folded["digest"],
        "sim.events": counts["sim.events"],
        "onepipe.beacons_sent": counts["onepipe.beacons_sent"],
        "events_per_sim_us":
            folded["end_to_end"]["events_per_sim_us"]["value"],
        "attempted": folded["attempted"],
        "delivered": folded["delivered"],
    }


def test_cost_counts():
    # The reps are independent processes: run them side by side.
    names = [workload["name"] for workload in perf_run.load_spec()["workloads"]]
    procs = {name: spawn_rep(name) for name in names}
    results = {}
    for name, proc in procs.items():
        out, _ = proc.communicate()
        assert proc.returncode == 0, f"{name} rep exited {proc.returncode}"
        results[name] = cost_counts(
            name, json.loads(out.strip().splitlines()[-1])
        )
    save_results("cost_counts", {
        "seed": SEED,
        "scale": perf_run.QUICK_SCALE,
        "workloads": results,
    })
    for name, row in results.items():
        assert 0 < row["delivered"] <= row["attempted"], name
        assert row["sim.events"] > 0, name
