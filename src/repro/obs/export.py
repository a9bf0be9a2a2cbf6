"""Exporters: deterministic JSON metrics reports and Chrome trace files.

Two artifacts come out of an instrumented run:

- a **metrics report** (``repro.obs.metrics/1``): the registry snapshot,
  sampler time series, and run metadata.  Pure function of (seed,
  knobs) — no wall-clock or environment data — so the same run twice is
  byte-identical (CI's ``determinism`` job compares two runs).
- a **Chrome trace-event file**: the JSON object format understood by
  ``chrome://tracing`` and Perfetto.  Tracer records become instant
  events (``ph: "i"``) on one track per component; sampler series
  become counter events (``ph: "C"``).  Timestamps are microseconds
  (float), converted from integer simulated nanoseconds.

Validation is hand-rolled (``validate_*`` return problem lists) because
the container has no ``jsonschema``; the CI job and the CLI both refuse
to emit artifacts that fail their validator.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.obs.sampler import Sampler
    from repro.sim.trace import Tracer

__all__ = [
    "KNOWN_BYZ_METRICS",
    "KNOWN_HYBRID_METRICS",
    "KNOWN_SHOOTOUT_METRICS",
    "KNOWN_WORKLOAD_METRICS",
    "METRICS_SCHEMA",
    "WORKLOAD_TENANT_COUNTERS",
    "WORKLOAD_TENANT_HISTOGRAMS",
    "build_chrome_trace",
    "build_metrics_report",
    "dumps_stable",
    "metrics_summary",
    "validate_chrome_trace",
    "validate_metrics_report",
    "write_json",
]

METRICS_SCHEMA = "repro.obs.metrics/1"

# The Byzantine-hardening counters (docs/BYZANTINE.md).  Metric names
# are otherwise free-form, but the ``byz.`` namespace is closed: the
# adversarial CI jobs compare reports byte-for-byte, so a typo'd name
# would silently fork the schema.  The validator rejects unknown
# ``byz.*`` names.
KNOWN_BYZ_METRICS = frozenset({
    "byz.accusations",          # controller: accusations recorded
    "byz.beacons_rejected",     # hosts + engines: beacon auth failures
    "byz.crosscheck_deferrals", # engines: f+1 cross-check holds
    "byz.evictions",            # controller: procs evicted on accusation
    "byz.notices_rejected",     # controller: forged/replayed reports
    "byz.payload_auth_failures",  # receivers: payload MAC mismatches
    "byz.ts_regressions_rejected",  # receivers: regressed timestamps
})

# The workload-engine SLO metrics (docs/WORKLOADS.md).  Same closure
# rationale as ``byz.*``: CI's determinism job compares reports
# byte-for-byte, so the namespace admits only the registered flat names
# plus per-tenant names of the form ``workload.tenant.<name>.<leaf>``
# with a registered leaf.
KNOWN_WORKLOAD_METRICS = frozenset({
    "workload.admitted",        # admission controllers: dispatched now
    "workload.arrivals",        # engine: first-time arrivals
    "workload.completed",       # engine: op futures resolved
    "workload.deferred",        # admission controllers: parked in FIFO
    "workload.dropped",         # engine: retry budget exhausted / dead host
    "workload.rejected",        # admission controllers: queue full
    "workload.retries",         # engine: backoff resubmissions scheduled
    "workload.timed_out",       # admission controllers: backstop releases
})
WORKLOAD_TENANT_COUNTERS = frozenset({
    "arrivals", "admitted", "deferred", "rejected", "retries",
    "dropped", "completed",
})
WORKLOAD_TENANT_HISTOGRAMS = frozenset({"delivery_lag_ns"})
KNOWN_WORKLOAD_HISTOGRAMS = frozenset({"workload.queue_wait_ns"})

# The hybrid-fidelity counters (docs/HYPERSCALE.md).  Same closure
# rationale again: the hyperscale-smoke CI job compares reports
# byte-for-byte, so the ``hybrid.`` namespace admits only the digest
# keys :meth:`repro.hybrid.fidelity.FidelityMap.digest` and the engine
# emit.
KNOWN_HYBRID_METRICS = frozenset({
    "hybrid.cross_shard_events",    # cold fabric: cold-to-cold cross-pod flows
    "hybrid.links_cold",            # fidelity map: flow-level links
    "hybrid.links_hot",             # fidelity map: packet-level links
    "hybrid.lookahead_stalls",      # cold fabric: empty inboxes, window >= 1
    "hybrid.passes",                # engine: fidelity fixed-point passes
    "hybrid.pods_cold",
    "hybrid.pods_hot",
    "hybrid.promotions_backpressure",  # cold pods gone hot: sustained util
    "hybrid.promotions_fault",         # cold pods gone hot: fault schedule
    "hybrid.promotions_watched",       # hot from the start: watched endpoints
    "hybrid.windows",               # cold-fabric barriers executed
})


# The baseline-shootout counters (docs/BASELINES.md).  Same closure
# rationale: CI's determinism job compares reports byte-for-byte,
# so the ``shootout.`` namespace admits only the counters the shootout
# cell runner emits.
KNOWN_SHOOTOUT_METRICS = frozenset({
    "shootout.broadcasts_sent",      # traffic driver: broadcasts issued
    "shootout.contract_violations",  # §2.1 oracle: divergences found
    "shootout.messages_delivered",   # members: deliveries recorded
})


def _workload_name_problem(name: str, kind: str) -> Optional[str]:
    """Validate one ``workload.*`` metric name; None when acceptable."""
    if name.startswith("workload.tenant."):
        rest = name[len("workload.tenant."):]
        tenant, _, leaf = rest.rpartition(".")
        known = (
            WORKLOAD_TENANT_COUNTERS if kind == "counter"
            else WORKLOAD_TENANT_HISTOGRAMS
        )
        if not tenant or leaf not in known:
            return (
                f"{kind} {name!r} not a registered per-tenant workload "
                f"metric (leaf must be one of {sorted(known)})"
            )
        return None
    known_flat = (
        KNOWN_WORKLOAD_METRICS if kind == "counter"
        else KNOWN_WORKLOAD_HISTOGRAMS
    )
    if name not in known_flat:
        return (
            f"{kind} {name!r} not a registered workload.* metric "
            f"(see KNOWN_WORKLOAD_METRICS)"
        )
    return None


# Chrome trace-event phases we emit: instant, counter, metadata.
_TRACE_PHASES = {"i", "C", "M"}


def write_json(obj: Any, path: str) -> None:
    """Stable JSON dump: sorted keys, 2-space indent, trailing newline.
    Creates the parent directory if it is missing."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_stable(obj))


def dumps_stable(obj: Any) -> str:
    """The exact bytes :func:`write_json` writes."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Metrics report
# ----------------------------------------------------------------------


def build_metrics_report(
    registry: "MetricsRegistry",
    sampler: Optional["Sampler"] = None,
    *,
    meta: Optional[Dict[str, Any]] = None,
    sim_now_ns: int = 0,
    events_processed: int = 0,
) -> Dict[str, Any]:
    """Assemble the ``repro.obs.metrics/1`` report dict.

    ``meta`` must contain only reproducible run parameters (seed, mode,
    host count, horizons) — never wall-clock times or host environment —
    or the byte-identity guarantee breaks.
    """
    return {
        "schema": METRICS_SCHEMA,
        "meta": dict(meta or {}),
        "sim": {
            "now_ns": int(sim_now_ns),
            "events_processed": int(events_processed),
        },
        "metrics": registry.snapshot(),
        "series": sampler.as_dict() if sampler is not None else {},
        "samples_taken": sampler.samples_taken if sampler is not None else 0,
    }


def metrics_summary(registry: "MetricsRegistry") -> Dict[str, Any]:
    """Compact registry digest for embedding in other JSON reports.

    The chaos campaign and verify runner attach this per episode when
    run with metrics enabled: every counter, plus count/p50/p99/max for
    every histogram (the full bucket vectors stay in the metrics report
    proper).  Key order is sorted, so embedding stays byte-stable.
    """
    return {
        "counters": registry.counters_as_dict(),
        "histograms": {
            name: {
                "count": h.count,
                "p50": h.quantile(0.50),
                "p99": h.quantile(0.99),
                "max": h.max_value,
            }
            for name, h in sorted(registry.histograms.items())
        },
    }


def validate_metrics_report(report: Any) -> List[str]:
    """Structural check of a metrics report; returns a list of problems."""
    problems: List[str] = []
    if not isinstance(report, dict):
        return ["report is not an object"]
    if report.get("schema") != METRICS_SCHEMA:
        problems.append(
            f"schema mismatch: {report.get('schema')!r} != {METRICS_SCHEMA!r}"
        )
    for key in ("meta", "sim", "metrics", "series"):
        if not isinstance(report.get(key), dict):
            problems.append(f"missing or non-object section: {key!r}")
    sim = report.get("sim")
    if isinstance(sim, dict):
        for key in ("now_ns", "events_processed"):
            if not isinstance(sim.get(key), int):
                problems.append(f"sim.{key} missing or not an int")
    metrics = report.get("metrics")
    if isinstance(metrics, dict):
        for section in ("counters", "gauges", "histograms"):
            if not isinstance(metrics.get(section), dict):
                problems.append(f"metrics.{section} missing or not an object")
        counters = metrics.get("counters")
        if isinstance(counters, dict):
            for name, value in counters.items():
                if not isinstance(value, int):
                    problems.append(f"counter {name!r} value not an int")
                if (
                    isinstance(name, str)
                    and name.startswith("byz.")
                    and name not in KNOWN_BYZ_METRICS
                ):
                    problems.append(
                        f"counter {name!r} not a registered byz.* metric "
                        f"(see KNOWN_BYZ_METRICS)"
                    )
                if isinstance(name, str) and name.startswith("workload."):
                    problem = _workload_name_problem(name, "counter")
                    if problem is not None:
                        problems.append(problem)
                if (
                    isinstance(name, str)
                    and name.startswith("hybrid.")
                    and name not in KNOWN_HYBRID_METRICS
                ):
                    problems.append(
                        f"counter {name!r} not a registered hybrid.* metric "
                        f"(see KNOWN_HYBRID_METRICS)"
                    )
                if (
                    isinstance(name, str)
                    and name.startswith("shootout.")
                    and name not in KNOWN_SHOOTOUT_METRICS
                ):
                    problems.append(
                        f"counter {name!r} not a registered shootout.* "
                        f"metric (see KNOWN_SHOOTOUT_METRICS)"
                    )
        histograms = metrics.get("histograms")
        if isinstance(histograms, dict):
            for name, hist in histograms.items():
                if isinstance(name, str) and name.startswith("workload."):
                    problem = _workload_name_problem(name, "histogram")
                    if problem is not None:
                        problems.append(problem)
                if not isinstance(hist, dict):
                    problems.append(f"histogram {name!r} not an object")
                    continue
                bounds = hist.get("bounds")
                counts = hist.get("counts")
                if not isinstance(bounds, list) or not isinstance(counts, list):
                    problems.append(f"histogram {name!r} missing bounds/counts")
                elif len(counts) != len(bounds) + 1:
                    problems.append(
                        f"histogram {name!r} bucket shape: "
                        f"{len(counts)} counts for {len(bounds)} bounds"
                    )
                elif isinstance(hist.get("count"), int) and sum(counts) != hist["count"]:
                    problems.append(f"histogram {name!r} counts do not sum to count")
    series = report.get("series")
    if isinstance(series, dict):
        for name, points in series.items():
            if not isinstance(points, list):
                problems.append(f"series {name!r} not a list")
                continue
            last_t = None
            for point in points:
                if not (isinstance(point, list) and len(point) == 2):
                    problems.append(f"series {name!r} has a malformed point")
                    break
                if last_t is not None and point[0] < last_t:
                    problems.append(f"series {name!r} timestamps not monotone")
                    break
                last_t = point[0]
    return problems


# ----------------------------------------------------------------------
# Chrome trace-event file
# ----------------------------------------------------------------------


def _sanitize(value: Any) -> Any:
    """Make a tracer field JSON-safe (tuples → lists, objects → repr)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    return repr(value)


def build_chrome_trace(
    tracer: Optional["Tracer"] = None,
    sampler: Optional["Sampler"] = None,
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a ``chrome://tracing``/Perfetto JSON-object-format document.

    One pid per traced component (sorted by name, so pid assignment is
    deterministic regardless of event order); pid 0 carries the sampler
    counter tracks.  ``ts`` is microseconds as required by the format;
    simulated integer ns divide to exact 1e-3 us ticks so the float
    repr — and therefore the emitted bytes — is stable.
    """
    events: List[Dict[str, Any]] = []
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "metrics"},
        }
    )
    if tracer is not None:
        components = sorted({component for _, component, _, _ in tracer.records})
        pids = {component: i + 1 for i, component in enumerate(components)}
        for component in components:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[component],
                    "tid": 0,
                    "args": {"name": component},
                }
            )
        for time, component, event, fields in tracer.records:
            record: Dict[str, Any] = {
                "name": event,
                "cat": component.split(".", 1)[0],
                "ph": "i",
                "s": "t",
                "ts": time / 1000.0,
                "pid": pids[component],
                "tid": 0,
            }
            if fields:
                record["args"] = {k: _sanitize(v) for k, v in fields.items()}
            events.append(record)
    if sampler is not None:
        for name, points in sampler.as_dict().items():
            for t, v in points:
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": t / 1000.0,
                        "pid": 0,
                        "tid": 0,
                        "args": {"value": v},
                    }
                )
    doc: Dict[str, Any] = {
        "displayTimeUnit": "ns",
        "traceEvents": events,
    }
    if meta:
        doc["otherData"] = dict(meta)
    return doc


def validate_chrome_trace(doc: Any) -> List[str]:
    """Structural check of a trace-event document; returns problems."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["trace is not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{i}] not an object")
            continue
        ph = event.get("ph")
        if ph not in _TRACE_PHASES:
            problems.append(f"traceEvents[{i}] unsupported phase: {ph!r}")
        if not isinstance(event.get("name"), str):
            problems.append(f"traceEvents[{i}] missing name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"traceEvents[{i}] missing pid")
        if ph != "M" and not isinstance(event.get("ts"), (int, float)):
            problems.append(f"traceEvents[{i}] missing ts")
        if ph == "C" and "args" not in event:
            problems.append(f"traceEvents[{i}] counter event without args")
        if len(problems) > 20:
            problems.append("... (truncated)")
            break
    return problems
