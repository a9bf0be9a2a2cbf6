"""Open-loop multi-tenant workload engine (ROADMAP item 3).

The package models "millions of users" as seeded arrival processes
instead of closed-loop clients: per-tenant non-homogeneous Poisson
arrivals (diurnal and flash-crowd rate curves), Zipfian client and key
popularity, and per-tenant rate classes with retry policies.  Traffic
feeds the existing :mod:`repro.apps` layer through the host agents,
which apply admission control and bounded-queue backpressure
(:mod:`repro.onepipe.admission`).

Entry points:

- :mod:`repro.workload.scenarios` — the canned overload scenarios
  (hotspot tenant, flash crowd, retry storm);
- :mod:`repro.workload.runner` — deterministic scenario execution and
  JSON reports (``python -m repro.cli workload``);
- :mod:`repro.workload.generators` — the arrival/popularity primitives.

See docs/WORKLOADS.md.
"""

from repro.workload.generators import (
    OpenLoopArrivals,
    RateCurve,
    ZipfGenerator,
)
from repro.workload.tenants import RATE_CLASSES, RateClass, TenantSpec
from repro.workload.scenarios import SCENARIOS, ScenarioSpec, get_scenario
from repro.workload.runner import run_scenario

__all__ = [
    "OpenLoopArrivals",
    "RATE_CLASSES",
    "RateClass",
    "RateCurve",
    "SCENARIOS",
    "ScenarioSpec",
    "TenantSpec",
    "ZipfGenerator",
    "get_scenario",
    "run_scenario",
]
