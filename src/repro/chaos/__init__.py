"""Chaos campaign harness: gray-failure injection + invariant monitoring.

The crash-stop injector in :mod:`repro.net.failures` covers the paper's
fail-stop model (§2.1).  This package adds everything a datacenter
actually throws at a total-order fabric — bursty loss, degraded links,
straggling switch CPUs, clock trouble, controller partitions — plus a
cluster-wide monitor that records a run for the §2.1 reference oracle
and a seeded campaign runner that drives all three switch incarnations
through randomized fault schedules and reports violations with
replayable seeds.
"""

from repro.chaos.campaign import CampaignRunner, TrafficDriver
from repro.chaos.monitor import InvariantMonitor, InvariantViolation
from repro.chaos.schedule import ChaosInjector, ChaosSchedule, FaultEvent

__all__ = [
    "CampaignRunner",
    "ChaosInjector",
    "ChaosSchedule",
    "FaultEvent",
    "InvariantMonitor",
    "InvariantViolation",
    "TrafficDriver",
]
