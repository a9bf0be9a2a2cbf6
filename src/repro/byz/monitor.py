"""Byzantine-aware invariant monitoring.

:class:`ByzantineMonitor` extends the fail-stop
:class:`~repro.chaos.monitor.InvariantMonitor` for episodes in which
components can *lie* rather than merely crash.  The §2.1 attack rules
(equivocation, an unevicted lying sender, a framed process, completions
denied under a corrupted barrier) live in the reference oracle, which
the monitor hands the schedule's :func:`attack_info`.  The monitor adds
the checks that read controller state the oracle's observation does
not carry:

- **Wrongful host eviction (final)** — a host evicted in an episode
  whose only faults are adversarial, without being an adversary the
  hardened mode is *expected* to evict, was framed
  (``byz_forge_notice``).  Host-level, so wider than the oracle's
  per-process rule.
- **Containment (final, ``MODE_BFT`` only)** — every adversary the
  schedule planted must leave a detection trail: lying/equivocating
  hosts evicted within the configured grace, corrupt beacon engines
  accused, forged notices rejected.

Each adversarial kind is pinned to the §2.1 clause it violates via
:data:`ADVERSARY_CLAUSES`; violation details embed the clause so a red
campaign report names the broken guarantee, not just the symptom.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chaos.monitor import InvariantMonitor
from repro.onepipe.config import MODE_BFT
from repro.verify.oracle import AttackInfo

# Adversary kind -> the §2.1 clause it breaks in un-hardened modes.
ADVERSARY_CLAUSES = {
    "byz_lying_sender": (
        "§2.1 total order (O1): a sender's timestamps are monotone, so "
        "delivery order matches timestamp order"
    ),
    "byz_corrupt_beacon": (
        "§2.1 ordered delivery (O1) via the §4.2 barrier promise: an "
        "emitted barrier never passes timestamps still in flight"
    ),
    "byz_equivocate": (
        "§2.1 integrity / agreement (O3): every receiver of a "
        "scattering sees the sender's single message"
    ),
    "byz_forge_notice": (
        "§2.1 reliable completion (O6) and restricted failure atomicity "
        "(O5): correct processes are never evicted on fabricated "
        "failure evidence"
    ),
}

# Legitimate kinds that can cause a justified host eviction (dead links
# long enough for §5.2 Determine to fire).  When any of these is in the
# schedule, eviction attribution is ambiguous and the wrongful-eviction
# checks stand down.
_EVICTION_CAPABLE = frozenset({
    "crash_host", "cable_flap", "switch_flap", "link_flap",
    "burst_loss", "degrade_link", "straggler", "ctrl_partition",
})


def attack_info(faults) -> Optional[AttackInfo]:
    """The oracle's attack-mode input for a list of fault events.

    Returns None for fault lists without adversarial (``byz_*``) kinds,
    so plain episodes check exactly as they would without attack mode.
    """
    adversaries = [
        (event.kind, event.target)
        for event in faults
        if event.kind in ADVERSARY_CLAUSES
    ]
    if not adversaries:
        return None
    return AttackInfo(
        adversaries=adversaries,
        eviction_capable_faults=any(
            event.kind in _EVICTION_CAPABLE for event in faults
        ),
    )


class ByzantineMonitor(InvariantMonitor):
    """An :class:`InvariantMonitor` that also knows who the adversary is.

    Construct like the base monitor, then hand it the episode's
    :class:`~repro.chaos.schedule.ChaosSchedule` via
    :meth:`set_schedule` (the campaign builds the monitor before it
    draws the schedule).  The oracle then runs its attack rules; the
    host-level checks here are additive.
    """

    def __init__(self, cluster, schedule=None, **kwargs) -> None:
        super().__init__(cluster, **kwargs)
        self._bft = cluster.config.mode == MODE_BFT
        self.set_schedule(schedule or [])

    def set_schedule(self, schedule) -> None:
        self.attack = attack_info(list(schedule))
        self._adversaries = self.attack.adversaries if self.attack else []

    # ------------------------------------------------------------------
    # Final checks
    # ------------------------------------------------------------------
    def final_check(self):
        super().final_check()
        self.wrongful_host_eviction()
        if self._bft:
            self.check_adversary_contained()
        return self.violations

    def _target_procs(self, host_id: str) -> List[int]:
        agent = self.cluster.agents.get(host_id)
        return sorted(agent.endpoints) if agent is not None else []

    def wrongful_host_eviction(self) -> None:
        """In a purely adversarial episode, the only hosts that may end
        up evicted are adversaries the hardened mode is expected to
        evict — anything else was framed by fabricated evidence."""
        controller = self.cluster.controller
        attack = self.attack
        if controller is None or attack is None:
            return
        if attack.eviction_capable_faults:
            return  # a real fault could justify the eviction
        expected = set(attack.targets("byz_lying_sender"))
        expected.update(attack.targets("byz_equivocate"))
        for host_id in sorted(controller.failed_hosts):
            if host_id in expected:
                continue
            self._record(
                "wrongful_host_eviction",
                f"correct host {host_id} was evicted without any real "
                f"fault ({ADVERSARY_CLAUSES['byz_forge_notice']})",
            )

    def check_adversary_contained(self) -> None:
        """``MODE_BFT``: every planted adversary that acted must have
        left a detection trail (accusation, eviction, or rejection)."""
        controller = self.cluster.controller
        if controller is None:
            return
        config = self.cluster.config
        grace_ns = (
            config.byz_eviction_grace_intervals * config.beacon_interval_ns
        )
        for kind, target in self._adversaries:
            clause = ADVERSARY_CLAUSES[kind]
            if kind in ("byz_lying_sender", "byz_equivocate"):
                procs = set(self._target_procs(target))
                if not procs:
                    continue
                # Only require eviction when a receiver or engine
                # actually witnessed the misbehavior and accused (an
                # idle adversary — no sends in its window — is
                # indistinguishable from an honest process).
                evidence = [
                    t for (t, _a, s, _d) in controller.accusations
                    if s in procs
                ]
                if not evidence:
                    continue
                evicted = [
                    t for (t, p, _d) in controller.evictions if p in procs
                ]
                if not evicted:
                    self._record(
                        "adversary_undetected",
                        f"{kind} on {target} was accused but "
                        f"never evicted ({clause})",
                    )
                elif min(evicted) - min(evidence) > grace_ns:
                    self._record(
                        "slow_eviction",
                        f"{kind} on {target} evicted "
                        f"{min(evicted) - min(evidence)}ns after the "
                        f"first accusation (grace {grace_ns}ns, {clause})",
                    )
            elif kind == "byz_corrupt_beacon":
                rejections = sum(
                    getattr(agent, "beacons_rejected", 0)
                    for agent in self.cluster.agents.values()
                ) + sum(
                    getattr(engine, "beacons_rejected", 0)
                    for engine in self.cluster.engines.values()
                )
                accused = any(
                    s == target
                    for (_t, _a, s, _d) in controller.accusations
                )
                if rejections and not accused:
                    self._record(
                        "adversary_undetected",
                        f"corrupt beacon engine {target} had "
                        f"beacons rejected but was never accused "
                        f"({clause})",
                    )
            elif kind == "byz_forge_notice":
                if controller.reports_rejected < 1:
                    self._record(
                        "adversary_undetected",
                        f"forged dead-link notice naming {target} "
                        f"was not rejected ({clause})",
                    )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def adversary_summary(self) -> List[Dict[str, object]]:
        """One entry per planted adversary, with the clause it attacks
        and the cluster's response — campaign report material."""
        controller = self.cluster.controller
        out: List[Dict[str, object]] = []
        for kind, target in self._adversaries:
            entry: Dict[str, object] = {
                "kind": kind,
                "target": target,
                "clause": ADVERSARY_CLAUSES[kind],
            }
            if controller is not None:
                procs = set(self._target_procs(target))
                entry["accused"] = sorted({
                    str(s)
                    for (_t, _a, s, _d) in controller.accusations
                    if s == target or s in procs
                })
                entry["evicted"] = sorted({
                    p for (_t, p, _d) in controller.evictions if p in procs
                })
            out.append(entry)
        return out
