"""Cold fabric: flow-level windowed model of the unwatched pods.

:func:`run_cold_fabric` is one loop: every window it steps each cold
pod in ``cold_pods`` order.  A pod's state is its seeded flow
generator; one step advances it a window of ``window_ns`` simulated
nanoseconds:

1. draw this window's flow demand from the pod's private RNG stream
   (``hybrid.cold.<pod>`` — draws never depend on other pods);
2. fold in cross-pod flows emitted by other cold pods during the
   *previous* window (a one-window delay:
   ``window_ns <= cross_pod_lookahead_ns``, so no flow can arrive
   sooner);
3. compute this window's congestion, utilization, and beacon-wave
   floor from the closed forms in :mod:`repro.net.flow`, all in
   integer milli-units so every report byte is exact;
4. emit outgoing cross-pod flows for delivery at window ``w+1`` and a
   per-window output record.

Flows addressed to *hot* pods are not events — they are accounted as
``to_hot_bytes`` and become the congestion schedule the engine applies
to the hot island's core links (cold→hot coupling).  Hot→cold feedback
is deliberately ignored; docs/HYPERSCALE.md states the accuracy
envelope.

A window whose core utilization reaches the scenario's backpressure
threshold sets ``promote`` on its output: the closed form has left its
trust region there, and the engine re-runs with that pod hot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.net import flow
from repro.sim.randomness import RngStreams


@dataclass(frozen=True)
class ColdFabricConfig:
    """Everything a cold pod's step needs."""

    seed: int
    n_hosts: int                    # full modeled fabric (saturation term)
    window_ns: int
    flows_per_window: int           # fresh demand per pod per window
    local_fraction_pct: int         # % of flows staying inside the pod
    mean_flow_bytes: int
    backpressure_threshold_milli: int
    cold_pods: Tuple[int, ...]      # stepping and inbox order
    hot_pods: Tuple[int, ...]
    core_uplinks: int               # core-attach stripes per pod
    fabric_link_gbps: int
    host_link_gbps: int = 100

    def core_capacity_bytes(self) -> int:
        # gbps/8 = bytes per ns; topology params carry gbps as floats,
        # so pin to int here — everything downstream must stay integer.
        return int(self.core_uplinks * self.fabric_link_gbps) * self.window_ns // 8

    def host_window_bytes(self) -> int:
        """Most a single flow can offer in one window: its sending host's
        link-rate share.  Larger flows persist across windows in the
        model's aggregate (each window redraws demand), so per-window
        offered load is capped here rather than by flow lifetime."""
        return int(self.host_link_gbps) * self.window_ns // 8


@dataclass
class ColdPodState:
    """One cold pod's private state."""

    config: ColdFabricConfig
    pod: int
    beacon_bound_ns: int = 0
    rng: Any = field(default=None)

    def __post_init__(self) -> None:
        self.rng = RngStreams(self.config.seed).stream(
            f"hybrid.cold.{self.pod}"
        )


def _step_pod(
    state: ColdPodState, window: int, inbox: List[Tuple[str, int, int]]
) -> Tuple[Dict[str, int], List[Tuple[int, Tuple[str, int, int]]]]:
    """One window of one cold pod.  Pure integers in, pure integers out."""
    config = state.config
    pod = state.pod
    hot_pods = config.hot_pods
    remote_pods = [p for p in hot_pods + config.cold_pods if p != pod]
    # The three draws per flow are ``Random.randint``, ``randrange`` and
    # ``choice`` with their Python frames removed: each is CPython's
    # ``_randbelow`` — ``getrandbits(n.bit_length())``, redrawn while
    # ``>= n`` — so the stream position after every draw is the same
    # (tests/hybrid/test_sharding.py pins the equivalence).
    getrandbits = state.rng.getrandbits

    in_flows = len(inbox)
    in_bytes = sum(size for _kind, _src, size in inbox)

    local_flows = 0
    out_cold_bytes = 0
    to_hot_bytes = 0
    outbox: List[Tuple[int, Tuple[str, int, int]]] = []
    size_lo, size_hi = config.mean_flow_bytes // 2, config.mean_flow_bytes * 2
    window_cap = config.host_window_bytes()
    local_pct = config.local_fraction_pct
    size_span = size_hi - size_lo + 1
    size_bits = size_span.bit_length()
    n_remote = len(remote_pods)
    remote_bits = n_remote.bit_length()
    if not n_remote and local_pct < 100:
        raise IndexError("a remote flow needs another pod to address")
    for _ in range(config.flows_per_window):
        # A flow offers at most its host link's window share this window
        # (bigger flows show up as sustained demand across redraws).
        r = getrandbits(size_bits)  # randint(size_lo, size_hi)
        while r >= size_span:
            r = getrandbits(size_bits)
        size = min(size_lo + r, window_cap)
        r = getrandbits(7)  # randrange(100)
        while r >= 100:
            r = getrandbits(7)
        if r < local_pct:
            local_flows += 1
            continue
        # Remote: uniformly any other pod; hot destinations feed the
        # island's core-degradation schedule instead of the event plane.
        r = getrandbits(remote_bits)  # choice(remote_pods)
        while r >= n_remote:
            r = getrandbits(remote_bits)
        dst = remote_pods[r]
        if dst in hot_pods:
            to_hot_bytes += size
        else:
            out_cold_bytes += size
            outbox.append((dst, ("flow", pod, size)))
    n_flows = config.flows_per_window

    # Link-class concurrency: every flow crosses its edge links; remote
    # flows (in both directions) share the pod's core stripes.
    remote_out = n_flows_remote = config.flows_per_window - local_flows
    core_conc = n_flows_remote + in_flows
    cong_edge_milli = flow.congestion_milli(n_flows, config.n_hosts)
    cong_core_milli = flow.congestion_milli(core_conc, config.n_hosts)

    offered_core = out_cold_bytes + to_hot_bytes + in_bytes
    effective_cap = max(
        1, config.core_capacity_bytes() * 1000 // cong_core_milli
    )
    util_milli = offered_core * 1000 // effective_cap

    # Beacon-wave floor for this pod this window: the idle wave bound
    # stretched by stragglers at modeled scale and this window's core
    # congestion (integer milli-composition keeps it exact).
    straggler = flow.straggler_milli(config.n_hosts)
    beacon_lag_ns = (
        state.beacon_bound_ns * straggler * cong_core_milli // 1_000_000
    )

    output = {
        "pod": pod,
        "window": window,
        "flows": n_flows,
        "local_flows": local_flows,
        "remote_in": in_flows,
        "remote_out": remote_out,
        "in_bytes": in_bytes,
        "to_hot_bytes": to_hot_bytes,
        "cong_edge_milli": cong_edge_milli,
        "cong_core_milli": cong_core_milli,
        "util_milli": util_milli,
        "beacon_lag_ns": beacon_lag_ns,
        "promote": int(util_milli >= config.backpressure_threshold_milli),
    }
    return output, outbox


def run_cold_fabric(
    config: ColdFabricConfig, windows: int, beacon_bound_ns: int
) -> Tuple[Dict[int, List[Dict[str, int]]], Dict[str, int]]:
    """Step every cold pod through ``windows`` windows.

    ``beacon_bound_ns`` is the descriptor's idle cross-pod wave bound,
    threaded onto each state so the per-window beacon floor is closed
    over it.  A pod's outbox becomes its destinations' inboxes for the
    next window, in emitting-pod order.  Returns ``(outputs, counts)``:
    ``outputs[pod]`` lists the pod's per-window records; ``counts``
    holds ``windows``, ``cross_shard_events`` (cold-to-cold cross-pod
    flows emitted) and ``lookahead_stalls`` (pod windows after the
    first that found an empty inbox).
    """
    states = [
        ColdPodState(config=config, pod=pod, beacon_bound_ns=beacon_bound_ns)
        for pod in config.cold_pods
    ]
    outputs: Dict[int, List[Dict[str, int]]] = {
        pod: [] for pod in config.cold_pods
    }
    counts = {
        "cross_shard_events": 0, "lookahead_stalls": 0, "windows": windows,
    }
    inboxes: Dict[int, List[Tuple[str, int, int]]] = {}
    for window in range(windows):
        next_inboxes: Dict[int, List[Tuple[str, int, int]]] = {}
        for state in states:
            inbox = inboxes.get(state.pod, [])
            if window > 0 and not inbox:
                counts["lookahead_stalls"] += 1
            output, outbox = _step_pod(state, window, inbox)
            outputs[state.pod].append(output)
            counts["cross_shard_events"] += len(outbox)
            for dst, event in outbox:
                next_inboxes.setdefault(dst, []).append(event)
        inboxes = next_inboxes
    return outputs, counts


def summarize_cold(
    outputs: Dict[int, List[Dict[str, int]]],
    counts: Dict[str, int],
    min_promote_windows: int = 1,
) -> Dict[str, Any]:
    """Digest of a cold-fabric run.

    ``core_schedule`` is the per-window maximum core congestion across
    pods — the degradation profile the engine applies to the hot
    island's core links.  ``promote_pods`` are the pods whose closed
    form hit the backpressure threshold in at least
    ``min_promote_windows`` windows: demand is stochastic, so a lone
    spike window is noise, while *sustained* over-threshold utilization
    means admission backpressure would engage and the pod must go hot.
    """
    pods = sorted(outputs)
    n_windows = max((len(outputs[p]) for p in pods), default=0)
    core_schedule: List[int] = []
    beacon_lag_max = 0
    util_max = 0
    flows_total = 0
    to_hot_bytes = 0
    promote_pods: List[int] = []
    for w in range(n_windows):
        worst = 1000
        for pod in pods:
            rec = outputs[pod][w]
            worst = max(worst, rec["cong_core_milli"])
            beacon_lag_max = max(beacon_lag_max, rec["beacon_lag_ns"])
            util_max = max(util_max, rec["util_milli"])
        core_schedule.append(worst)
    promote_windows: Dict[int, int] = {}
    for pod in pods:
        over = 0
        for rec in outputs[pod]:
            flows_total += rec["flows"]
            to_hot_bytes += rec["to_hot_bytes"]
            over += rec["promote"]
        promote_windows[pod] = over
        if over >= min_promote_windows:
            promote_pods.append(pod)
    return {
        "pods": len(pods),
        "windows": n_windows,
        "flows_total": flows_total,
        "to_hot_bytes": to_hot_bytes,
        "util_max_milli": util_max,
        "cong_core_max_milli": max(core_schedule, default=1000),
        "beacon_lag_max_ns": beacon_lag_max,
        "core_schedule": core_schedule,
        "promote_windows": promote_windows,
        "promote_pods": sorted(promote_pods),
        "counts": counts,
    }
