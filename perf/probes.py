"""Layer probes: direct calls into one layer's public functions with
nothing else running.  Each reports host nanoseconds per operation,
best of ``reps`` (CPU time, ``time.process_time``).

Owned by ``perf/`` — not imported from ``repro.bench.microbench`` — so a
later refactor of that module cannot change the instrument.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Tuple


def _noop() -> None:
    pass


def dispatch(ops: int) -> Tuple[float, int]:
    """``sim.dispatch_ns_per_event``: 64 self-rescheduling chains, half
    on ``schedule`` (handle) and half on ``post`` (no handle)."""
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    chains = 64
    remaining = [ops // chains] * chains
    schedule, post = sim.schedule, sim.post

    def tick(i: int) -> None:
        remaining[i] -= 1
        if remaining[i]:
            (post if i % 2 else schedule)(97 + i, tick, i)

    for i in range(chains):
        schedule(i + 1, tick, i)
    start = time.process_time()
    sim.run()
    return time.process_time() - start, sim.events_processed


def timer_cancel(ops: int) -> Tuple[float, int]:
    """``sim.timer_cancel_ns_per_op``: ``schedule_timer`` + ``cancel``,
    90 % cancelled long before they would fire (ACKed retransmission
    timers)."""
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    batch = 500
    cancel_per_batch = batch * 9 // 10
    rounds = ops // (batch + cancel_per_batch)
    start = time.process_time()
    for _ in range(rounds):
        handles = [
            sim.schedule_timer(20_000 + (i % 13), _noop) for i in range(batch)
        ]
        for handle in handles[:cancel_per_batch]:
            handle.cancel()
        sim.run_for(25_000)
    sim.run()
    return time.process_time() - start, rounds * (batch + cancel_per_batch)


def forward(ops: int) -> Tuple[float, int]:
    """``net.forward_ns_per_pkt``: ``Host.send_packet`` -> ``Link`` ->
    endpoint, paced 1 KB packets host to host."""
    from repro.net.link import Link
    from repro.net.nic import Host
    from repro.net.packet import Packet, PacketKind
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    src = Host(sim, "probe-src")
    dst = Host(sim, "probe-dst")
    link = Link(sim, "probe-src->probe-dst", src, dst)
    src.set_uplink(link)
    dst.set_downlink(link)
    delivered = [0]

    def sink(_packet) -> None:
        delivered[0] += 1

    dst.register_endpoint(1, sink)
    sent = [0]

    def feed() -> None:
        for _ in range(10):
            if sent[0] >= ops:
                return
            sent[0] += 1
            src.send_packet(Packet(
                PacketKind.DATA, src=0, dst=1, dst_host="probe-dst",
                msg_id=sent[0], payload_bytes=1000,
            ))
        sim.schedule(1_000, feed)

    sim.schedule(0, feed)
    start = time.process_time()
    sim.run()
    elapsed = time.process_time() - start
    if delivered[0] != ops:
        raise RuntimeError(f"forward probe delivered {delivered[0]}/{ops}")
    return elapsed, ops


def _obs(enabled: bool, ops: int) -> Tuple[float, int]:
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry(enabled=enabled)
    counter = registry.counter("probe.ops")
    histogram = registry.histogram("probe.lat_ns")
    start = time.process_time()
    for i in range(ops):
        # The instrumentation idiom of every hot path in the tree.
        if registry.enabled:
            counter.add()
            histogram.observe(i & 0xFFFFF)
    elapsed = time.process_time() - start
    if counter.value != (ops if enabled else 0):
        raise RuntimeError(f"obs probe counted {counter.value}")
    return elapsed, ops


def obs_disabled(ops: int) -> Tuple[float, int]:
    """``obs.guard_ns_per_op_disabled``: the guard alone."""
    return _obs(False, ops)


def obs_enabled(ops: int) -> Tuple[float, int]:
    """``obs.update_ns_per_op_enabled``: counter add + histogram observe."""
    return _obs(True, ops)


# metric name -> (probe, operations per repetition)
PROBES: Dict[str, Tuple[Callable[[int], Tuple[float, int]], int]] = {
    "sim.dispatch_ns_per_event": (dispatch, 192_000),
    "sim.timer_cancel_ns_per_op": (timer_cancel, 190_000),
    "net.forward_ns_per_pkt": (forward, 20_000),
    "obs.guard_ns_per_op_disabled": (obs_disabled, 2_000_000),
    "obs.update_ns_per_op_enabled": (obs_enabled, 400_000),
}


def run_probes(reps: int) -> Dict[str, float]:
    """Best-of-``reps`` ns per operation for every probe, interleaved
    so a slow phase of the machine is spread over all of them."""
    best: Dict[str, float] = {}
    for _ in range(reps):
        for name, (probe, ops) in PROBES.items():
            elapsed, done = probe(ops)
            ns_per_op = elapsed * 1e9 / done
            if name not in best or ns_per_op < best[name]:
                best[name] = ns_per_op
    return best
