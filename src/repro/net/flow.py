"""Flow-level (closed-form) congestion and straggler models.

The hybrid-fidelity mode (:mod:`repro.hybrid`) keeps packet-level
simulation only on the links that matter and models the rest of a
10k–1M-host fabric with the closed-form machinery here, following the
approach of "Scalable Tail Latency Estimation for Data Center Networks"
(see PAPERS.md):

- **Congestion factor** — concurrent flows sharing a link class degrade
  each other beyond the fair bandwidth split:
  ``1 + δ·log(1 + concurrent)``, with the fat-tree δ and an extra
  saturation term at very large scale.
- **Straggler factor** — a synchronized wave (a §4.2 beacon barrier) is
  bounded by its slowest participant; the expected overhead grows with
  scale but decays into a bounded ceiling (tail-of-maxima saturates).
- **Idle wave latency** — the exact, integer closed form of a beacon
  traversing an idle link chain; on an idle link it equals event-level
  latency *to the nanosecond* (the property anchoring the hybrid mode's
  exactness claims; see ``tests/hybrid/test_flow_model.py``).

All quantities consumed by the sharded fabric are integers (milli-units
for dimensionless factors), so per-pod computations are bit-identical
regardless of worker partitioning.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.net.packet import BEACON_BYTES

# Congestion coefficient δ: how much concurrent flows on a shared link
# class hurt each other beyond the fair share (the fat-tree value, which
# reflects its full bisection bandwidth).
CONGESTION_DELTA = 0.10

# Scale beyond which network saturation adds congestion on top of the
# concurrency term, and its per-doubling coefficient.
SATURATION_HOSTS = 4096
SATURATION_COEFF = 0.02

# Straggler model: overhead ceiling and the host-count scale constant of
# its saturating growth (1 + CEIL * (1 - exp(-n / TAU))).
STRAGGLER_CEILING = 0.15
STRAGGLER_TAU_HOSTS = 1024.0


def congestion_factor(concurrent: int, n_hosts: int = 0) -> float:
    """Bandwidth-degradation multiplier for ``concurrent`` flows.

    Returns 1.0 for a lone flow; grows logarithmically in the number of
    concurrent flows sharing the link class, plus a saturation term once
    the modeled fabric exceeds :data:`SATURATION_HOSTS` hosts.  Always
    >= 1 and monotone in both arguments (Hypothesis-checked).
    """
    if concurrent < 0:
        raise ValueError(f"negative concurrency: {concurrent}")
    if concurrent <= 1:
        factor = 1.0
    else:
        factor = 1.0 + CONGESTION_DELTA * math.log(1 + concurrent)
    if n_hosts > SATURATION_HOSTS:
        factor += SATURATION_COEFF * math.log2(n_hosts / SATURATION_HOSTS)
    return factor


def congestion_milli(concurrent: int, n_hosts: int = 0) -> int:
    """:func:`congestion_factor` quantized to integer milli-units.

    The sharded cold fabric does all bandwidth math in integers so that
    merged reports are byte-identical for every ``--workers`` value;
    this is the only place a float enters that path, and it leaves as a
    platform-stable ``round``.
    """
    return round(congestion_factor(concurrent, n_hosts) * 1000)


def straggler_factor(n_hosts: int) -> float:
    """Wave-completion overhead of a synchronized barrier at scale.

    The slowest of ``n_hosts`` participants bounds a beacon wave; the
    expected straggler overhead grows with scale but its *increments*
    decay — the factor saturates at ``1 + STRAGGLER_CEILING``.  Always
    in ``[1, 1 + STRAGGLER_CEILING]`` and monotone in ``n_hosts``.
    """
    if n_hosts < 0:
        raise ValueError(f"negative host count: {n_hosts}")
    if n_hosts <= 1:
        return 1.0
    return 1.0 + STRAGGLER_CEILING * (
        1.0 - math.exp(-n_hosts / STRAGGLER_TAU_HOSTS)
    )


def straggler_milli(n_hosts: int) -> int:
    """:func:`straggler_factor` in integer milli-units (see above)."""
    return round(straggler_factor(n_hosts) * 1000)


def beacon_hop_ns(link) -> int:
    """Exact idle-link beacon latency of one :class:`repro.net.link.Link`.

    Serialization at the link's (possibly degraded) rate, propagation,
    and any degradation extra delay — the integer a beacon enqueued on
    the idle link at ``t`` is delivered at ``t + beacon_hop_ns(link)``.
    Uses the link's own precomputed ``_beacon_ser_ns`` so degradation
    changes are picked up exactly.
    """
    return link._beacon_ser_ns + link.prop_delay_ns + link.degraded_extra_delay_ns


def idle_wave_latency_ns(links: Iterable, forwarding_delay_ns: int = 0) -> int:
    """Closed-form latency of a beacon crossing an idle chain of links.

    ``forwarding_delay_ns`` is charged once per link *boundary* (each
    physical switch traversal between consecutive links), matching the
    event-level pipeline.  On a single idle link this equals the
    event-level delivery time exactly (asserted by the property suite).
    """
    total = 0
    count = 0
    for link in links:
        total += beacon_hop_ns(link)
        count += 1
    if count > 1:
        total += (count - 1) * int(forwarding_delay_ns)
    return total


def beacon_wire_ns(bandwidth_gbps: float) -> int:
    """Idle serialization time of one beacon at ``bandwidth_gbps``."""
    return int(BEACON_BYTES / (bandwidth_gbps / 8.0))
