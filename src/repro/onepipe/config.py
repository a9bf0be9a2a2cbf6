"""Deployment configuration for a 1Pipe cluster."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.packet import DEFAULT_MTU_PAYLOAD
from repro.net.transport import TransportParams

# The three in-network incarnations (paper §6.2).
MODE_CHIP = "chip"
MODE_SWITCH_CPU = "switch_cpu"
MODE_HOST_DELEGATE = "host_delegate"
MODES = (MODE_CHIP, MODE_SWITCH_CPU, MODE_HOST_DELEGATE)

# The BFT-hardened incarnation (repro.byz): chip-style ordering with
# MAC-authenticated beacons/timestamps, cross-checked barrier register
# updates, and an evicting accusation flow.  Deliberately NOT part of
# ``MODES``: campaigns and verify sweeps cycle through ``MODES`` and
# their reports must stay byte-identical when adversarial testing is
# off, so the hardened mode only joins a sweep when explicitly
# requested (``--adversarial`` or ``--mode bft``).
MODE_BFT = "bft"
ALL_MODES = MODES + (MODE_BFT,)


@dataclass(frozen=True)
class OnePipeConfig:
    """All knobs of a 1Pipe deployment (defaults match the paper §7.1)."""

    # --- ordering plane -------------------------------------------------
    mode: str = MODE_CHIP
    beacon_interval_ns: int = 3_000          # paper: 3 us
    beacon_timeout_multiplier: int = 10      # dead link after 10 intervals
    # Switch-CPU incarnation: per-beacon processing delay on the switch CPU
    # (§6.2.2 — the CPU is ~1/3 of a host core and goes through the OS
    # stack, so micro-seconds per hop).
    switch_cpu_delay_ns: int = 10_000
    # Host-delegation incarnation: switch<->representative RTT plus host
    # processing, charged per hop (§6.2.3 — ~2 us per hop on the testbed).
    host_delegate_delay_ns: int = 2_000

    # --- endpoint data path ----------------------------------------------
    mtu_payload: int = DEFAULT_MTU_PAYLOAD
    cpu_ns_per_msg: int = 200                # receiver-side per-message CPU
    ack_timeout_ns: int = 50_000             # best-effort loss detection
    rtx_timeout_ns: int = 20_000             # reliable retransmission timer
    max_retransmissions: int = 10
    ack_bytes: int = 0                       # ACK payload size (headers only)
    transport: TransportParams = field(default_factory=TransportParams)

    # --- control plane ----------------------------------------------------
    # One-way latency of the management network between any component and
    # the controller (the paper assumes a separate, always-on management
    # network; see Appendix "such a cut can always be found").
    ctrl_delay_ns: int = 2_000
    # Settle window for relaying a beacon wave: after the first barrier
    # increase of a wave, the switch waits this long so the relayed
    # beacon aggregates the (almost simultaneous, §4.2) beacons of every
    # input link rather than a partial minimum.
    cascade_settle_ns: int = 100

    # --- BFT hardening (MODE_BFT only; see docs/BYZANTINE.md) -------------
    # Number of Byzantine components the hardened incarnation tolerates.
    # With f = 1, barrier register updates take effect only after f + 1
    # consecutive authenticated observations agree (the register advances
    # to the floor of the last two observations per link), bounding the
    # damage a single lying observation can do to one beacon interval.
    byz_f: int = 1
    # How many beacon intervals the controller waits after an accusation
    # before treating the eviction as settled (detection-latency bound
    # reported by the Byzantine monitor).
    byz_eviction_grace_intervals: int = 4

    def __post_init__(self) -> None:
        if self.mode not in ALL_MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}, expected {ALL_MODES}"
            )
        if self.beacon_interval_ns <= 0:
            raise ValueError("beacon interval must be positive")
        if self.beacon_timeout_multiplier < 2:
            raise ValueError("beacon timeout multiplier must be >= 2")

    @property
    def link_dead_timeout_ns(self) -> int:
        return self.beacon_interval_ns * self.beacon_timeout_multiplier
