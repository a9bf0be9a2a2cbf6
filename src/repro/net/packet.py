"""Packets and the 1Pipe header model.

The paper adds 24 bytes to each RDMA UD packet (§6.1): three 48-bit
timestamps (message, best-effort barrier, commit barrier), a packet
sequence number, an opcode, and an end-of-message flag.  We model those
fields directly as attributes; ``HEADER_OVERHEAD_BYTES`` accounts for them
in every size computation so bandwidth-overhead numbers (Fig. 13b) come
out of the same model.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from typing import Any, Optional

# 1Pipe-specific header bytes added to every packet (paper §6.1).
ONEPIPE_HEADER_BYTES = 24
# Baseline UD/UDP/IP/Ethernet headers (approximate, matches RoCEv2 UD).
BASE_HEADER_BYTES = 60
HEADER_OVERHEAD_BYTES = ONEPIPE_HEADER_BYTES + BASE_HEADER_BYTES

# Default MTU payload per packet; messages larger than this fragment.
DEFAULT_MTU_PAYLOAD = 1024

# Size of a beacon packet: headers only, no payload (paper §4.2).
BEACON_BYTES = HEADER_OVERHEAD_BYTES


class PacketKind(IntEnum):
    """Opcode field of the 1Pipe header (plus kinds used by baselines)."""

    DATA = 0        # best-effort 1Pipe data
    RDATA = 1       # reliable 1Pipe data (Prepare phase of 2PC)
    ACK = 2         # end-to-end acknowledgment
    NAK = 3         # negative ack: late or rejected packet
    BEACON = 4      # hop-by-hop barrier carrier on idle links
    RECALL = 5      # scattering recall during failure handling
    RECALL_ACK = 6  # ack of a recall
    CTRL = 7        # controller <-> process management traffic
    RAW = 8         # plain messaging for baselines / background traffic
    RDMA_READ = 9
    RDMA_WRITE = 10
    RDMA_CAS = 11
    RDMA_RESP = 12


_packet_ids = itertools.count()


class Packet:
    """A single packet in flight.

    ``src`` / ``dst`` are process identifiers (ints) or ``-1`` for
    node-level traffic such as beacons.  ``src_host`` / ``dst_host`` are
    node identifiers used for routing and for returning ACKs.

    ``msg_ts`` is the sender-assigned message timestamp; ``barrier_ts`` the
    best-effort barrier field rewritten by programmable switches along the
    path; ``commit_ts`` the commit barrier used by reliable 1Pipe.
    """

    __slots__ = (
        "pkt_id",
        "kind",
        "src",
        "dst",
        "src_host",
        "dst_host",
        "msg_ts",
        "barrier_ts",
        "commit_ts",
        "psn",
        "msg_id",
        "last_frag",
        "payload_bytes",
        "payload",
        "ecn",
        "sent_at",
        "meta",
        "auth",
    )

    def __init__(
        self,
        kind: PacketKind,
        src: int = -1,
        dst: int = -1,
        src_host: str = "",
        dst_host: str = "",
        msg_ts: int = 0,
        barrier_ts: int = 0,
        commit_ts: int = 0,
        psn: int = 0,
        msg_id: int = 0,
        last_frag: bool = True,
        payload_bytes: int = 0,
        payload: Any = None,
        sent_at: int = 0,
        meta: Optional[dict] = None,
    ) -> None:
        self.pkt_id = next(_packet_ids)
        self.kind = kind
        self.src = src
        self.dst = dst
        self.src_host = src_host
        self.dst_host = dst_host
        self.msg_ts = msg_ts
        self.barrier_ts = barrier_ts
        self.commit_ts = commit_ts
        self.psn = psn
        self.msg_id = msg_id
        self.last_frag = last_frag
        self.payload_bytes = payload_bytes
        self.payload = payload
        self.ecn = False
        self.sent_at = sent_at
        self.meta = meta
        # Simulated MAC tag (repro.byz): 0 means unauthenticated.  Only
        # MODE_BFT components stamp or verify it; every other mode
        # leaves it at 0 so the fail-stop hot paths are unchanged.
        self.auth = 0

    @property
    def wire_bytes(self) -> int:
        """Total bytes this packet occupies on the wire."""
        return self.payload_bytes + HEADER_OVERHEAD_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet#{self.pkt_id} {self.kind.name} {self.src}->{self.dst} "
            f"ts={self.msg_ts} barrier={self.barrier_ts} "
            f"commit={self.commit_ts} psn={self.psn}>"
        )


def fragment_sizes(message_bytes: int, mtu_payload: int = DEFAULT_MTU_PAYLOAD):
    """Split a message into per-packet payload sizes.

    >>> fragment_sizes(2500, 1024)
    [1024, 1024, 452]
    >>> fragment_sizes(0, 1024)
    [0]
    """
    if message_bytes < 0:
        raise ValueError(f"negative message size: {message_bytes}")
    if mtu_payload <= 0:
        raise ValueError(f"mtu must be positive: {mtu_payload}")
    if message_bytes == 0:
        return [0]
    sizes = []
    remaining = message_bytes
    while remaining > 0:
        take = min(remaining, mtu_payload)
        sizes.append(take)
        remaining -= take
    return sizes
