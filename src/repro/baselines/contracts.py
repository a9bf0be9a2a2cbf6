"""Per-protocol ordering contracts for the baseline shootout.

Every protocol in the shootout is verified against *what it actually
promises*, not against 1Pipe's contract.  A relaxed oracle checks each
delivered log against the protocol's :class:`OrderingContract`:

====================  =======================================================
Contract              Promise
====================  =======================================================
UNIFORM_TOTAL_ORDER   Delivered logs are prefixes of one total order: agreed
                      keys, no holes, per-sender FIFO.  (sequencer, token,
                      switch-Paxos — hold-back queues make loss stall, never
                      skip.)
AGREED_TOTAL_ORDER    Agreed keys and per-sender FIFO, but holes are allowed:
                      over lossy channels an unretransmitted broadcast is
                      simply missing.  (Lamport-clock broadcast.)
EVENTUAL_TOTAL_ORDER  Same as AGREED plus an explicit *stability lag*: order
                      is only probabilistic until the TTL round bound passes,
                      so delivery trails sending by ~ttl gossip rounds.
                      (EpTO.)
====================  =======================================================

1Pipe itself is checked by the §2.1 reference oracle
(``repro.verify.oracle.ReferenceOracle``, fed by
:class:`repro.chaos.monitor.InvariantMonitor`); the shootout folds
those violations into the same report format under the contract name
``ONEPIPE_S21``.

The oracle's inputs are protocol-agnostic: per-member delivered logs of
``(order_key, src_index, payload)`` (the :class:`BroadcastGroup`
``delivered_log`` format) and the per-sender send history.  Payloads
must be unique per sender (the shootout sends ``(sender, round)``
tuples), which is what lets the checker identify a message across
members without trusting the protocol's own keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

# Delivered-log entry: (order_key, src_index, payload).
LogEntry = Tuple[Any, int, Any]


@dataclass(frozen=True)
class OrderingContract:
    """What a total-order protocol promises its members."""

    name: str
    agreement: bool  # every message gets the same order key everywhere
    prefix: bool     # logs are prefixes of one total order (no holes)
    fifo: bool       # per-sender delivery follows send order
    completeness: str  # "all" (clean run delivers everything) | "best_effort"


UNIFORM_TOTAL_ORDER = OrderingContract(
    "uniform_total_order",
    agreement=True, prefix=True, fifo=True, completeness="all",
)
AGREED_TOTAL_ORDER = OrderingContract(
    "agreed_total_order",
    agreement=True, prefix=False, fifo=True, completeness="all",
)
EVENTUAL_TOTAL_ORDER = OrderingContract(
    "eventual_total_order",
    agreement=True, prefix=False, fifo=True, completeness="best_effort",
)
# Marker for 1Pipe cells: violations come from the §2.1 monitor.
ONEPIPE_S21 = OrderingContract(
    "onepipe_s21",
    agreement=True, prefix=True, fifo=True, completeness="best_effort",
)

# Which contract each shootout protocol is held to.
PROTOCOL_CONTRACTS: Dict[str, OrderingContract] = {
    "lamport": AGREED_TOTAL_ORDER,
    "sequencer": UNIFORM_TOTAL_ORDER,
    "token": UNIFORM_TOTAL_ORDER,
    "epto": EVENTUAL_TOTAL_ORDER,
    "switchpaxos": UNIFORM_TOTAL_ORDER,
    "onepipe": ONEPIPE_S21,
}


def check_contract(
    contract: OrderingContract,
    logs: Sequence[Sequence[LogEntry]],
    sends: Dict[int, List[Any]],
    expect_complete: bool = False,
) -> List[dict]:
    """Check delivered logs against a contract; return violation dicts.

    ``logs[i]`` is member *i*'s delivered log; ``sends[src]`` is the
    payload sequence member ``src`` broadcast, in send order.
    ``expect_complete`` asserts the ``completeness == "all"`` clause
    (the shootout sets it only for the fault-free scenario).
    """
    violations: List[dict] = []

    def flag(rule: str, member: int, detail: str) -> None:
        violations.append({
            "contract": contract.name,
            "rule": rule,
            "member": member,
            "detail": detail,
        })

    # Rule: delivered order follows the order keys, strictly.
    for i, log in enumerate(logs):
        for prev, entry in zip(log, log[1:]):
            if prev[0] >= entry[0]:
                flag(
                    "sorted", i,
                    f"key {entry[0]!r} delivered after {prev[0]!r}",
                )
                break

    # Rule: no message delivered twice by one member.
    for i, log in enumerate(logs):
        seen = set()
        for _key, src, payload in log:
            msg = (src, payload)
            if msg in seen:
                flag("no_duplicates", i, f"message {msg!r} delivered twice")
                break
            seen.add(msg)

    # Rule: agreement — one order key per message, everywhere.
    if contract.agreement:
        keys: Dict[Tuple[int, Any], Any] = {}
        done = False
        for i, log in enumerate(logs):
            for key, src, payload in log:
                msg = (src, payload)
                known = keys.setdefault(msg, key)
                if known != key:
                    flag(
                        "agreement", i,
                        f"message {msg!r} keyed {key!r} here, "
                        f"{known!r} elsewhere",
                    )
                    done = True
                    break
            if done:
                break

    # Rule: per-sender FIFO — a subsequence of the send order.
    if contract.fifo:
        send_index = {
            (src, payload): n
            for src, payloads in sends.items()
            for n, payload in enumerate(payloads)
        }
        for i, log in enumerate(logs):
            last: Dict[int, int] = {}
            for _key, src, payload in log:
                n = send_index.get((src, payload))
                if n is None:
                    flag(
                        "fifo", i,
                        f"delivered {(src, payload)!r} that was never sent",
                    )
                    break
                if n <= last.get(src, -1):
                    flag(
                        "fifo", i,
                        f"send #{n} from {src} delivered after "
                        f"send #{last[src]}",
                    )
                    break
                last[src] = n

    # Rule: prefix — every log is a prefix of the merged total order.
    if contract.prefix:
        union: Dict[Tuple[int, Any], Any] = {}
        for log in logs:
            for key, src, payload in log:
                union.setdefault((src, payload), key)
        total = sorted(union, key=lambda msg: union[msg])
        for i, log in enumerate(logs):
            delivered = [(src, payload) for _key, src, payload in log]
            if delivered != total[: len(delivered)]:
                for pos, (got, want) in enumerate(zip(delivered, total)):
                    if got != want:
                        flag(
                            "prefix", i,
                            f"position {pos}: delivered {got!r}, total "
                            f"order has {want!r} (hole or reorder)",
                        )
                        break
                else:
                    flag("prefix", i, "log diverges from merged total order")

    # Rule: completeness — a clean run delivers everything to everyone.
    if expect_complete and contract.completeness == "all":
        expected = {
            (src, payload)
            for src, payloads in sends.items()
            for payload in payloads
        }
        for i, log in enumerate(logs):
            missing = len(expected) - len(log)
            if missing:
                flag(
                    "completeness", i,
                    f"missing {missing} of {len(expected)} messages "
                    "in a fault-free run",
                )

    return violations
