"""Tests for how the shootout judges the baselines' delivered logs.

Every baseline cell is judged by the §2.1 reference oracle through
``repro.verify.episodes.broadcast_observation``, plus
``repro.verify.oracle.no_holes`` and clean-run completeness where
``repro.baselines.shootout.PROMISES`` says the protocol promises them.
Each rule must catch the violation it exists for — an oracle that
passes everything would make the shootout's "0 contract violations"
column meaningless.  The test names keep the rule each case was first
written for; the oracle row that now catches it:

=========================  =================================
rule                       oracle row (``Divergence.kind``)
=========================  =================================
sorted (key regression)    ``order`` (O1)
sorted (shared key)        ``fabrication`` (O3)
no duplicates              ``duplicate`` (O2)
agreement (key split)      ``fabrication`` (O3)
fifo (reorder)             ``pair_fifo`` (O4)
fifo (never sent)          ``fabrication`` (O3)
prefix                     ``hole`` (``no_holes``)
completeness               ``reliable_missing`` (O6)
=========================  =================================

The last tests run real shootout cells with a mutated member.
"""

import itertools

import pytest

from repro.baselines.common import BroadcastMember
from repro.baselines.shootout import (
    PROMISES,
    PROTOCOLS,
    ShootoutRunner,
    check_logs,
)
from repro.verify.episodes import broadcast_observation

BASELINES = ("lamport", "sequencer", "token", "epto", "switchpaxos")

# Two senders, two messages each, all delivered in the same key order —
# the well-formed reference input.
SENDS = {0: ["a0", "a1"], 1: ["b0", "b1"]}
CLEAN_LOG = [(1, 0, "a0"), (2, 1, "b0"), (3, 0, "a1"), (4, 1, "b1")]
HOLED_LOG = [CLEAN_LOG[0]] + CLEAN_LOG[2:]   # skipped b0


def kinds(violations):
    return sorted({v["kind"] for v in violations})


def test_adapter_builds_one_message_per_broadcast_and_member():
    obs = broadcast_observation([CLEAN_LOG, CLEAN_LOG[:1]], SENDS, True)
    assert len(obs.sends) == 4 * 2           # the sender receives its own
    assert {s.dst for s in obs.sends} == {0, 1}
    assert [s.pair_seq for s in obs.sends if s.dst == 1] == [0, 1, 0, 1]
    assert [s.ts for s in obs.sends if s.dst == 0] == [1, 3, 2, 4]
    assert all(s.reliable for s in obs.sends)
    assert set(obs.completions.values()) == {True}
    assert [d.ts for d in obs.deliveries[1]] == [1]
    partial = broadcast_observation([CLEAN_LOG[:1]], SENDS, False)
    assert set(partial.completions.values()) == {None}
    assert [s.ts for s in partial.sends] == [1, None, None, None]


def test_clean_logs_pass_every_contract():
    logs = [list(CLEAN_LOG), list(CLEAN_LOG)]
    for protocol in BASELINES:
        assert check_logs(protocol, logs, SENDS, clean=True) == []


def test_sorted_rule_catches_key_regression():
    bad = [(2, 1, "b0"), (1, 0, "a0")]
    assert kinds(check_logs("lamport", [bad], SENDS, clean=False)) == [
        "order"
    ]


def test_sorted_rule_catches_shared_key():
    # Two messages under one key: the second does not match its send.
    bad = [(1, 0, "a0"), (1, 1, "b0")]
    violations = check_logs("lamport", [bad, bad], SENDS, clean=False)
    assert kinds(violations) == ["fabrication"]
    assert {v["receiver"] for v in violations} == {0, 1}


def test_duplicate_delivery_caught():
    bad = CLEAN_LOG + [(4, 1, "b1")]
    assert kinds(check_logs("sequencer", [bad], SENDS, clean=False)) == [
        "duplicate"
    ]


def test_agreement_rule_catches_key_split():
    other = [(9, 0, "a0")] + CLEAN_LOG[1:]
    violations = check_logs(
        "lamport", [list(CLEAN_LOG), other], SENDS, clean=False
    )
    assert kinds(violations) == ["fabrication"]
    assert violations[0]["receiver"] == 1


def test_fifo_rule_catches_sender_reorder():
    bad = [(1, 0, "a1"), (2, 0, "a0")]
    assert kinds(check_logs("lamport", [bad], SENDS, clean=False)) == [
        "pair_fifo"
    ]


def test_fifo_rule_catches_phantom_message():
    bad = [(1, 0, "never-sent")]
    violations = check_logs("lamport", [bad], SENDS, clean=False)
    assert kinds(violations) == ["fabrication"]
    assert "does not match any send" in violations[-1]["detail"]


def test_prefix_rule_catches_hole():
    # Member 1 skipped b0: fine for Lamport, a hole for a sequencer.
    logs = [list(CLEAN_LOG), HOLED_LOG]
    assert check_logs("lamport", logs, SENDS, clean=False) == []
    violations = check_logs("sequencer", logs, SENDS, clean=False)
    assert kinds(violations) == ["hole"]
    assert violations[0]["receiver"] == 1


def test_prefix_allows_shorter_logs():
    # A lagging member that delivered a strict prefix is fine.
    logs = [list(CLEAN_LOG), CLEAN_LOG[:2]]
    assert check_logs("sequencer", logs, SENDS, clean=False) == []


def test_completeness_only_enforced_when_asked():
    logs = [CLEAN_LOG[:2], CLEAN_LOG[:2]]
    assert check_logs("sequencer", logs, SENDS, clean=False) == []
    violations = check_logs("sequencer", logs, SENDS, clean=True)
    assert kinds(violations) == ["reliable_missing"]
    assert len(violations) == 4  # two messages missing at each member


def test_best_effort_contract_skips_completeness():
    logs = [CLEAN_LOG[:2], CLEAN_LOG[:2]]
    assert check_logs("epto", logs, SENDS, clean=True) == []


# The promise table, row by row: dropping or flipping an entry fails.
@pytest.mark.parametrize("protocol, gapless", [
    ("lamport", False), ("sequencer", True), ("token", True),
    ("epto", False), ("switchpaxos", True),
])
def test_hole_flagged_iff_protocol_promises_no_holes(protocol, gapless):
    logs = [list(CLEAN_LOG), HOLED_LOG]
    violations = check_logs(protocol, logs, SENDS, clean=False)
    assert kinds(violations) == (["hole"] if gapless else [])


@pytest.mark.parametrize("protocol, complete", [
    ("lamport", True), ("sequencer", True), ("token", True),
    ("epto", False), ("switchpaxos", True),
])
def test_clean_loss_flagged_iff_protocol_promises_completeness(
    protocol, complete
):
    logs = [list(CLEAN_LOG), CLEAN_LOG[:2]]
    violations = check_logs(protocol, logs, SENDS, clean=True)
    assert kinds(violations) == (["reliable_missing"] if complete else [])


def test_every_shootout_protocol_has_a_contract():
    assert set(PROMISES) == set(PROTOCOLS)
    assert {p: PROMISES[p].contract for p in PROTOCOLS} == {
        "lamport": "agreed_total_order",
        "sequencer": "uniform_total_order",
        "token": "uniform_total_order",
        "epto": "eventual_total_order",
        "switchpaxos": "uniform_total_order",
        "onepipe": "onepipe_s21",
    }


# ----------------------------------------------------------------------
# Mutants in real cells
# ----------------------------------------------------------------------
def small_runner():
    return ShootoutRunner(seed=1, n_members=4, horizon_ns=400_000,
                          drain_ns=1_200_000)


def mutate_deliveries(monkeypatch, mutate):
    """Route every member delivery through ``mutate(deliver, member, n,
    entry)``: ``n`` numbers the member's deliveries in its group from 0
    and ``deliver(*entry)`` records one."""
    original = BroadcastMember.record_delivery
    counters = {}

    def record(self, key, src, payload):
        counter = counters.setdefault((self.group, self.index),
                                      itertools.count())
        n = next(counter)
        mutate(
            lambda *entry: original(self, *entry), self.index, n,
            (key, src, payload),
        )

    monkeypatch.setattr(BroadcastMember, "record_delivery", record)


def skip_member0_delivery(monkeypatch, skipped=5):
    def skip(deliver, member, n, entry):
        if (member, n) != (0, skipped):
            deliver(*entry)

    mutate_deliveries(monkeypatch, skip)


def test_sequencer_member_swapping_two_deliveries_is_flagged(monkeypatch):
    assert small_runner().run_cell("clean", "sequencer")["violations"] == []
    held = []

    def swap(deliver, member, n, entry):
        if (member, n) == (0, 5):
            held.append(entry)
            return
        deliver(*entry)
        if (member, n) == (0, 6):
            deliver(*held.pop())

    mutate_deliveries(monkeypatch, swap)
    cell = small_runner().run_cell("clean", "sequencer")
    assert "order" in kinds(cell["violations"])
    assert {v["receiver"] for v in cell["violations"]} == {0}


def test_switchpaxos_member_skipping_an_instance_is_a_hole(monkeypatch):
    assert small_runner().run_cell(
        "degraded", "switchpaxos"
    )["violations"] == []
    skip_member0_delivery(monkeypatch)
    cell = small_runner().run_cell("degraded", "switchpaxos")
    assert kinds(cell["violations"]) == ["hole"]


def test_lamport_member_skipping_a_message_is_legal_under_faults(
    monkeypatch
):
    skip_member0_delivery(monkeypatch)
    runner = small_runner()
    assert runner.run_cell("degraded", "lamport")["violations"] == []
    # In the clean scenario Lamport promises completeness.
    clean = runner.run_cell("clean", "lamport")
    assert kinds(clean["violations"]) == ["reliable_missing"]


def test_two_messages_sharing_one_key_are_flagged(monkeypatch):
    # Every member delivers the sixth instance under the fifth's number.
    def share(deliver, member, n, entry):
        key, src, payload = entry
        deliver(5 if key == 6 else key, src, payload)

    mutate_deliveries(monkeypatch, share)
    cell = small_runner().run_cell("clean", "sequencer")
    assert "fabrication" in kinds(cell["violations"])
    assert {
        v["receiver"] for v in cell["violations"] if v["kind"] == "fabrication"
    } == {0, 1, 2, 3}
