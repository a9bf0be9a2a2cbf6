"""Tests for the per-protocol ordering-contract oracle.

Each rule must catch the violation it exists for — an oracle that
passes everything would make the shootout's "0 contract violations"
column meaningless.
"""

from repro.baselines.contracts import (
    AGREED_TOTAL_ORDER,
    EVENTUAL_TOTAL_ORDER,
    PROTOCOL_CONTRACTS,
    UNIFORM_TOTAL_ORDER,
    check_contract,
)

# Two members, two senders, two messages each, all delivered in the
# same key order — the well-formed reference input.
SENDS = {0: ["a0", "a1"], 1: ["b0", "b1"]}
CLEAN_LOG = [(1, 0, "a0"), (2, 1, "b0"), (3, 0, "a1"), (4, 1, "b1")]


def rules(violations):
    return sorted({v["rule"] for v in violations})


def test_clean_logs_pass_every_contract():
    logs = [list(CLEAN_LOG), list(CLEAN_LOG)]
    for contract in (UNIFORM_TOTAL_ORDER, AGREED_TOTAL_ORDER,
                     EVENTUAL_TOTAL_ORDER):
        assert check_contract(
            contract, logs, SENDS, expect_complete=True
        ) == []


def test_sorted_rule_catches_key_regression():
    bad = [(2, 1, "b0"), (1, 0, "a0")]
    violations = check_contract(UNIFORM_TOTAL_ORDER, [bad], SENDS)
    assert "sorted" in rules(violations)


def test_duplicate_delivery_caught():
    bad = CLEAN_LOG + [(5, 1, "b1")]
    violations = check_contract(UNIFORM_TOTAL_ORDER, [bad], SENDS)
    assert "no_duplicates" in rules(violations)


def test_agreement_rule_catches_key_split():
    other = [(9, 0, "a0")] + CLEAN_LOG[1:]
    violations = check_contract(
        AGREED_TOTAL_ORDER, [list(CLEAN_LOG), other], SENDS
    )
    assert "agreement" in rules(violations)
    assert violations[0]["member"] in (0, 1)


def test_fifo_rule_catches_sender_reorder():
    bad = [(1, 0, "a1"), (2, 0, "a0")]
    violations = check_contract(AGREED_TOTAL_ORDER, [bad], SENDS)
    assert "fifo" in rules(violations)


def test_fifo_rule_catches_phantom_message():
    bad = [(1, 0, "never-sent")]
    violations = check_contract(AGREED_TOTAL_ORDER, [bad], SENDS)
    assert "fifo" in rules(violations)
    assert "never sent" in violations[-1]["detail"]


def test_prefix_rule_catches_hole():
    # Member 1 skipped b0: fine under AGREED, a hole under UNIFORM.
    holed = [CLEAN_LOG[0]] + CLEAN_LOG[2:]
    logs = [list(CLEAN_LOG), holed]
    assert check_contract(AGREED_TOTAL_ORDER, logs, SENDS) == []
    violations = check_contract(UNIFORM_TOTAL_ORDER, logs, SENDS)
    assert "prefix" in rules(violations)


def test_prefix_allows_shorter_logs():
    # A lagging member that delivered a strict prefix is fine.
    logs = [list(CLEAN_LOG), CLEAN_LOG[:2]]
    assert check_contract(UNIFORM_TOTAL_ORDER, logs, SENDS) == []


def test_completeness_only_enforced_when_asked():
    logs = [CLEAN_LOG[:2], CLEAN_LOG[:2]]
    assert check_contract(UNIFORM_TOTAL_ORDER, logs, SENDS) == []
    violations = check_contract(
        UNIFORM_TOTAL_ORDER, logs, SENDS, expect_complete=True
    )
    assert rules(violations) == ["completeness"]
    assert len(violations) == 2  # flagged per member


def test_best_effort_contract_skips_completeness():
    logs = [CLEAN_LOG[:2], CLEAN_LOG[:2]]
    assert check_contract(
        EVENTUAL_TOTAL_ORDER, logs, SENDS, expect_complete=True
    ) == []


def test_every_shootout_protocol_has_a_contract():
    assert set(PROTOCOL_CONTRACTS) == {
        "lamport", "sequencer", "token", "epto", "switchpaxos", "onepipe",
    }
