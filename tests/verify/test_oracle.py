"""Unit tests for the reference oracle on hand-built observations.

Each test constructs a tiny :class:`EpisodeObservation` by hand — no
simulator involved — and checks that the oracle's verdict matches the
§2.1 contract as documented in :mod:`repro.verify.oracle`.
"""

import pytest

from repro.verify.oracle import (
    Delivery,
    EpisodeObservation,
    ReferenceOracle,
    SentMessage,
    failure_cutoff_strict,
)


def sent(msg_id, src, dst, ts, reliable=False, scattering=0, pair_seq=0):
    return SentMessage(
        msg_id=msg_id, src=src, dst=dst, reliable=reliable,
        payload=f"p{msg_id}", ts=ts, scattering=scattering,
        pair_seq=pair_seq,
    )


def delivery(msg, time=1000):
    return Delivery(
        time=time, receiver=msg.dst, ts=msg.ts, src=msg.src,
        msg_id=msg.msg_id, reliable=msg.reliable, payload=msg.payload,
    )


def observation(sends, deliveries, completions=None, cutoffs=None,
                failed=None, notices=None):
    receivers = {m.dst for m in sends} | {d.receiver for ds in deliveries.values() for d in ds}
    full = {r: deliveries.get(r, []) for r in receivers | set(deliveries)}
    return EpisodeObservation(
        sends=list(sends),
        completions=completions or {},
        failure_cutoffs=cutoffs or {},
        failed_procs=failed or set(),
        deliveries=full,
        cutoff_notices=notices or {},
    )


def kinds(divergences):
    return sorted(d.kind for d in divergences)


def test_clean_trace_passes():
    a = sent(1, src=0, dst=2, ts=100)
    b = sent(2, src=1, dst=2, ts=200)
    obs = observation([a, b], {2: [delivery(a), delivery(b)]})
    assert ReferenceOracle(obs).check() == []


def test_order_divergence_detected():
    a = sent(1, src=0, dst=2, ts=100)
    b = sent(2, src=1, dst=2, ts=200)
    obs = observation([a, b], {2: [delivery(b), delivery(a)]})
    divs = ReferenceOracle(obs).check()
    assert "order" in kinds(divs)
    order = next(d for d in divs if d.kind == "order")
    assert order.receiver == 2
    assert order.index == 0  # first wrong position


def test_tie_break_on_sender_then_msg_id():
    # Same timestamp: src breaks the tie; same src: msg_id does.
    a = sent(5, src=1, dst=3, ts=100)
    b = sent(4, src=2, dst=3, ts=100)
    obs = observation([a, b], {3: [delivery(a), delivery(b)]})
    assert ReferenceOracle(obs).check() == []
    obs = observation([a, b], {3: [delivery(b), delivery(a)]})
    assert "order" in kinds(ReferenceOracle(obs).check())


def test_duplicate_detected():
    a = sent(1, src=0, dst=2, ts=100)
    obs = observation([a], {2: [delivery(a), delivery(a, time=1001)]})
    assert kinds(ReferenceOracle(obs).check()) == ["duplicate"]


def test_fabrication_detected():
    a = sent(1, src=0, dst=2, ts=100)
    ghost = Delivery(time=1000, receiver=2, ts=150, src=0, msg_id=99,
                     reliable=False, payload="ghost")
    obs = observation([a], {2: [delivery(a), ghost]})
    assert kinds(ReferenceOracle(obs).check()) == ["fabrication"]


def test_wrong_payload_is_fabrication():
    a = sent(1, src=0, dst=2, ts=100)
    wrong = Delivery(time=1000, receiver=2, ts=100, src=0, msg_id=1,
                     reliable=False, payload="tampered")
    obs = observation([a], {2: [wrong]})
    assert kinds(ReferenceOracle(obs).check()) == ["fabrication"]


def test_misrouted_delivery_is_fabrication():
    a = sent(1, src=0, dst=2, ts=100)
    stray = Delivery(time=1000, receiver=3, ts=100, src=0, msg_id=1,
                     reliable=False, payload="p1")
    obs = observation([a], {2: [delivery(a)], 3: [stray]})
    assert kinds(ReferenceOracle(obs).check()) == ["fabrication"]


def test_pair_fifo_violation_detected():
    # Pair (0 -> 2) sent a then b, delivered b then a.  The timestamps
    # are also inverted, so both FIFO and order fire — FIFO is the more
    # specific diagnosis and must be present.
    a = sent(1, src=0, dst=2, ts=200, pair_seq=0)
    b = sent(2, src=0, dst=2, ts=100, pair_seq=1)
    obs = observation([a, b], {2: [delivery(b), delivery(a)]})
    assert "pair_fifo" in kinds(ReferenceOracle(obs).check())


def test_cutoff_enforced_only_after_notice():
    # Receiver 2 was told at t=500 to discard proc 0 from ts 150.
    before = sent(1, src=0, dst=2, ts=200, reliable=True)
    obs = observation(
        [before],
        {2: [delivery(before, time=400)]},       # delivered pre-notice
        cutoffs={0: 150}, failed={0},
        notices={2: [(500, 0, 150)]},
    )
    assert ReferenceOracle(obs).check() == []    # restricted atomicity

    obs = observation(
        [before],
        {2: [delivery(before, time=600)]},       # delivered post-notice
        cutoffs={0: 150}, failed={0},
        notices={2: [(500, 0, 150)]},
    )
    assert kinds(ReferenceOracle(obs).check()) == ["failure_cutoff"]


def test_cutoff_allows_messages_below_failure_ts():
    early = sent(1, src=0, dst=2, ts=100, reliable=True)
    obs = observation(
        [early],
        {2: [delivery(early, time=600)]},        # post-notice but ts < cutoff
        cutoffs={0: 150}, failed={0},
        notices={2: [(500, 0, 150)]},
    )
    assert ReferenceOracle(obs).check() == []


def test_strict_cutoff_flags_what_restricted_atomicity_allows():
    # Proc 0 failed at ts 150; its reliable message at ts 200 reached
    # receiver 2 at t=400, before the t=500 discard notice.  O5 allows
    # it (§5.2 restricted atomicity); the strict rule does not.
    below = sent(1, src=0, dst=2, ts=100, reliable=True)
    late = sent(2, src=0, dst=2, ts=200, reliable=True, pair_seq=1)
    obs = observation(
        [below, late],
        {2: [delivery(below, time=300), delivery(late, time=400)]},
        cutoffs={0: 150}, failed={0},
        notices={2: [(500, 0, 150)]},
    )
    assert ReferenceOracle(obs).check() == []
    strict = failure_cutoff_strict(obs)
    assert [(d.kind, d.receiver, d.index, d.time) for d in strict] == [
        ("failure_cutoff_strict", 2, 1, 400)
    ]


def test_reliable_missing_detected():
    a = sent(1, src=0, dst=2, ts=100, reliable=True, scattering=0)
    obs = observation([a], {2: []}, completions={0: True})
    assert kinds(ReferenceOracle(obs).check()) == ["reliable_missing"]


def test_reliable_missing_excused_by_failure():
    a = sent(1, src=0, dst=2, ts=100, reliable=True, scattering=0)
    # Sender failed: no delivery obligation survives.
    obs = observation([a], {2: []}, completions={0: True}, failed={0})
    assert ReferenceOracle(obs).check() == []
    # Receiver failed: likewise.
    obs = observation([a], {2: []}, completions={0: True}, failed={2})
    assert ReferenceOracle(obs).check() == []
    # Scattering never completed: best-effort obligation only.
    obs = observation([a], {2: []}, completions={0: False})
    assert ReferenceOracle(obs).check() == []


def test_best_effort_loss_is_legal():
    a = sent(1, src=0, dst=2, ts=100, reliable=False, scattering=0)
    obs = observation([a], {2: []}, completions={0: True})
    assert ReferenceOracle(obs).check() == []


def test_expected_order_is_sorted_by_key():
    a = sent(1, src=0, dst=2, ts=300)
    b = sent(2, src=1, dst=2, ts=100)
    c = sent(3, src=1, dst=2, ts=200, pair_seq=1)
    obs = observation([a, b, c], {2: [delivery(b), delivery(c), delivery(a)]})
    trace = obs.deliveries[2]
    assert [d.msg_id for d in sorted(trace, key=Delivery.key)] == [2, 3, 1]
    assert ReferenceOracle(obs).check() == []


def test_divergence_to_dict_round_trip():
    a = sent(1, src=0, dst=2, ts=100)
    b = sent(2, src=1, dst=2, ts=200)
    obs = observation([a, b], {2: [delivery(b), delivery(a)]})
    divs = ReferenceOracle(obs).check()
    assert divs
    payload = divs[0].to_dict()
    assert payload["kind"] == divs[0].kind
    assert payload["receiver"] == 2
    assert set(payload) == {
        "kind", "detail", "receiver", "index", "seed", "episode", "mode"
    }
