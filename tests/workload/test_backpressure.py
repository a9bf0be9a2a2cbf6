"""Backpressure safety: admission control never breaks §2.1.

Unit level: the :class:`AdmissionController` state machine — rejection
happens strictly before dispatch (nothing rejected ever reached a
sender, so nothing timestamped is dropped), the deferred FIFO preserves
submission order, the timeout backstop frees wedged slots, and
``complete`` is idempotent.

Engine level: under the retry_storm scenario a seeded adversarial
client population drives sustained rejection, and the jittered
exponential backoff converges — queue depth stays bounded and the
system fully drains after the traffic window.
"""

from types import SimpleNamespace

from repro.onepipe.admission import (
    ADMITTED,
    DEFERRED,
    REJECTED,
    AdmissionConfig,
    AdmissionController,
)
from repro.sim import Simulator
from repro.workload.runner import run_shard
from repro.workload.scenarios import get_scenario


def make_controller(config, seed=1):
    sim = Simulator(seed=seed)
    agent = SimpleNamespace(sim=sim, _metrics=sim.metrics)
    return sim, AdmissionController(agent, config)


def test_reject_never_invokes_dispatch():
    sim, ctl = make_controller(AdmissionConfig(max_inflight=1, queue_limit=1))
    dispatched = []
    assert ctl.submit(lambda t: dispatched.append(("a", t))) == ADMITTED
    assert ctl.submit(lambda t: dispatched.append(("b", t))) == DEFERRED
    # Window and queue are both full now: rejection, and the thunk must
    # never run — a rejected op must not create a timestamped message.
    assert ctl.submit(lambda t: dispatched.append(("REJ", t))) == REJECTED
    sim.run(until=10_000_000)
    assert all(name != "REJ" for name, _ in dispatched)
    assert ctl.rejected == 1


def test_deferred_fifo_preserves_submission_order():
    sim, ctl = make_controller(AdmissionConfig(max_inflight=1, queue_limit=8))
    order = []
    tickets = {}

    def dispatch(name):
        def run(ticket):
            order.append(name)
            tickets[name] = ticket
        return run

    assert ctl.submit(dispatch("a")) == ADMITTED
    for name in ("b", "c", "d"):
        assert ctl.submit(dispatch(name)) == DEFERRED
    assert ctl.queue_depth == 3
    # Completing each op in turn must start queued ops in FIFO order.
    for expect in ("a", "b", "c", "d"):
        assert order[-1] == expect
        ctl.complete(tickets[expect])
    assert order == ["a", "b", "c", "d"]
    assert ctl.queue_depth == 0
    assert ctl.inflight == 0
    assert ctl.completed == 4


def test_complete_is_idempotent_and_frees_one_slot():
    sim, ctl = make_controller(AdmissionConfig(max_inflight=2, queue_limit=4))
    tickets = []
    ctl.submit(tickets.append)
    ctl.submit(tickets.append)
    assert ctl.inflight == 2
    ctl.complete(tickets[0])
    ctl.complete(tickets[0])  # double-complete must not free a second slot
    assert ctl.inflight == 1
    assert ctl.completed == 1


def test_timeout_backstop_frees_wedged_slot():
    sim, ctl = make_controller(
        AdmissionConfig(max_inflight=1, queue_limit=4, op_timeout_ns=50_000)
    )
    order = []
    ctl.submit(lambda t: order.append("wedged"))  # never completed
    assert ctl.submit(lambda t: order.append("queued")) == DEFERRED
    sim.run(until=60_000)
    # The timeout released the wedged slot and dispatched the queue head.
    assert order == ["wedged", "queued"]
    assert ctl.timed_out == 1
    assert ctl.inflight == 1  # "queued" is now in flight
    sim.run(until=200_000)
    assert ctl.timed_out == 2  # the backstop covers it too
    assert ctl.inflight == 0


def test_utilization_accounting_tracks_busy_time():
    sim, ctl = make_controller(
        AdmissionConfig(max_inflight=1, queue_limit=0, op_timeout_ns=0)
    )
    tickets = []
    sim.schedule_at(100, ctl.submit, tickets.append)
    sim.schedule_at(400, lambda: ctl.complete(tickets[0]))
    sim.run(until=1_000)
    assert ctl.busy_ns == 300
    assert ctl.saturated_ns == 300  # max_inflight == 1: busy == saturated
    snap = ctl.utilization_snapshot(1_000)
    assert snap["busy_ns"] == 300  # closed interval unchanged


# ----------------------------------------------------------------------
# Engine level: overload engages, §2.1 holds, backoff converges
# ----------------------------------------------------------------------
def test_backpressure_engages_and_per_sender_order_holds():
    """Raw-mode hotspot: rejections happen, yet the scatterings that did
    get admitted keep per-sender timestamp order (no timestamped message
    is ever shed by admission control).  Raw ops complete in one RTT, so
    the window is squeezed to force rejection at the hotspot rate."""
    from repro.onepipe.admission import AdmissionConfig

    scenario = get_scenario("hotspot").with_app("raw").with_overrides(
        admission=AdmissionConfig(
            max_inflight=1, queue_limit=2, op_timeout_ns=2_000_000
        )
    )
    report, run = run_shard(scenario, 1, 0, keep_run=True)
    admission = report["admission"]
    assert admission["rejected"] > 0  # overload actually engaged
    assert admission["deferred"] > 0
    assert report["ordering"]["checked"]
    assert report["ordering"]["violations"] == 0
    assert report["ordering"]["deliveries"] > 0
    # Per sender the assigned timestamps are strictly increasing in
    # dispatch order (the senders' ``ts_assign`` trace records).
    stamps = run["sim"].tracer.filter(event="ts_assign")
    assert stamps
    last_ts = {}
    for _time, sender, _event, fields in stamps:
        if sender in last_ts:
            assert fields["ts"] > last_ts[sender]
        last_ts[sender] = fields["ts"]


def test_retry_storm_backoff_converges():
    """The adversarial ("aggressive" rate class) tenant hammers a tiny
    admission window; jittered exponential backoff must keep the queue
    bounded and let the system drain fully after the window."""
    scenario = get_scenario("retry_storm")
    report = run_shard(scenario, 1, 0)
    admission = report["admission"]
    assert admission["rejected"] > 0
    assert report["retries"] > 0
    assert admission["max_queue_depth"] <= scenario.admission.queue_limit
    assert report["drained"]  # nothing in flight, queued, or retrying
    # Outcome accounting closes: every arrival either completed or was
    # dropped after its retry budget (drained excludes a third state).
    totals = {
        key: sum(t[key] for t in report["tenants"].values())
        for key in ("arrivals", "completed", "dropped")
    }
    assert totals["arrivals"] == totals["completed"] + totals["dropped"]
    assert report["offered"] == totals["arrivals"]


def test_accounting_identity_holds_across_scenarios():
    for name in ("hotspot", "flash_crowd"):
        report = run_shard(get_scenario(name), 1, 0, check_ordering=False)
        for tenant, entry in report["tenants"].items():
            # admitted + deferred = dispatched; all arrivals were either
            # dispatched on first try or went through the retry path.
            assert entry["arrivals"] > 0, (name, tenant)
            assert entry["completed"] <= entry["arrivals"]
            assert entry["dropped"] <= entry["arrivals"]
            assert entry["delivery_lag"]["count"] == entry["completed"]
