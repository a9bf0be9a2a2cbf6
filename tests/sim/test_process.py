"""Tests for generator-based processes and futures."""

import pytest

from repro.sim import Future, Process, Simulator, all_of, sim_sleep


def test_sleep_advances_time():
    sim = Simulator()
    log = []

    def worker():
        yield sim_sleep(sim, 10)
        log.append(sim.now)
        yield sim_sleep(sim, 15)
        log.append(sim.now)

    Process(sim, worker())
    sim.run()
    assert log == [10, 25]


def test_process_result_future():
    sim = Simulator()

    def worker():
        yield sim_sleep(sim, 1)
        return 99

    proc = Process(sim, worker())
    sim.run()
    assert proc.result.done
    assert proc.result.value == 99
    assert not proc.alive


def test_future_resolution_wakes_waiter():
    sim = Simulator()
    gate = Future(sim)
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    Process(sim, waiter())
    sim.schedule(42, gate.resolve, "go")
    sim.run()
    assert log == [(42, "go")]


def test_future_value_before_resolution_raises():
    sim = Simulator()
    future = Future(sim)
    with pytest.raises(RuntimeError):
        _ = future.value


def test_future_double_resolve_rejected_but_try_resolve_ok():
    sim = Simulator()
    future = Future(sim)
    assert future.try_resolve(1) is True
    assert future.try_resolve(2) is False
    assert future.value == 1
    with pytest.raises(RuntimeError):
        future.resolve(3)


def test_future_failure_propagates_into_process():
    sim = Simulator()
    gate = Future(sim)
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    Process(sim, waiter())
    sim.schedule(5, gate.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_exception_escaping_process_fails_result():
    sim = Simulator()

    def worker():
        yield sim_sleep(sim, 1)
        raise RuntimeError("exploded")

    proc = Process(sim, worker())
    sim.run()
    assert proc.result.done
    with pytest.raises(RuntimeError, match="exploded"):
        _ = proc.result.value


def test_all_of_waits_for_every_future():
    sim = Simulator()
    futures = [Future(sim) for _ in range(3)]
    log = []

    def waiter():
        values = yield all_of(futures)
        log.append((sim.now, values))

    Process(sim, waiter())
    sim.schedule(10, futures[2].resolve, "c")
    sim.schedule(20, futures[0].resolve, "a")
    sim.schedule(30, futures[1].resolve, "b")
    sim.run()
    assert log == [(30, ["a", "b", "c"])]


def test_yielding_non_future_is_a_type_error():
    sim = Simulator()

    def worker():
        yield 42

    Process(sim, worker())
    with pytest.raises(TypeError):
        sim.run()


def test_nested_process_composition():
    sim = Simulator()
    log = []

    def child(n):
        yield sim_sleep(sim, n)
        return n * 2

    def parent():
        result = yield Process(sim, child(10)).result
        log.append(result)
        result = yield Process(sim, child(5)).result
        log.append(result)

    Process(sim, parent())
    sim.run()
    assert log == [20, 10]


def test_empty_combinators_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        all_of([])
