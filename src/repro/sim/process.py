"""Generator-based cooperative processes on top of the event loop.

Protocol logic like two-phase commit reads much more naturally as
sequential code than as a hand-written state machine.  A *process* is a
Python generator that yields awaitables:

- ``yield sim_sleep(sim, delay)`` — suspend for simulated time;
- ``yield future`` — suspend until the future resolves, receiving its value;
- ``yield all_of(f1, f2, ...)`` — wait for every future.

Example
-------
>>> from repro.sim import Simulator
>>> sim = Simulator()
>>> log = []
>>> def worker():
...     yield sim_sleep(sim, 10)
...     log.append(sim.now)
...     yield sim_sleep(sim, 5)
...     log.append(sim.now)
>>> _ = Process(sim, worker())
>>> sim.run()
>>> log
[10, 15]
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.sim.simulator import Simulator


class Future:
    """A one-shot value container that processes can wait on."""

    __slots__ = ("sim", "_done", "_value", "_exception", "_callbacks")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError("future not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Resolve the future.  Resolving twice is an error (explicit is
        better than implicit); use :meth:`try_resolve` for racy resolvers."""
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._value = value
        self._fire_callbacks()

    def try_resolve(self, value: Any = None) -> bool:
        """Resolve if not already resolved; returns True if it resolved."""
        if self._done:
            return False
        self.resolve(value)
        return True

    def fail(self, exception: BaseException) -> None:
        """Resolve the future with an exception, re-raised in the waiter."""
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._exception = exception
        self._fire_callbacks()

    def add_callback(self, callback: Callable[["Future"], None]) -> None:
        """Run ``callback(self)`` when resolved (immediately if already)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


def sim_sleep(sim: Simulator, delay: int) -> Future:
    """A future that resolves ``delay`` ns from now."""
    future = Future(sim)
    sim.schedule(delay, future.try_resolve, None)
    return future


def all_of(futures: Iterable[Future]) -> Future:
    """A future resolving with the list of all values once every input
    future has resolved.  Requires at least one input future."""
    futures = list(futures)
    if not futures:
        raise ValueError("all_of requires at least one future")
    combined = Future(futures[0].sim)
    remaining = [len(futures)]

    def _on_done(_f: Future) -> None:
        remaining[0] -= 1
        if remaining[0] == 0:
            combined.try_resolve([f.value for f in futures])

    for future in futures:
        future.add_callback(_on_done)
    return combined


class Process:
    """Drives a generator, advancing it whenever its awaited future
    resolves.

    The ``result`` future resolves with the generator's return value, or
    fails with the exception that escaped it.
    """

    def __init__(self, sim: Simulator, generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._generator = generator
        self._alive = True
        self.result = Future(sim)
        # Start on a fresh event so the spawner's current event completes
        # first — mirrors asyncio.create_task semantics.
        sim.call_soon(self._advance, None, None)

    @property
    def alive(self) -> bool:
        return self._alive

    def _advance(self, value: Any, exception: Optional[BaseException]) -> None:
        try:
            if exception is not None:
                awaited = self._generator.throw(exception)
            else:
                awaited = self._generator.send(value)
        except StopIteration as stop:
            self._alive = False
            self.result.try_resolve(stop.value)
            return
        except Exception as exc:
            self._alive = False
            if not self.result.done:
                self.result.fail(exc)
            else:  # pragma: no cover - double fault
                raise
            return
        if not isinstance(awaited, Future):
            raise TypeError(
                f"process {self.name!r} yielded {type(awaited).__name__}, "
                "expected a Future"
            )
        awaited.add_callback(self._resume)

    def _resume(self, future: Future) -> None:
        try:
            value = future.value
        except BaseException as exc:  # noqa: BLE001 - forwarded to process
            self._advance(None, exc)
            return
        self._advance(value, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"
