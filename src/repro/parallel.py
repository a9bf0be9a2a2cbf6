"""Deterministic parallelism: campaign fan-out and space-sharded runs.

Two disciplines live here, both with the same contract — the merged
output is **byte-identical** to a sequential run, for every worker
count:

:func:`run_ordered`
    Embarrassingly parallel fan-out of independent episodes (chaos
    campaigns, verify sweeps, workload shards).  Workers receive
    explicit payloads and rebuild everything from seeds; results are
    merged (and ``progress`` invoked) strictly in submission order; the
    job count never appears in report payloads.

:func:`run_sharded`
    Space-partitioned *single-run* parallelism: one simulation split
    into shards (the hybrid fabric partitions a fat-tree by pod), each
    advancing through the same sequence of time windows.  Cross-shard
    events are exchanged at window barriers under a **conservative
    lookahead** guarantee supplied by the caller: the window length
    never exceeds the minimum cross-shard latency, so an event emitted
    during window ``w`` cannot affect any other shard before window
    ``w + 1``.  Each shard's step is a pure function of its state and
    its (deterministically ordered) inbox, so the partitioning of
    shards onto workers cannot change any result.

Failure paths are audited: a worker that crashes hard (killed,
``os._exit``), raises, or returns a non-picklable result surfaces a
:class:`ParallelWorkerError` (or the original exception) instead of
hanging the merge loop — the regression tests in
``tests/test_parallel.py`` cover each case.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class ParallelWorkerError(RuntimeError):
    """A worker process failed in a way that is not an ordinary exception
    from the worker function: it died abruptly, or produced a result
    that cannot cross the process boundary."""


def _mp_context():
    # Imported here, like run_ordered's executor: jobs == 1 builds no pool,
    # and these drag in logging, subprocess, socket, tempfile, bz2, lzma.
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


def _invoke_picklable(worker: Callable[[Any], Any], payload: Any) -> Any:
    """Run ``worker`` in the child and pre-flight the result's trip home.

    Checking picklability *in the child* turns an opaque transport-layer
    error into a clear message naming the worker; the original exception
    chain would otherwise surface as a bare ``PicklingError`` with no
    context about which payload produced it.
    """
    result = worker(payload)
    try:
        pickle.dumps(result)
    except Exception as exc:
        raise ParallelWorkerError(
            f"worker {getattr(worker, '__name__', worker)!r} returned a "
            f"non-picklable result for payload {payload!r}: {exc}"
        ) from None
    return result


def run_ordered(
    worker: Callable[[Any], Any],
    payloads: Iterable[Any],
    jobs: int = 1,
    progress: Optional[Callable[[Any], None]] = None,
) -> List[Any]:
    """Map ``worker`` over ``payloads``, preserving submission order.

    With ``jobs <= 1`` (or a single payload) everything runs inline in
    this process — no pool, no pickling round-trip.  Otherwise a
    process pool of ``min(jobs, len(payloads))`` workers consumes the
    payloads; ``worker`` must be a module-level function and payloads
    and results must be picklable.

    ``progress(result)`` fires as each result is *merged* — i.e. in
    submission order — so progress output is identical for every job
    count.

    Failure semantics: an exception raised by ``worker`` propagates
    as-is (after all earlier payloads merged); a worker process that
    dies abruptly raises :class:`ParallelWorkerError` naming the lost
    payload; a non-picklable result raises :class:`ParallelWorkerError`
    naming the worker.  None of these hang the merge loop.
    """
    items = list(payloads)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    results: List[Any] = []
    if jobs == 1 or len(items) <= 1:
        for payload in items:
            result = worker(payload)
            if progress is not None:
                progress(result)
            results.append(result)
        return results
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)), mp_context=_mp_context()
    ) as pool:
        futures = [
            pool.submit(_invoke_picklable, worker, payload)
            for payload in items
        ]
        for index, future in enumerate(futures):
            try:
                result = future.result()
            except BrokenProcessPool as exc:
                raise ParallelWorkerError(
                    f"worker process died while computing payload "
                    f"#{index} of {len(items)} (worker "
                    f"{getattr(worker, '__name__', worker)!r}); the "
                    f"merge loop would previously hang here"
                ) from exc
            if progress is not None:
                progress(result)
            results.append(result)
    return results


# ----------------------------------------------------------------------
# Space-sharded single-run parallelism
# ----------------------------------------------------------------------

# Sentinel commands on the master<->worker pipes.
_CMD_STEP = "step"
_CMD_FINISH = "finish"


def _shard_worker(conn, init, step, shard_ids) -> None:
    """Worker loop: own a set of shards for the whole run.

    Holds shard states across windows (that is the point — state never
    crosses the process boundary), answering one ``(window, inboxes)``
    request per barrier with ``(outputs, outboxes)``.  Exceptions are
    shipped back explicitly so the master can re-raise with context
    instead of deadlocking on a dead pipe.
    """
    try:
        states = {sid: init(sid) for sid in shard_ids}
        while True:
            msg = conn.recv()
            if msg[0] == _CMD_FINISH:
                return
            _, window, inboxes = msg
            outputs = {}
            outboxes = {}
            for sid in shard_ids:
                out, outbox = step(states[sid], window, inboxes.get(sid, []))
                outputs[sid] = out
                outboxes[sid] = outbox
            conn.send(("ok", outputs, outboxes))
    except EOFError:  # master went away
        return
    except BaseException as exc:  # ship the failure home
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class ShardRunStats:
    """Deterministic bookkeeping of one sharded run (worker-invariant)."""

    __slots__ = ("cross_shard_events", "lookahead_stalls", "windows", "shards")

    def __init__(self) -> None:
        self.cross_shard_events = 0
        self.lookahead_stalls = 0
        self.windows = 0
        self.shards = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "cross_shard_events": self.cross_shard_events,
            "lookahead_stalls": self.lookahead_stalls,
            "windows": self.windows,
            "shards": self.shards,
        }


def run_sharded(
    shard_ids: Sequence[Any],
    init: Callable[[Any], Any],
    step: Callable[[Any, int, List[Any]], Tuple[Any, List[Tuple[Any, Any]]]],
    windows: int,
    workers: int = 1,
) -> Tuple[Dict[Any, List[Any]], ShardRunStats]:
    """Advance every shard through ``windows`` barrier-synchronized steps.

    Parameters
    ----------
    shard_ids:
        Ordered shard identities.  The order is the canonical merge
        order — it, not the worker partitioning, determines every
        result byte.
    init:
        ``init(shard_id) -> state``, called once per shard *in its
        owning worker* (state never crosses the process boundary).
        Must be a module-level callable when ``workers > 1``.
    step:
        ``step(state, window, inbox) -> (output, outbox)``.  ``inbox``
        is the list of events routed to this shard for this window, in
        canonical order (by emitting shard's position in ``shard_ids``,
        then emission order).  ``outbox`` is a list of ``(dst_shard,
        event)`` pairs; each is delivered to ``dst_shard``'s inbox for
        window ``window + 1`` — the conservative-lookahead contract the
        caller's window length must honor.  Events addressed to unknown
        shards raise.
    windows:
        Number of barriers to run.
    workers:
        Worker processes.  ``1`` runs inline.  Shards are partitioned
        round-robin; because each shard's step sees identical inboxes
        in identical order for every partitioning, outputs are
        byte-identical across worker counts (the hyperscale CI job
        ``cmp``'s full reports at ``--workers 1`` vs ``2``).

    Returns
    -------
    (outputs, stats):
        ``outputs[shard_id]`` is the list of per-window outputs;
        ``stats`` counts cross-shard events and lookahead stalls
        (barriers a shard crossed with an empty inbox).
    """
    order = list(shard_ids)
    if len(set(order)) != len(order):
        raise ValueError("shard ids must be unique")
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if windows < 0:
        raise ValueError(f"windows must be >= 0: {windows}")
    stats = ShardRunStats()
    stats.windows = windows
    stats.shards = len(order)
    outputs: Dict[Any, List[Any]] = {sid: [] for sid in order}
    if not order or windows == 0:
        return outputs, stats

    known = set(order)

    def route(
        outboxes: Dict[Any, List[Tuple[Any, Any]]],
    ) -> Dict[Any, List[Any]]:
        """Canonical-order routing of window-``w`` events to ``w+1`` inboxes."""
        next_inboxes: Dict[Any, List[Any]] = {}
        for sid in order:  # canonical order, not worker order
            for dst, event in outboxes.get(sid, ()):
                if dst not in known:
                    raise ValueError(
                        f"shard {sid!r} emitted an event for unknown "
                        f"shard {dst!r}"
                    )
                next_inboxes.setdefault(dst, []).append(event)
                stats.cross_shard_events += 1
        return next_inboxes

    if workers == 1 or len(order) == 1:
        states = {sid: init(sid) for sid in order}
        inboxes: Dict[Any, List[Any]] = {}
        for window in range(windows):
            outboxes: Dict[Any, List[Tuple[Any, Any]]] = {}
            for sid in order:
                inbox = inboxes.get(sid, [])
                if window > 0 and not inbox:
                    stats.lookahead_stalls += 1
                out, outbox = step(states[sid], window, inbox)
                outputs[sid].append(out)
                outboxes[sid] = outbox
            inboxes = route(outboxes)
        return outputs, stats

    ctx = _mp_context()
    n_workers = min(workers, len(order))
    chunks = [order[i::n_workers] for i in range(n_workers)]
    conns = []
    procs = []
    try:
        for chunk in chunks:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker, args=(child, init, step, chunk)
            )
            proc.start()
            child.close()
            conns.append(parent)
            procs.append(proc)
        inboxes = {}
        for window in range(windows):
            for chunk, conn in zip(chunks, conns):
                conn.send((
                    _CMD_STEP,
                    window,
                    {sid: inboxes[sid] for sid in chunk if sid in inboxes},
                ))
            outboxes: Dict[Any, List[Tuple[Any, Any]]] = {}
            for chunk, conn in zip(chunks, conns):
                try:
                    reply = conn.recv()
                except EOFError:
                    raise ParallelWorkerError(
                        f"shard worker owning {chunk!r} died at window "
                        f"{window} (pipe closed); the barrier would "
                        f"previously hang here"
                    ) from None
                if reply[0] == "error":
                    raise ParallelWorkerError(
                        f"shard worker owning {chunk!r} failed at window "
                        f"{window}: {reply[1]}"
                    )
                _, outs, obs = reply
                for sid in chunk:
                    if window > 0 and not inboxes.get(sid):
                        stats.lookahead_stalls += 1
                    outputs[sid].append(outs[sid])
                    outboxes[sid] = obs[sid]
            inboxes = route(outboxes)
        for conn in conns:
            conn.send((_CMD_FINISH,))
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join()
    return outputs, stats
