"""Deterministic parallelism: campaign fan-out.

:func:`run_ordered` fans independent episodes (chaos campaigns, verify
sweeps, workload shards) out to worker processes.  The merged output is
**byte-identical** to a sequential run, for every job count: workers
receive explicit payloads and rebuild everything from seeds; results
are merged (and ``progress`` invoked) strictly in submission order; the
job count never appears in report payloads.

Failure paths are audited: a worker that crashes hard (killed,
``os._exit``), raises, or returns a non-picklable result surfaces a
:class:`ParallelWorkerError` (or the original exception) instead of
hanging the merge loop — the regression tests in
``tests/test_parallel.py`` cover each case.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Iterable, List, Optional


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

