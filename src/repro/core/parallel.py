"""Chunked multiprocessing backend for embarrassingly-parallel sweeps.

The analytical model evaluates in microseconds, so the paper's dense
design-space artifacts (the Fig. 7 heatmap panels, `repro-experiments
all`) are throughput problems: thousands of independent evaluations with
no shared state.  :func:`parallel_map` fans such work out over a pool of
worker processes in chunks, while keeping the observability story exact:

- each worker starts from a zeroed process-local
  :class:`~repro.obs.metrics.MetricsRegistry` (important under the
  ``fork`` start method, where children inherit the parent's counts);
- after finishing a chunk the worker snapshots its registry, resets it,
  and ships the snapshot back with the chunk's results;
- the parent :meth:`~repro.obs.metrics.MetricsRegistry.merge`\\ s every
  snapshot into its own registry, so counters and timers (e.g.
  ``model.heatmap_cells``, ``model.sweep_points``) match a
  single-process run exactly regardless of ``jobs``.

The mapped function and its items must be picklable (module-level
functions, plain data).  Results preserve item order;
:func:`parallel_imap` yields them as they arrive, for callers that
stream progress.
"""

from __future__ import annotations

import math
import threading
from multiprocessing import get_context
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.obs.metrics import get_registry

T = TypeVar("T")
R = TypeVar("R")

#: Chunks per worker the default chunk size aims for; >1 smooths load
#: imbalance between cheap and expensive items.
_CHUNKS_PER_WORKER = 4


def _worker_init() -> None:
    # Under fork the child inherits the parent's registry contents;
    # zero them so per-chunk snapshots report only this worker's work.
    get_registry().reset()


def _run_chunk(
    payload: tuple[Callable[[Any], Any], Sequence[Any]]
) -> tuple[list[Any], dict[str, Any]]:
    fn, chunk = payload
    results = [fn(item) for item in chunk]
    registry = get_registry()
    snapshot = registry.snapshot()
    registry.reset()
    return results, snapshot


def chunked(items: Sequence[T], chunk_size: int) -> list[Sequence[T]]:
    """Split ``items`` into ordered chunks of at most ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
    chunk_size: int | None = None,
) -> list[R]:
    """Map ``fn`` over ``items`` with ``jobs`` worker processes.

    ``list(parallel_imap(fn, items, jobs, chunk_size))`` — see
    :func:`parallel_imap` for the arguments and the metrics contract.

    Returns:
        ``[fn(item) for item in items]``, in item order.
    """
    return list(parallel_imap(fn, items, jobs=jobs, chunk_size=chunk_size))


def parallel_imap(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
    chunk_size: int | None = None,
) -> Iterator[R]:
    """Yield ``fn(item)`` for each item, in item order, as results arrive.

    With ``jobs <= 1`` (or at most one item) each item is evaluated
    in-process when its result is requested — no pool, no pickling,
    metrics recorded directly.  Otherwise the items are chunked,
    dispatched to a process pool, and each chunk's metrics snapshot is
    merged back into the parent registry before its results are yielded
    (see module docstring), so observability is identical to the serial
    run.  Closing the generator early shuts the pool down.

    Args:
        fn: picklable function of one item.
        items: the work; consumed one item at a time with ``jobs <= 1``,
            else all up front to chunk it.
        jobs: worker process count (capped at the number of items).
        chunk_size: items per dispatched chunk; defaults to spreading
            items over ``jobs × 4`` chunks.
    """
    if jobs > 1:
        items = list(items)
        jobs = min(jobs, len(items))
    if jobs <= 1:
        for item in items:
            yield fn(item)
        return
    if chunk_size is None:
        chunk_size = max(1, math.ceil(len(items) / (jobs * _CHUNKS_PER_WORKER)))
    chunks = chunked(items, chunk_size)
    registry = get_registry()
    # fork is fast and the right default for single-threaded CLI tools,
    # but forking a multi-threaded process (a serving worker's handler
    # threads, say) can inherit a lock mid-acquisition and deadlock the
    # child before it reaches any work; use spawn there instead.
    method = "spawn" if threading.active_count() > 1 else None
    ctx = get_context(method)
    with ctx.Pool(processes=jobs, initializer=_worker_init) as pool:
        for results, snapshot in pool.imap(
            _run_chunk, [(fn, chunk) for chunk in chunks]
        ):
            registry.merge(snapshot)
            yield from results
