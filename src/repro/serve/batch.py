"""Batch evaluation: heterogeneous queries in a few vectorized passes.

A service request may mix queries over many cores, accelerators, modes,
and drain configurations.  Evaluating each with a scalar
:class:`~repro.core.model.TCAModel`, or each distinct configuration
with its own :func:`~repro.core.model.speedup_grid` call, spends the
request on per-call overhead.  This engine instead does per-request
work in proportion to distinct values.  Its unit is the keyed row
(:func:`evaluate_rows`): a cache key and a mode, with the row's
parameters fetched only if the cache misses.

1. short-circuits rows the cache already answers (one bulk
   :meth:`~repro.serve.cache.EvaluationCache.get_many` — a single lock
   round-trip for the whole batch);
2. evaluates all remaining rows of one mode in **one** pass of
   :func:`~repro.core.model.speedup_rows`, which gathers each row's
   core, accelerator and drain values into columns and runs the same
   eqs. (2)–(9) as ``speedup_grid`` — results equal the per-query
   ``speedup_grid`` call bit for bit;
3. scatters results back in row order and feeds them to the cache in
   one :meth:`~repro.serve.cache.EvaluationCache.put_many`.

A row's key is its group digest
(:func:`~repro.serve.keys.evaluation_group_key` over core, accelerator,
mode and drain configuration) plus its workload's three numbers.
:func:`evaluate_batch` derives keys for :class:`EvaluationQuery`
objects, looking each digest up once per parameter-object combination
(with caching disabled, key construction is skipped entirely); the
service builds them straight from its parsed query templates.

Because every query carries a validated
:class:`~repro.core.parameters.WorkloadParameters`, the rows never
produce the NaN infeasibility markers — each is either an active
evaluation or the no-invocation speedup of 1.0, exactly matching the
scalar model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from repro.core.drain import DrainEstimator
from repro.core.model import speedup_rows
from repro.core.modes import TCAMode
from repro.core.parameters import (
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)
from repro.obs.histogram import COUNT_BOUNDS
from repro.obs.metrics import get_registry
from repro.obs.span import span
from repro.serve.cache import MISS, EvaluationCache
from repro.serve.keys import EvaluationKey, evaluation_group_key


@dataclass(frozen=True)
class EvaluationQuery:
    """One model-evaluation request.

    Attributes:
        core: processor parameters.
        accelerator: TCA parameters.
        workload: program parameters.
        mode: the integration mode to evaluate.
        drain_estimator: NL-mode drain strategy (``None`` = the model's
            default power law); ignored when the workload carries an
            explicit ``drain_time``, exactly as in :class:`TCAModel`.
    """

    core: CoreParameters
    accelerator: AcceleratorParameters
    workload: WorkloadParameters
    mode: TCAMode
    drain_estimator: DrainEstimator | None = None


class BatchEntry(NamedTuple):
    """One query's outcome within a batch.

    Attributes:
        speedup: the predicted speedup (matches the scalar
            :meth:`~repro.core.model.TCAModel.speedup` to 1e-9).
        cached: whether the value was served from the cache rather than
            evaluated in this batch.
        key: the content-addressed cache key of the evaluation, or
            ``None`` when the batch ran without a cache (keys are then
            never constructed — see :mod:`repro.serve.keys`).
    """

    speedup: float
    cached: bool
    key: EvaluationKey | None


#: What :func:`evaluate_rows` needs to evaluate some rows: their cores,
#: accelerators, workloads, modes and drain estimators, the arguments of
#: :func:`~repro.core.model.speedup_rows`.
Columns = tuple[
    Sequence[CoreParameters],
    Sequence[AcceleratorParameters],
    Sequence[WorkloadParameters],
    Sequence[TCAMode],
    Sequence[DrainEstimator | None],
]


def evaluate_rows(
    keys: Sequence[EvaluationKey] | None,
    modes: Sequence[TCAMode],
    fetch: Callable[[list[int]], Columns],
    cache: EvaluationCache | None = None,
) -> tuple[list[float], list[bool]]:
    """Evaluate keyed rows through the coalesced path.

    Row ``i`` has cache key ``keys[i]`` and mode ``modes[i]``.
    ``fetch(rows)`` returns the :data:`Columns` of the listed rows, and
    is called once, with the rows the cache does not answer.  ``keys`` may be ``None`` when there
    is no ``cache``.  Returns the rows' speedups and cached flags, **in
    row order**.  Fresh results are stored in the cache on the way out.

    Batch-layer metrics land in the default registry:
    ``serve.batch.queries`` (total rows), ``serve.batch.groups``
    (vectorized passes issued: one per mode with cache misses),
    ``serve.batch.evaluated`` (rows actually computed), the
    ``serve.batch`` timer, and the ``serve.batch.group_size`` histogram
    (rows per pass).  Inside a request scope the phases record spans
    (``serve.batch.cache_probe`` / ``.partition`` / ``.evaluate`` /
    ``.store``).
    """
    registry = get_registry()
    n = len(modes)
    registry.counter("serve.batch.queries").inc(n)
    group_sizes = registry.histogram("serve.batch.group_size", COUNT_BOUNDS)
    speedups: list[Any] = [None] * n
    cached = [False] * n

    with registry.timer("serve.batch").time(), span("serve.batch"):
        # --- Phase 1: one bulk cache probe (skipped uncached). -------
        if cache is not None:
            with span("serve.batch.cache_probe"):
                for index, value in enumerate(cache.get_many(keys)):
                    if value is not MISS:
                        speedups[index] = float(value)
                        cached[index] = True

        # --- Phase 2: the misses, by mode. ---------------------------
        with span("serve.batch.partition"):
            by_mode: dict[TCAMode, list[int]] = {}
            for index, mode in enumerate(modes):
                if not cached[index]:
                    by_mode.setdefault(mode, []).append(index)
            misses = [index for rows in by_mode.values() for index in rows]

        # --- Phase 3: one vectorized pass per mode. ------------------
        with span("serve.batch.evaluate"):
            if misses:
                for rows in by_mode.values():
                    group_sizes.observe(len(rows))
                values = speedup_rows(*fetch(misses)).tolist()
                # --- Phase 4: scatter in row order. ------------------
                for index, value in zip(misses, values):
                    speedups[index] = value
        registry.counter("serve.batch.groups").inc(len(by_mode))
        registry.counter("serve.batch.evaluated").inc(len(misses))
        if cache is not None and misses:
            with span("serve.batch.store"):
                cache.put_many([(keys[index], speedups[index]) for index in misses])

    return speedups, cached


def evaluate_batch(
    queries: Sequence[EvaluationQuery],
    cache: EvaluationCache | None = None,
) -> list[BatchEntry]:
    """Evaluate many heterogeneous queries through the coalesced path.

    Returns one :class:`BatchEntry` per query, **in request order**.
    With a ``cache``, previously seen queries short-circuit before
    evaluation and fresh results are stored on the way out; without
    one, no key is built.  The rows go through :func:`evaluate_rows`,
    which records the batch-layer metrics and spans.
    """
    keys = None
    if cache is not None:
        # Queries parsed from one request spec share their parameter
        # objects, so digests are looked up once per object combination;
        # equal values in new objects then hit the value memo in
        # evaluation_group_key.  A key is stored on its query, so a query
        # object evaluated again skips the lookup.
        digests: dict[tuple[int, int, TCAMode, int], str] = {}
        keys = []
        for query in queries:
            key = query.__dict__.get("_key")
            if key is None:
                group = (
                    id(query.core),
                    id(query.accelerator),
                    query.mode,
                    id(query.drain_estimator),
                )
                digest = digests.get(group)
                if digest is None:
                    digest = digests[group] = evaluation_group_key(
                        query.core,
                        query.accelerator,
                        query.mode,
                        query.drain_estimator,
                    )
                workload = query.workload
                key = (
                    digest,
                    workload.acceleratable_fraction,
                    workload.invocation_frequency,
                    workload.drain_time,
                )
                object.__setattr__(query, "_key", key)
            keys.append(key)

    def fetch(rows: list[int]) -> Columns:
        members = [queries[index] for index in rows]
        return (
            [query.core for query in members],
            [query.accelerator for query in members],
            [query.workload for query in members],
            [query.mode for query in members],
            [query.drain_estimator for query in members],
        )

    speedups, cached = evaluate_rows(
        keys, [query.mode for query in queries], fetch, cache
    )
    return list(
        map(BatchEntry, speedups, cached, keys or [None] * len(speedups))
    )
