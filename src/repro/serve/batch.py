"""Batch evaluation: heterogeneous queries in a few vectorized passes.

A service request may mix queries over many cores, accelerators, modes,
and drain configurations, and the service parses every query into new
parameter objects.  Evaluating each with a scalar
:class:`~repro.core.model.TCAModel`, or each distinct configuration
with its own :func:`~repro.core.model.speedup_grid` call, spends the
request on per-call overhead.  This engine instead does per-request
work in proportion to distinct values:

1. derives every query's cache key from its group digest
   (:func:`~repro.serve.keys.evaluation_group_key` over core,
   accelerator, mode and drain configuration), looked up once per
   parameter-object combination and memoized by value, so a digest is
   hashed once per distinct configuration, not per query — with caching
   disabled, key construction is skipped entirely;
2. short-circuits queries the cache already answers (one bulk
   :meth:`~repro.serve.cache.EvaluationCache.get_many` — a single lock
   round-trip for the whole batch);
3. evaluates all remaining queries of one mode in **one** pass of
   :func:`~repro.core.model.speedup_rows`, which gathers each row's
   core, accelerator and drain values into columns and runs the same
   eqs. (2)–(9) as ``speedup_grid`` — results equal the per-query
   ``speedup_grid`` call bit for bit;
4. scatters results back in request order and feeds them to the cache
   in one :meth:`~repro.serve.cache.EvaluationCache.put_many`.

Because every query carries a validated
:class:`~repro.core.parameters.WorkloadParameters`, the rows never
produce the NaN infeasibility markers — each is either an active
evaluation or the no-invocation speedup of 1.0, exactly matching the
scalar model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Sequence

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


def preset_key(query: EvaluationQuery, digest: str) -> EvaluationKey:
    """Store ``query``'s cache key, built from its group ``digest``.

    The key is the digest of :func:`~repro.serve.keys.evaluation_group_key`
    for the query's core, accelerator, mode and drain estimator, plus its
    workload's three numbers.  :func:`evaluate_batch` uses a preset key
    as is, so a caller that already holds the digest skips the lookup.
    """
    workload = query.workload
    key = (
        digest,
        workload.acceleratable_fraction,
        workload.invocation_frequency,
        workload.drain_time,
    )
    object.__setattr__(query, "_key", key)
    return key


def evaluate_batch(
    queries: Sequence[EvaluationQuery],
    cache: EvaluationCache | None = None,
) -> list[BatchEntry]:
    """Evaluate many heterogeneous queries through the coalesced path.

    Returns one :class:`BatchEntry` per query, **in request order**.
    With a ``cache``, previously seen queries short-circuit before
    evaluation and fresh results are stored on the way out.

    Batch-layer metrics land in the default registry:
    ``serve.batch.queries`` (total queries), ``serve.batch.groups``
    (vectorized passes issued: one per mode with cache misses),
    ``serve.batch.evaluated`` (rows actually computed), the
    ``serve.batch`` timer, and the ``serve.batch.group_size`` histogram
    (rows per pass).  Inside a request scope the phases record spans
    (``serve.batch.cache_probe`` / ``.partition`` / ``.evaluate`` /
    ``.store``).
    """
    registry = get_registry()
    registry.counter("serve.batch.queries").inc(len(queries))
    group_sizes = registry.histogram("serve.batch.group_size", COUNT_BOUNDS)
    n = len(queries)
    entries: list[BatchEntry | None] = [None] * n
    keys: list[EvaluationKey | None] = [None] * n

    with registry.timer("serve.batch").time(), span("serve.batch"):
        # --- Phase 1: keys + bulk cache probe (skipped uncached). ----
        if cache is not None:
            with span("serve.batch.cache_probe"):
                # Queries parsed from one request spec share their
                # parameter objects, so digests are looked up once per
                # object combination; equal values in new objects then
                # hit the value memo in evaluation_group_key.
                digests: dict[tuple[int, int, TCAMode, int], str] = {}
                for index, query in enumerate(queries):
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
                        # Stored on the query, so a query object that is
                        # evaluated again skips the digest lookup.
                        key = preset_key(query, digest)
                    keys[index] = key
                for index, value in enumerate(cache.get_many(keys)):
                    if value is not MISS:
                        entries[index] = BatchEntry(
                            float(value), True, keys[index]
                        )

        # --- Phase 2: the misses, by mode. ---------------------------
        with span("serve.batch.partition"):
            by_mode: dict[TCAMode, list[int]] = {}
            for index, query in enumerate(queries):
                if entries[index] is None:
                    by_mode.setdefault(query.mode, []).append(index)
            misses = [index for rows in by_mode.values() for index in rows]

        # --- Phase 3: one vectorized pass per mode. ------------------
        fresh: list[tuple[EvaluationKey, Any]] = []
        with span("serve.batch.evaluate"):
            if misses:
                for rows in by_mode.values():
                    group_sizes.observe(len(rows))
                members = [queries[index] for index in misses]
                speedups = speedup_rows(
                    [query.core for query in members],
                    [query.accelerator for query in members],
                    [query.workload for query in members],
                    [query.mode for query in members],
                    [query.drain_estimator for query in members],
                )
                # --- Phase 4: scatter in request order. --------------
                for index, value in zip(misses, speedups.tolist()):
                    key = keys[index]
                    entries[index] = BatchEntry(value, False, key)
                    if key is not None:
                        fresh.append((key, value))
        registry.counter("serve.batch.groups").inc(len(by_mode))
        registry.counter("serve.batch.evaluated").inc(len(misses))
        if fresh:
            with span("serve.batch.store"):
                cache.put_many(fresh)

    assert all(entry is not None for entry in entries)
    return entries  # type: ignore[return-value]
