"""Chunked streaming of Pareto sweeps for the HTTP service.

A million-point ``/sweep`` request should neither buffer a giant
response nor leave the client staring at a silent connection.  This
module runs the streaming engine of :mod:`repro.core.pareto` behind the
service and emits **NDJSON**: one JSON line per evaluated chunk (a
progress record with the chunk's coordinates and partial-frontier size),
then one final line carrying the merged frontier and sweep summary —
the exact :meth:`repro.api.ParetoSweepResult.to_dict` shape.

Each chunk is cache-keyed through the same content-addressed machinery
as every other result (:func:`pareto_chunk_key` embeds the schema tag),
so repeating or overlapping sweeps replay their chunks from the cache;
per-chunk ``cached`` flags and the ``serve.pareto.*`` counters make the
hit rate visible in ``/metrics``.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

import numpy as np

from repro.core.pareto import (
    PARETO_MAXIMIZE,
    PARETO_OBJECTIVES,
    ParetoAccumulator,
    ParetoChunk,
    ParetoSweepSpec,
    _reduce_chunk_state,
)
from repro.core.parallel import parallel_imap
from repro.obs.metrics import get_registry
from repro.serve.cache import MISS, EvaluationCache
from repro.serve.keys import drain_config, schema_tag, sha256_key

#: Content type of streamed sweep responses (newline-delimited JSON).
NDJSON_CONTENT_TYPE = "application/x-ndjson"


class NDJSONStream:
    """A handler result the HTTP layer streams line by line.

    Wraps an iterator of JSON-safe record dicts; each is written as one
    newline-terminated JSON line and flushed, so clients see chunk
    progress as it happens rather than one buffered body.
    """

    content_type = NDJSON_CONTENT_TYPE

    def __init__(self, records: Iterator[dict[str, Any]]) -> None:
        self.records = records


def pareto_chunk_key(
    chunk: ParetoChunk, digests: dict[bytes, str] | None = None
) -> str:
    """Content-addressed key of one sweep chunk's partial frontier.

    Covers everything :func:`~repro.core.pareto.evaluate_pareto_chunk`
    is a function of — the panel (core, accelerator, energy, mode,
    tech), the axis slice, the drain configuration, and the schema tag —
    and nothing else, so overlapping sweeps share chunk results no
    matter how the surrounding requests differ.  Each axis enters as the
    sha256 of its values' canonical JSON, a digest that depends on the
    values alone.  ``digests`` memoizes them by the axis's float64
    bytes: pass one dict for all chunks of a sweep, and each distinct
    axis slice is JSON-encoded once rather than once per chunk.
    """
    if digests is None:
        digests = {}
    axes = {}
    for name, axis in (
        ("fractions", chunk.fractions),
        ("frequencies", chunk.frequencies),
    ):
        values = np.asarray(axis, dtype=float)
        raw = values.tobytes()
        if raw not in digests:
            digests[raw] = sha256_key(values.tolist())
        axes[name] = digests[raw]
    return sha256_key(
        {
            "kind": "pareto_chunk",
            "schema": schema_tag(),
            "core": chunk.core.to_canonical_dict(),
            "accelerator": chunk.accelerator.to_canonical_dict(),
            "energy": chunk.energy.to_canonical_dict(),
            "mode": chunk.mode.value,
            "tech": chunk.tech,
            "drain": drain_config(chunk.drain_estimator),
            **axes,
        }
    )


def _chunk_states(
    spec: ParetoSweepSpec, cache: EvaluationCache, jobs: int
) -> Iterator[tuple[ParetoChunk, Mapping[str, Any], bool]]:
    """Every chunk's partial-frontier state, cache-first, in sweep order.

    All chunk keys are probed up front; the misses go to one
    :func:`~repro.core.parallel.parallel_imap` (order-preserving), and
    each miss is taken from it — and written back under its chunk key —
    only when its turn in the sweep comes, so the first record streams
    after the first chunk, not after all of them.  The
    ``serve.pareto.evaluate`` timer sums the time spent waiting on
    evaluations.
    """
    registry = get_registry()
    digests: dict[bytes, str] = {}
    probed = []
    for chunk in spec.chunks():
        key = pareto_chunk_key(chunk, digests)
        probed.append((chunk, key, cache.get(key)))
    missing = [chunk for chunk, _, state in probed if state is MISS]
    registry.counter("serve.pareto.cache_hits").inc(len(probed) - len(missing))
    registry.counter("serve.pareto.cache_misses").inc(len(missing))
    fresh = parallel_imap(_reduce_chunk_state, missing, jobs=jobs)
    evaluate = registry.timer("serve.pareto.evaluate")
    for chunk, key, state in probed:
        cached = state is not MISS
        if not cached:
            with evaluate.time():
                state = next(fresh)
            cache.put(key, state)
        yield chunk, state, cached


def pareto_summary(
    spec: ParetoSweepSpec, accumulator: ParetoAccumulator
) -> dict[str, Any]:
    """The sweep summary body — :meth:`ParetoSweepResult.to_dict` shape."""
    return {
        "objectives": list(PARETO_OBJECTIVES),
        "maximize": list(PARETO_MAXIMIZE),
        "frontier": accumulator.points(),
        "frontier_size": accumulator.size,
        "points_seen": accumulator.points_seen,
        "total_points": spec.total_points,
    }


def stream_pareto_records(
    spec: ParetoSweepSpec, cache: EvaluationCache, jobs: int = 1
) -> Iterator[dict[str, Any]]:
    """The NDJSON record stream of one pareto sweep.

    Yields one progress record per chunk — ``{"chunk", "core", "mode",
    "tech", "fraction_rows", "lattice_points", "points_seen",
    "frontier_size", "cached"}`` — as the merge proceeds, then a final
    ``{"summary": ...}`` record with the merged frontier.  The merged
    result is identical for every ``jobs``/``block_size``/cache state.
    """
    registry = get_registry()
    acc = ParetoAccumulator()
    for chunk, state, cached in _chunk_states(spec, cache, jobs):
        partial = ParetoAccumulator.from_state(state)
        acc.merge(partial)
        registry.counter("serve.pareto.chunks").inc()
        registry.counter("serve.pareto.points").inc(partial.points_seen)
        yield {
            "chunk": chunk.index,
            "core": chunk.core.name,
            "mode": chunk.mode.value,
            "tech": chunk.tech,
            "fraction_rows": [chunk.a_start, chunk.a_stop],
            "lattice_points": chunk.lattice_points,
            "points_seen": partial.points_seen,
            "frontier_size": partial.size,
            "cached": cached,
        }
    yield {"summary": pareto_summary(spec, acc), "cache": cache.stats()}


def collect_pareto_sweep(
    spec: ParetoSweepSpec, cache: EvaluationCache, jobs: int = 1
) -> dict[str, Any]:
    """The non-streaming (``stream: false``) response body.

    Runs the same cache-keyed chunk pipeline and returns the chunk
    records plus summary as one JSON object.
    """
    records = list(stream_pareto_records(spec, cache, jobs))
    final = records.pop()
    return {
        "result": final["summary"],
        "chunks": records,
        "cache": final["cache"],
    }
