"""Cached, batched evaluation service for the TCA model and simulator.

The analytical model's selling point is answering design-space queries in
microseconds; this package turns that into a *query layer* that can serve
heavy traffic:

- :mod:`repro.serve.keys` — content-addressed cache keys: sha256 over
  canonical-JSON serializations of the parameter dataclasses (never
  Python ``hash()``, so keys survive process restarts and
  ``PYTHONHASHSEED``), versioned by package version + model schema tag;
- :mod:`repro.serve.cache` — a thread-safe, size-bounded in-memory LRU
  result cache with hit/miss/eviction counters in the
  :class:`~repro.obs.metrics.MetricsRegistry`;
- :mod:`repro.serve.batch` — a batch evaluation engine that evaluates
  a batch's cache misses in one vectorized
  :func:`~repro.core.model.speedup_rows` pass per mode, each row with
  its own core, accelerator and drain, and scatters results back in
  request order (cached entries short-circuit before evaluation);
- :mod:`repro.serve.service` — a concurrent JSON-over-HTTP service
  (``repro-serve``) exposing ``/evaluate``, ``/sweep``, ``/simulate``,
  and ``/healthz``;
- :mod:`repro.serve.pool` — the scale-out tier: ``--workers N`` runs a
  pre-forked pool of server processes accepting on one inherited
  listening socket, with crash respawn, graceful pool-wide drain, and a merged ``/healthz``
  pool view.

See ``docs/SERVING.md`` for endpoint schemas and cache semantics.
"""

from repro.serve.batch import BatchEntry, EvaluationQuery, evaluate_batch
from repro.serve.cache import (
    DEFAULT_MAX_ENTRIES,
    EvaluationCache,
    LRUCache,
    MISS,
)
from repro.serve.keys import (
    canonical_json,
    evaluation_group_key,
    evaluation_key,
    schema_tag,
    sha256_key,
    simulation_key,
)

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "BatchEntry",
    "EvaluationCache",
    "EvaluationQuery",
    "LRUCache",
    "MISS",
    "ServeApp",
    "WorkerPool",
    "canonical_json",
    "evaluate_batch",
    "evaluation_group_key",
    "evaluation_key",
    "schema_tag",
    "serve_main",
    "sha256_key",
    "simulation_key",
]


def __getattr__(name: str):
    """Lazy exports for the HTTP and pool layers.

    ``repro.serve.service`` consumes the :mod:`repro.api` façade, which
    itself builds on this package — importing it eagerly here would make
    ``repro.api → repro.serve.batch → repro.serve → repro.serve.service
    → repro.api`` a cycle.  Resolving the service symbols on first access
    keeps the package importable from either direction.
    """
    if name in ("ServeApp", "serve_main"):
        from repro.serve import service

        value = service.ServeApp if name == "ServeApp" else service.main
        globals()[name] = value
        return value
    if name == "WorkerPool":
        from repro.serve.pool import WorkerPool

        globals()[name] = WorkerPool
        return WorkerPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
