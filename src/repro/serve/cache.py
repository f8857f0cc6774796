"""Memoization stores: a thread-safe LRU and the service's result cache.

Model evaluations are cheap individually but the service answers them by
the million; simulations are expensive enough that re-running one is
always worth avoiding.  Both are pure functions of their content-addressed
keys (:mod:`repro.serve.keys`), so memoization is semantically invisible:

- :class:`LRUCache` — in-memory, thread-safe, bounded by entry count;
  eviction is least-recently-used.  Entries never go stale (every key
  embeds the schema tag), so none expires by age.
- :class:`EvaluationCache` — the service's one result cache: an
  :class:`LRUCache` whose hit/miss/eviction counters are mirrored into
  the process :class:`~repro.obs.metrics.MetricsRegistry` under
  ``serve.cache.*``, so they show up in ``--profile`` output, ``/metrics``
  and run manifests.

Results live only in process memory: a restart (or another pool worker)
recomputes them, which for the closed-form model costs microseconds.

Stored values are returned by reference, so callers store JSON-style
values (floats, dicts, lists, strings) they never mutate afterwards.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import Any, Iterable, Sequence

from repro.obs.metrics import get_registry

#: Default in-memory entry bound — small enough to be RAM-trivial
#: (values are floats/dicts), large enough to hold a full design-space
#: sweep's working set.
DEFAULT_MAX_ENTRIES = 100_000

#: Sentinel returned by ``get`` on a miss, so ``None`` stays storable.
MISS: Any = object()


class LRUCache:
    """A thread-safe, size-bounded least-recently-used map.

    Args:
        max_entries: entry bound; inserting beyond it evicts the least
            recently *used* entry.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Any:
        """The cached value, or :data:`MISS`; a hit refreshes its recency."""
        return self.get_many((key,))[0]

    def put(self, key: Any, value: Any) -> None:
        """Store ``value``, evicting LRU entries beyond ``max_entries``."""
        self.put_many(((key, value),))

    def get_many(self, keys: Sequence[Any]) -> list[Any]:
        """Bulk :meth:`get`: one value (or :data:`MISS`) per key, in order.

        Takes the lock once for the whole batch — the counter and LRU
        semantics are identical to ``len(keys)`` individual gets, but a
        10k-key probe costs one lock round-trip instead of 10k.
        """
        out: list[Any] = [MISS] * len(keys)
        with self._lock:
            entries = self._entries
            hits = 0
            if entries:
                move_to_end = entries.move_to_end
                entries_get = entries.get
                for position, key in enumerate(keys):
                    value = entries_get(key, MISS)
                    if value is MISS:
                        continue
                    move_to_end(key)
                    hits += 1
                    out[position] = value
            self.hits += hits
            self.misses += len(keys) - hits
        return out

    def put_many(self, items: Iterable[tuple[Any, Any]]) -> None:
        """Bulk :meth:`put` under a single lock acquisition.

        Eviction runs once after the inserts, so the bound holds on
        return exactly as with individual puts.
        """
        with self._lock:
            entries = self._entries
            move_to_end = entries.move_to_end
            for key, value in items:
                entries[key] = value
                move_to_end(key)
            while len(entries) > self.max_entries:
                entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, Any]:
        """JSON-safe snapshot of size, bound, and access counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


class EvaluationCache:
    """The service's memoization layer: one in-memory LRU.

    Every access is mirrored into the process
    :class:`~repro.obs.metrics.MetricsRegistry`:

    ========================  ============================================
    ``serve.cache.hits``      lookups answered from the cache
    ``serve.cache.misses``    lookups the cache could not answer
    ``serve.cache.evictions`` LRU evictions (size bound)
    ========================  ============================================

    plus the ``serve.cache.lookup`` latency histogram: one sample per
    :meth:`get` or :meth:`get_many` call (the whole probe), feeding the
    p50/p90/p99 lookup-cost view in ``/metrics``.

    Args:
        max_entries: in-memory LRU bound.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.memory = LRUCache(max_entries=max_entries)
        registry = get_registry()
        self._hits = registry.counter("serve.cache.hits")
        self._misses = registry.counter("serve.cache.misses")
        self._evictions = registry.counter("serve.cache.evictions")
        self._lookup = registry.histogram("serve.cache.lookup")
        self._evictions_seen = 0

    def _sync_evictions(self) -> None:
        # Evictions happen inside the LRU; forward the delta so the
        # registry total tracks even under concurrent access.
        evictions = self.memory.evictions
        if evictions > self._evictions_seen:
            self._evictions.inc(evictions - self._evictions_seen)
            self._evictions_seen = evictions

    def get(self, key: Any) -> Any:
        """The cached value, or :data:`MISS`."""
        return self.get_many((key,))[0]

    def put(self, key: Any, value: Any) -> None:
        """Store ``value``, evicting LRU entries beyond the bound."""
        self.put_many(((key, value),))

    def get_many(self, keys: Sequence[Any]) -> list[Any]:
        """Bulk :meth:`get`: one value (or :data:`MISS`) per key, in order.

        One :meth:`LRUCache.get_many` probe (one lock round-trip).
        """
        started = perf_counter()
        values = self.memory.get_many(keys)
        misses = sum(value is MISS for value in values)
        if misses < len(keys):
            self._hits.inc(len(keys) - misses)
        if misses:
            self._misses.inc(misses)
        self._lookup.observe(perf_counter() - started)
        return values

    def put_many(self, items: Sequence[tuple[Any, Any]]) -> None:
        """Bulk :meth:`put` in one lock round-trip."""
        self.memory.put_many(items)
        self._sync_evictions()

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self.memory.clear()

    def stats(self) -> dict[str, Any]:
        """JSON-safe snapshot: ``{"memory": <LRU stats>}``.

        This is the ``cache`` block of ``/evaluate``, ``/simulate`` and
        ``/healthz`` responses and of run manifests (see
        :func:`repro.obs.manifest.build_manifest`).
        """
        return {"memory": self.memory.stats()}
