"""Memoization stores: a thread-safe LRU and an on-disk result cache.

Model evaluations are cheap individually but the service answers them by
the million; simulations are expensive enough that re-running one is
always worth avoiding.  Both are pure functions of their content-addressed
keys (:mod:`repro.serve.keys`), so memoization is semantically invisible:

- :class:`LRUCache` — in-memory, thread-safe, bounded by entry count;
  eviction is least-recently-used.  Entries never go stale (every key
  embeds the schema tag), so none expires by age.
- :class:`DiskCache` — JSON files under ``~/.cache/repro/<schema-tag>/``
  (override with ``$REPRO_CACHE_DIR``), sharded by key prefix and written
  atomically.  The directory is versioned by the schema tag, so a package
  or model-equation version bump starts from an empty cache rather than
  serving stale results.
- :class:`EvaluationCache` — the tiers composed: memory first, then
  disk (disk hits are promoted into memory), with hit/miss/eviction counters recorded in the process
  :class:`~repro.obs.metrics.MetricsRegistry` under ``serve.cache.*`` so
  they show up in ``--profile`` output and run manifests.

Values must be JSON-safe (floats — including ``inf`` — dicts, lists,
strings); callers serialize richer results (e.g.
:meth:`~repro.sim.stats.SimStats.to_dict`) before storing.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from time import perf_counter
from typing import Any, Iterable, Sequence

from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.serve.keys import key_filename, schema_tag

_log = get_logger(__name__)

#: Default in-memory entry bound — small enough to be RAM-trivial
#: (values are floats/dicts), large enough to hold a full design-space
#: sweep's working set.
DEFAULT_MAX_ENTRIES = 100_000

#: Sentinel returned by ``get`` on a miss, so ``None`` stays storable.
MISS: Any = object()

#: Default on-disk cache bound (bytes); ``$REPRO_DISK_CACHE_BYTES``
#: overrides, ``0`` disables the bound entirely.
DEFAULT_DISK_CACHE_BYTES = 1024 * 1024 * 1024


def default_disk_cache_bytes() -> int | None:
    """The disk-cache size bound: ``$REPRO_DISK_CACHE_BYTES`` or 1 GiB.

    ``0`` (or any non-positive value) means unbounded — the pre-bound
    behavior, for operators who manage the cache directory themselves.
    """
    raw = os.environ.get("REPRO_DISK_CACHE_BYTES", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_DISK_CACHE_BYTES
    return value if value > 0 else None


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


def default_cache_dir() -> str:
    """Root directory for on-disk caches.

    ``$REPRO_CACHE_DIR`` wins; otherwise ``$XDG_CACHE_HOME/repro`` or
    ``~/.cache/repro``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def _sanitize_tag(tag: str) -> str:
    """A filesystem-safe directory name for a schema tag."""
    return re.sub(r"[^A-Za-z0-9._+-]", "_", tag)


class DiskCache:
    """JSON-file store versioned by schema tag, safe across processes.

    Each entry lives at ``<root>/<schema-tag>/<name[:2]>/<name>.json``
    (``name`` is :func:`~repro.serve.keys.key_filename` of the key, so
    tuple evaluation keys and hex simulation keys both work).  This is
    the cross-process result store of the pre-forked worker pool: many
    workers read and write the same directory concurrently, which the
    store survives without any locking because every write is

    1. serialized into a ``tempfile.mkstemp`` file *in the destination
       directory* (same filesystem, so the final step cannot degrade to
       a copy),
    2. flushed and ``fsync``'d, then
    3. ``os.replace``'d into place — atomic on POSIX and Windows.

    A reader therefore sees either the complete previous value or the
    complete new one, never a partial file; concurrent writers of the
    same key are last-writer-wins with either complete value.  I/O
    errors and corrupt files degrade to misses: the cache never takes
    down the computation it fronts.

    The store is **size-bounded**: once its entries exceed ``max_bytes``
    the least-recently-used ones are deleted (recency is file mtime,
    which :meth:`get` refreshes on every hit — safe under concurrent
    workers because deleting a just-recreated file is merely a cache
    miss later).  Eviction runs after a put crosses the bound and clears
    down to 90% of it, so a steady write load amortizes the directory
    walk; ``evictions``/``evicted_bytes`` counters surface in
    :meth:`stats` and ``/healthz``.

    Args:
        root: cache root (default :func:`default_cache_dir`).
        tag: schema tag namespace (default :func:`~repro.serve.keys.schema_tag`);
            a different tag reads/writes a disjoint directory, which is
            how schema bumps invalidate stale results.
        fsync: force written entries to stable storage before renaming
            (default on; tests and throwaway stores can turn it off).
        max_bytes: total-entry-size bound; ``None`` defers to
            :func:`default_disk_cache_bytes` (``$REPRO_DISK_CACHE_BYTES``
            or 1 GiB), ``0`` disables the bound.
    """

    #: Eviction clears down to this fraction of ``max_bytes``.
    _LOW_WATER = 0.9

    def __init__(
        self,
        root: str | None = None,
        tag: str | None = None,
        fsync: bool = True,
        max_bytes: int | None = None,
    ) -> None:
        self.tag = tag if tag is not None else schema_tag()
        self.root = os.path.join(root or default_cache_dir(), _sanitize_tag(self.tag))
        self.fsync = fsync
        if max_bytes is None:
            self.max_bytes: int | None = default_disk_cache_bytes()
        else:
            self.max_bytes = max_bytes if max_bytes > 0 else None
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self._size_lock = threading.Lock()
        self._total_bytes: int | None = None  # lazy; None = not yet walked

    def _path(self, key: Any) -> str:
        name = key_filename(key)
        return os.path.join(self.root, name[:2], f"{name}.json")

    def get(self, key: Any) -> Any:
        """The stored value, or :data:`MISS` (corrupt/unreadable = miss)."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            value = payload["value"]
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except (OSError, ValueError, KeyError) as exc:
            self.errors += 1
            self.misses += 1
            _log.warning("disk cache entry %s unreadable: %s", path, exc)
            return MISS
        if self.max_bytes is not None:
            try:
                os.utime(path)  # refresh recency for LRU eviction
            except OSError:
                pass
        self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> None:
        """Atomically persist ``value`` under ``key`` (errors are logged).

        Write-to-temp + ``fsync`` + ``os.replace`` in the destination
        directory: concurrent readers (including other worker processes)
        can never observe a partially written entry.
        """
        path = self._path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(
                        {
                            "schema": self.tag,
                            "key": key_filename(key),
                            "value": value,
                        },
                        handle,
                    )
                    if self.fsync:
                        handle.flush()
                        os.fsync(handle.fileno())
                written = os.path.getsize(tmp)
                try:
                    replaced = os.path.getsize(path)
                except OSError:
                    replaced = 0
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.errors += 1
            _log.warning("disk cache write %s failed: %s", path, exc)
            return
        self.writes += 1
        if self.max_bytes is not None:
            self._account_write(written - replaced)

    # -- size bounding -------------------------------------------------

    def _walk_entries(self) -> list[tuple[float, int, str]]:
        """Every entry as ``(mtime, size, path)`` (best-effort)."""
        entries: list[tuple[float, int, str]] = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                entries.append((info.st_mtime, info.st_size, path))
        return entries

    def _account_write(self, delta: int) -> None:
        """Track the running total and evict once it crosses the bound.

        The total is measured with one directory walk on the first
        bounded write (picking up entries from previous runs) and
        maintained incrementally after that.  Concurrent workers each
        keep their own estimate; the walk that starts an eviction
        refreshes it, so multi-process drift self-corrects exactly when
        it matters.
        """
        assert self.max_bytes is not None
        with self._size_lock:
            if self._total_bytes is None:
                self._total_bytes = sum(
                    size for _mtime, size, _path in self._walk_entries()
                )
            else:
                self._total_bytes += delta
            if self._total_bytes <= self.max_bytes:
                return
            self._evict_locked()

    def _evict_locked(self) -> None:
        """Delete LRU entries down to the low-water mark (lock held)."""
        assert self.max_bytes is not None
        entries = self._walk_entries()
        total = sum(size for _mtime, size, _path in entries)
        target = int(self.max_bytes * self._LOW_WATER)
        entries.sort()  # oldest mtime first = least recently used
        for _mtime, size, path in entries:
            if total <= target:
                break
            try:
                os.unlink(path)
            except OSError:
                continue  # another worker evicted it first
            total -= size
            self.evictions += 1
            self.evicted_bytes += size
        self._total_bytes = total

    def clear(self) -> int:
        """Delete this tag's entries; returns the number removed."""
        removed = 0
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
        with self._size_lock:
            self._total_bytes = None  # re-measure on the next bounded write
        return removed

    def stats(self) -> dict[str, Any]:
        """JSON-safe snapshot of location and access counters."""
        with self._size_lock:
            total = self._total_bytes
        return {
            "root": self.root,
            "tag": self.tag,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "errors": self.errors,
            "max_bytes": self.max_bytes,
            "total_bytes": total,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
        }


class EvaluationCache:
    """The service's memoization layer: in-memory LRU plus optional disk.

    Lookup order is memory, then the optional disk tier; a disk hit is
    promoted into memory.  Every access is mirrored into the process
    :class:`~repro.obs.metrics.MetricsRegistry`:

    ========================  ============================================
    ``serve.cache.hits``      requests answered from any tier
    ``serve.cache.misses``    requests no tier could answer
    ``serve.cache.evictions`` LRU evictions (size bound)
    ``serve.cache.disk_hits``   answered from disk (subset of hits)
    ``serve.cache.disk_writes`` values persisted to disk
    ========================  ============================================

    plus the ``serve.cache.lookup`` latency histogram: one sample per
    :meth:`get` or :meth:`get_many` call (the whole probe, every tier),
    feeding the p50/p90/p99 lookup-cost view in ``/metrics``.

    Args:
        max_entries: in-memory LRU bound.
        disk: ``True`` for the default on-disk store, a
            :class:`DiskCache` instance, or ``None``/``False`` for
            memory-only.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk: "DiskCache | bool | None" = None,
    ) -> None:
        self.memory = LRUCache(max_entries=max_entries)
        if disk is True:
            self.disk: DiskCache | None = DiskCache()
        elif isinstance(disk, DiskCache):
            self.disk = disk
        else:
            self.disk = None
        registry = get_registry()
        self._hits = registry.counter("serve.cache.hits")
        self._misses = registry.counter("serve.cache.misses")
        self._evictions = registry.counter("serve.cache.evictions")
        self._disk_hits = registry.counter("serve.cache.disk_hits")
        self._disk_writes = registry.counter("serve.cache.disk_writes")
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
        """The cached value from any tier, or :data:`MISS`."""
        return self.get_many((key,))[0]

    def put(self, key: Any, value: Any) -> None:
        """Store ``value`` in memory and, if enabled, on disk."""
        self.put_many(((key, value),))

    def get_many(self, keys: Sequence[Any]) -> list[Any]:
        """Bulk :meth:`get`: one value (or :data:`MISS`) per key, in order.

        The in-memory probe is a single :meth:`LRUCache.get_many` (one
        lock round-trip); the disk tier sees only the keys memory missed.
        """
        started = perf_counter()
        values = self.memory.get_many(keys)
        self._sync_evictions()
        missing = [i for i, value in enumerate(values) if value is MISS]
        if missing and self.disk is not None:
            promoted = []
            still_missing = []
            for position in missing:
                value = self.disk.get(keys[position])
                if value is MISS:
                    still_missing.append(position)
                else:
                    values[position] = value
                    promoted.append((keys[position], value))
            if promoted:
                self.memory.put_many(promoted)
                self._sync_evictions()
                self._disk_hits.inc(len(promoted))
            missing = still_missing
        hits = len(keys) - len(missing)
        if hits:
            self._hits.inc(hits)
        if missing:
            self._misses.inc(len(missing))
        self._lookup.observe(perf_counter() - started)
        return values

    def put_many(self, items: Sequence[tuple[Any, Any]]) -> None:
        """Bulk :meth:`put`: memory in one lock round-trip, then disk."""
        self.memory.put_many(items)
        self._sync_evictions()
        if self.disk is not None:
            for key, value in items:
                self.disk.put(key, value)
            self._disk_writes.inc(len(items))

    def clear(self) -> None:
        """Drop the in-memory layer and this tag's disk entries."""
        self.memory.clear()
        if self.disk is not None:
            self.disk.clear()

    def stats(self) -> dict[str, Any]:
        """Combined JSON-safe snapshot of every tier.

        This is the ``cache`` block run manifests record (see
        :func:`repro.obs.manifest.build_manifest`).
        """
        return {
            "memory": self.memory.stats(),
            "disk": self.disk.stats() if self.disk is not None else None,
        }
