"""Two-level set-associative cache hierarchy with LRU replacement.

The hierarchy models what the paper's experiments need from gem5's memory
system: L1-D hit/miss timing that separates cache-resident workloads (heap
microbenchmarks, blocked DGEMM inner loops) from streaming ones, an L2
backstop, and a flat DRAM latency.  Accesses return a *latency*; the
hierarchy has no bandwidth model beyond the core's load/store ports and
MSHR limit, matching the first-order level of detail the analytical model
is validated at.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.instructions import CACHE_LINE_BYTES
from repro.obs.span import span


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Attributes:
        size: capacity in bytes.
        assoc: ways per set.
        latency: hit latency in cycles.
        line: line size in bytes.
    """

    size: int
    assoc: int
    latency: int
    line: int = CACHE_LINE_BYTES

    def __post_init__(self) -> None:
        if self.size <= 0 or self.assoc <= 0 or self.line <= 0:
            raise ValueError("cache size/assoc/line must be positive")
        if self.latency < 1:
            raise ValueError(f"cache latency must be >= 1, got {self.latency}")
        if self.size % (self.assoc * self.line) != 0:
            raise ValueError(
                f"cache size {self.size} not divisible by assoc*line "
                f"({self.assoc}*{self.line})"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size // (self.assoc * self.line)


@dataclass
class CacheLevelStats:
    """Hit/miss counters for one level."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        """Accesses that hit."""
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Miss ratio (0 when never accessed)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class _CacheLevel:
    """One set-associative LRU cache level.

    Residency lives in exactly one of two forms at a time:

    - **lists**: a dict of per-set tag lists, most-recently-used first,
      materialized on first touch (a fresh hierarchy is built per run,
      and most runs touch a small fraction of the L2 sets).  The Python
      engine reads and writes this form; with the small associativities
      used here, list operations beat an ordered dict per set.
    - **arrays**: the C kernel's flat int64 pair, ``tags`` (``assoc``
      slots per set, MRU first) and ``cnt`` (valid ways per set), which
      the kernel reads and writes in place.

    A level starts in list form.  :meth:`arrays` moves it to array form;
    :meth:`access`, :meth:`contains` and :meth:`load_state` move it back.
    Each form is built only when something asks for it, so a run on the
    kernel never builds a list and a host without the kernel never
    allocates an array.  :meth:`export_state` reads either form in place.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: dict[int, list[int]] | None = {}
        #: ``(tags, cnt, tags address, cnt address)`` in array form.
        self._arrays: tuple[np.ndarray, np.ndarray, int, int] | None = None
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._line_shift = config.line.bit_length() - 1
        if (1 << self._line_shift) != config.line:
            raise ValueError(f"line size must be a power of two, got {config.line}")
        self.stats = CacheLevelStats()

    def arrays(self) -> tuple[np.ndarray, np.ndarray, int, int]:
        """The kernel's ``(tags, cnt)`` arrays and their addresses.

        Built from the lists on the first ask after a list-form change;
        the arrays then own residency until a list-form operation.
        ``load_state`` refuses a snapshot wider than the ways, so every
        set fits its ``assoc`` slots.
        """
        if self._arrays is None:
            n = self._num_sets * self._assoc
            block = np.zeros(n + self._num_sets, dtype=np.int64)
            tags, cnt = block[:n], block[n:]
            if self._sets:
                with span("sim.cache.sync"):
                    assoc = self._assoc
                    for idx, set_tags in self._sets.items():
                        cnt[idx] = len(set_tags)
                        tags[idx * assoc : idx * assoc + len(set_tags)] = set_tags
            base = block.ctypes.data
            self._arrays = (tags, cnt, base, base + 8 * n)
            self._sets = None
        return self._arrays

    def __getstate__(self) -> dict:
        """Pickle and copy in list form: array addresses do not survive."""
        state = self.__dict__.copy()
        state["_sets"] = self.export_state()
        state["_arrays"] = None
        return state

    def _array_sets(self) -> dict[int, list[int]]:
        """Fresh per-set lists read from the array form."""
        tags, cnt = self._arrays[0], self._arrays[1]
        live = np.flatnonzero(cnt)
        rows = tags.reshape(-1, self._assoc)[live].tolist()
        return {
            idx: row[:count]
            for idx, row, count in zip(live.tolist(), rows, cnt[live].tolist())
        }

    def _lists(self) -> dict[int, list[int]]:
        """The per-set lists, built from the arrays if those own residency."""
        if self._sets is None:
            with span("sim.cache.sync"):
                self._sets = self._array_sets()
            self._arrays = None
        return self._sets

    def access(self, addr: int) -> bool:
        """Access the line containing ``addr``; returns ``True`` on hit.

        On miss the line is allocated (evicting LRU); on hit it is moved to
        MRU position.
        """
        sets = self._sets
        if sets is None:
            sets = self._lists()
        tag = addr >> self._line_shift
        self.stats.accesses += 1
        cache_set = sets.get(tag % self._num_sets)
        if cache_set is None:
            sets[tag % self._num_sets] = [tag]
            self.stats.misses += 1
            return False
        try:
            cache_set.remove(tag)
        except ValueError:
            self.stats.misses += 1
            cache_set.insert(0, tag)
            if len(cache_set) > self._assoc:
                cache_set.pop()
            return False
        cache_set.insert(0, tag)
        return True

    def contains(self, addr: int) -> bool:
        """Whether the line holding ``addr`` is resident (no LRU update)."""
        sets = self._sets
        if sets is None:
            sets = self._lists()
        tag = addr >> self._line_shift
        cache_set = sets.get(tag % self._num_sets)
        return cache_set is not None and tag in cache_set

    def flush(self) -> None:
        """Invalidate all lines (stats preserved)."""
        self._sets = {}
        self._arrays = None

    def export_state(self) -> dict[int, list[int]]:
        """Resident line tags per set, MRU-first (JSON/pickle-safe copy)."""
        if self._sets is None:
            return self._array_sets()
        return {idx: list(tags) for idx, tags in self._sets.items() if tags}

    def load_state(self, state: "dict[int | str, list[int]]") -> None:
        """Replace residency with an :meth:`export_state` snapshot.

        Set indices arriving as strings (a snapshot round-tripped through
        JSON) are accepted; stats counters are untouched.  A snapshot
        this level could not have produced raises ``ValueError``: a set
        index out of range, more tags than ways, a repeated tag, or a tag
        (outside int64 or) of another set.
        """
        num_sets = self._num_sets
        sets: dict[int, list[int]] = {}
        for key, raw in state.items():
            idx = int(key)
            tags = [int(tag) for tag in raw]
            if not tags:
                continue
            if not 0 <= idx < num_sets:
                raise ValueError(f"cache snapshot set {idx} outside [0, {num_sets})")
            if len(tags) > self._assoc:
                raise ValueError(
                    f"cache snapshot set {idx} holds {len(tags)} tags "
                    f"for {self._assoc} ways"
                )
            if len(set(tags)) != len(tags):
                raise ValueError(f"cache snapshot set {idx} repeats a tag")
            if any(not 0 <= tag < 1 << 63 or tag % num_sets != idx for tag in tags):
                raise ValueError(f"cache snapshot set {idx} holds a foreign tag")
            sets[idx] = tags
        self._sets = sets
        self._arrays = None


class CacheHierarchy:
    """L1-D + L2 + DRAM with additive miss latency.

    Args:
        l1: level-1 data cache config.
        l2: level-2 cache config.
        mem_latency: DRAM access latency in cycles.
        prefetch_next_line: enable an idealized next-line prefetcher —
            every demand access also pulls the sequentially-next line
            into the hierarchy if absent (no extra latency charged; an
            upper bound on what a simple stream prefetcher buys, one of
            the ablation axes).

    An access that spans multiple cache lines is charged the worst line's
    latency (the lines are probed — and allocated — individually).
    """

    def __init__(
        self,
        l1: CacheConfig,
        l2: CacheConfig,
        mem_latency: int,
        prefetch_next_line: bool = False,
    ) -> None:
        if mem_latency < 1:
            raise ValueError(f"mem_latency must be >= 1, got {mem_latency}")
        self.l1 = _CacheLevel(l1)
        self.l2 = _CacheLevel(l2)
        self.mem_latency = mem_latency
        self.prefetch_next_line = prefetch_next_line
        self.prefetches = 0
        self._line = l1.line

    def access(self, addr: int, size: int = 8) -> tuple[int, bool]:
        """Access ``size`` bytes at ``addr``.

        Returns:
            ``(latency, missed)`` where ``latency`` is the cycles until data
            is available and ``missed`` is True when any touched line missed
            in the L1 (used for MSHR accounting).
        """
        worst = 0
        missed = False
        if size <= 0:  # an empty range touches no lines (any alignment)
            return worst, missed
        line = self._line
        first = addr - (addr % line)
        last = addr + size - 1
        line_addr = first
        while line_addr <= last:
            latency = self._access_line(line_addr)
            if latency > worst:
                worst = latency
            if latency > self.l1.config.latency:
                missed = True
            if self.prefetch_next_line and not self.l1.contains(line_addr + line):
                self._access_line(line_addr + line)
                self.prefetches += 1
            line_addr += line
        return worst, missed

    def _access_line(self, line_addr: int) -> int:
        if self.l1.access(line_addr):
            return self.l1.config.latency
        if self.l2.access(line_addr):
            return self.l1.config.latency + self.l2.config.latency
        return self.l1.config.latency + self.l2.config.latency + self.mem_latency

    def access_lines(self, lines: tuple[int, ...]) -> tuple[int, bool]:
        """:meth:`access` over a precomputed ascending line-address tuple.

        The compiled-trace hot path expands ``(addr, size)`` into line
        addresses once at compile time; probe/allocate/prefetch order is
        identical to :meth:`access` on the originating byte range.
        """
        worst = 0
        missed = False
        l1 = self.l1
        l1_latency = l1.config.latency
        line = self._line
        prefetch = self.prefetch_next_line
        for line_addr in lines:
            latency = self._access_line(line_addr)
            if latency > worst:
                worst = latency
            if latency > l1_latency:
                missed = True
            if prefetch and not l1.contains(line_addr + line):
                self._access_line(line_addr + line)
                self.prefetches += 1
        return worst, missed

    def write(self, addr: int, size: int = 8) -> None:
        """Commit-time store: allocate/refresh lines without stalling.

        Stores drain from the store buffer at commit; the core does not wait
        for them, so the hierarchy only updates residency/LRU state.
        """
        if size <= 0:
            return
        line = self._line
        first = addr - (addr % line)
        last = addr + size - 1
        line_addr = first
        while line_addr <= last:
            self._access_line(line_addr)
            line_addr += line

    def write_lines(self, lines: tuple[int, ...]) -> None:
        """:meth:`write` over precomputed line addresses (commit-time drain)."""
        for line_addr in lines:
            self._access_line(line_addr)

    def warm_lines(self, lines: tuple[int, ...]) -> None:
        """Pre-load precomputed line addresses without counting stats."""
        saved_l1 = (self.l1.stats.accesses, self.l1.stats.misses)
        saved_l2 = (self.l2.stats.accesses, self.l2.stats.misses)
        for line_addr in lines:
            self._access_line(line_addr)
        self.l1.stats.accesses, self.l1.stats.misses = saved_l1
        self.l2.stats.accesses, self.l2.stats.misses = saved_l2

    def warm(self, addr: int, size: int) -> None:
        """Pre-load a byte range into both levels without counting stats."""
        if size <= 0:
            return
        saved_l1 = (self.l1.stats.accesses, self.l1.stats.misses)
        saved_l2 = (self.l2.stats.accesses, self.l2.stats.misses)
        line = self._line
        first = addr - (addr % line)
        last = addr + size - 1
        line_addr = first
        while line_addr <= last:
            self._access_line(line_addr)
            line_addr += line
        self.l1.stats.accesses, self.l1.stats.misses = saved_l1
        self.l2.stats.accesses, self.l2.stats.misses = saved_l2

    def flush(self) -> None:
        """Invalidate both levels."""
        self.l1.flush()
        self.l2.flush()

    def export_state(self) -> dict[str, dict[int, list[int]]]:
        """Snapshot of both levels' residency (a segment run's start state).

        The snapshot is a plain nested dict of ints, picklable for
        :func:`~repro.sim.sample.simulate_segments` pool workers.
        Hit/miss counters are not part of the snapshot.
        """
        return {"l1": self.l1.export_state(), "l2": self.l2.export_state()}

    def load_state(self, state: "dict[str, Any]") -> None:
        """Adopt an :meth:`export_state` snapshot (replaces residency)."""
        self.l1.load_state(state.get("l1", {}))
        self.l2.load_state(state.get("l2", {}))
