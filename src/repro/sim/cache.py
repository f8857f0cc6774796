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
    - **block**: the C kernel's flat int64 block, ``tags`` (``assoc``
      slots per set, MRU first) followed by ``cnt`` (valid ways per
      set), which the kernel reads and writes in place.

    A level starts in list form.  :meth:`pointers` moves it to the block;
    :meth:`access` and :meth:`contains` move it back.  Each form is built
    only when something asks for it, so a run on the kernel never builds
    a list and a host without the kernel never allocates a block.

    A cache snapshot is the block itself: :meth:`snapshot` copies it out
    of either form, and :meth:`adopt` takes a private copy back in.  The
    kernel indexes residency by ``cnt``, so adoption checks the one thing
    it relies on, vectorized: an int64 block of this level's shape whose
    counts lie in ``[0, assoc]``.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: dict[int, list[int]] | None = {}
        self._block: np.ndarray | None = None
        #: Addresses of the block's ``tags`` and ``cnt``, once asked for.
        self._pointers: tuple[int, int] | None = None
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._line_shift = config.line.bit_length() - 1
        if (1 << self._line_shift) != config.line:
            raise ValueError(f"line size must be a power of two, got {config.line}")
        self.stats = CacheLevelStats()

    def pointers(self) -> tuple[int, int]:
        """Addresses of the kernel's ``tags`` and ``cnt``.

        The block is built from the lists on the first ask after a
        list-form change; it then owns residency until a list-form
        operation.
        """
        if self._pointers is None:
            if self._block is None:
                self._block = self._block_from_lists()
                self._sets = None
            base = self._block.ctypes.data
            self._pointers = (base, base + 8 * self._num_sets * self._assoc)
        return self._pointers

    def _block_from_lists(self) -> np.ndarray:
        """A fresh block holding the list form's residency."""
        n = self._num_sets * self._assoc
        block = np.zeros(n + self._num_sets, dtype=np.int64)
        if self._sets:
            with span("sim.cache.sync"):
                assoc = self._assoc
                for idx, set_tags in self._sets.items():
                    block[n + idx] = len(set_tags)
                    block[idx * assoc : idx * assoc + len(set_tags)] = set_tags
        return block

    def snapshot(self) -> np.ndarray:
        """A copy of residency as the kernel's block (the form is unchanged)."""
        if self._sets is None:
            return self._block.copy()
        return self._block_from_lists()

    def adopt(self, block: np.ndarray) -> None:
        """Replace residency with a private copy of a :meth:`snapshot`.

        Stats counters are untouched.  Raises ``ValueError`` unless
        ``block`` is an int64 array of this level's shape with every set
        count in ``[0, assoc]``.
        """
        n = self._num_sets * self._assoc
        shape = (n + self._num_sets,)
        if not (
            isinstance(block, np.ndarray)
            and block.dtype == np.int64
            and block.shape == shape
        ):
            raise ValueError(f"cache snapshot must be an int64 array of shape {shape}")
        # One pass: a negative count wraps to a huge unsigned one.
        if block[n:].view(np.uint64).max() > self._assoc:
            raise ValueError(
                f"cache snapshot holds a set count outside [0, {self._assoc}]"
            )
        self._block = block.copy()
        self._sets = self._pointers = None

    def __getstate__(self) -> dict:
        """Pickle and copy residency as a block copy: addresses do not survive."""
        state = self.__dict__.copy()
        state["_block"] = self.snapshot()
        state["_sets"] = state["_pointers"] = None
        return state

    def _lists(self) -> dict[int, list[int]]:
        """The per-set lists, built from the block if it owns residency."""
        if self._sets is None:
            with span("sim.cache.sync"):
                n = self._num_sets * self._assoc
                cnt = self._block[n:]
                live = np.flatnonzero(cnt)
                rows = self._block[:n].reshape(-1, self._assoc)[live].tolist()
                self._sets = {
                    idx: row[:count]
                    for idx, row, count in zip(live.tolist(), rows, cnt[live].tolist())
                }
            self._block = self._pointers = None
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
        self._block = self._pointers = None


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

    def snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of both levels' residency blocks (a segment run's start state).

        Hit/miss counters are not part of the snapshot.
        """
        return self.l1.snapshot(), self.l2.snapshot()

    def adopt(self, state: tuple[np.ndarray, np.ndarray]) -> None:
        """Replace residency with private copies of a :meth:`snapshot`."""
        l1, l2 = state
        self.l1.adopt(l1)
        self.l2.adopt(l2)
