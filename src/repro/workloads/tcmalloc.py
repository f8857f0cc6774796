"""A TCMalloc-style size-class free-list allocator (substrate).

The paper's heap-manager TCA (after Mallacc [5] and the PHP-accelerator
work [6]) caches a subset of TCMalloc's size-class free lists in hardware
tables, turning the common malloc/free into single-cycle operations.  The
baseline costs come from the paper's §IV: TCMalloc's malloc averages about
39 cycles / 69 x86 uops and free about 20 cycles / 37 uops.

This module implements the allocator the microbenchmark actually
exercises: four small-object size classes (0–32, 33–64, 65–96, 97–128
bytes) with per-class LIFO free lists refilled by carving spans from a
page cursor — the same fast-path structure TCMalloc's thread cache has.
The allocator is functional (it hands out real, non-overlapping addresses
and detects double frees), and it doubles as the *address oracle* for the
baseline software traces: the uop sequences emitted by
:func:`emit_malloc_software` / :func:`emit_free_software` load and store
the actual free-list head and object-header locations the allocator
touched, so cache behaviour in simulation matches the data structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.isa.instructions import Instruction, OpClass
from repro.isa.trace import (
    TraceBuilder,
    alu_record,
    load_record,
    row_template,
    store_record,
)

_BRANCH = OpClass.BRANCH

#: Size-class upper bounds in bytes (paper §V-B: 0-32B .. 97-128B).
SIZE_CLASSES: tuple[int, ...] = (32, 64, 96, 128)

#: Published software fast-path costs (paper §IV, citing [15]).
MALLOC_SOFTWARE_CYCLES = 39
MALLOC_SOFTWARE_UOPS = 69
FREE_SOFTWARE_CYCLES = 20
FREE_SOFTWARE_UOPS = 37

#: Memory layout of the simulated allocator metadata.
FREELIST_HEAD_BASE = 0x0200_0000  # one 8B head pointer per class
CLASS_TABLE_BASE = 0x0200_1000  # size -> class lookup table
STATS_BASE = 0x0200_2000  # allocation counters
DEFAULT_HEAP_BASE = 0x1000_0000
DEFAULT_PAGE_SIZE = 4096


class HeapCorruptionError(RuntimeError):
    """Raised on double free, foreign pointer, or metadata corruption."""


@dataclass
class AllocatorStats:
    """Operation counters for one allocator instance."""

    mallocs: int = 0
    frees: int = 0
    refills: int = 0
    live_objects: int = 0
    bytes_reserved: int = 0
    per_class_mallocs: dict[int, int] = field(default_factory=dict)

    def record_malloc(self, size_class: int) -> None:
        """Count one allocation in ``size_class``."""
        self.mallocs += 1
        self.live_objects += 1
        self.per_class_mallocs[size_class] = (
            self.per_class_mallocs.get(size_class, 0) + 1
        )

    def record_free(self) -> None:
        """Count one deallocation."""
        self.frees += 1
        self.live_objects -= 1


class SizeClassAllocator:
    """Four-class LIFO free-list allocator with span refill.

    Args:
        heap_base: first byte of the arena the allocator carves spans from.
        page_size: bytes carved per free-list refill.

    The fast path mirrors TCMalloc's thread cache: ``malloc`` maps the
    request to a size class and pops that class's free list; ``free`` maps
    the pointer back to its class and pushes it.  An empty list triggers a
    span refill: a fresh page is carved into equal objects of the class
    size.  This is the structure the heap TCA caches in hardware tables.
    """

    def __init__(
        self,
        heap_base: int = DEFAULT_HEAP_BASE,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        if page_size < max(SIZE_CLASSES):
            raise ValueError(
                f"page_size {page_size} smaller than the largest size class"
            )
        self.heap_base = heap_base
        self.page_size = page_size
        self._cursor = heap_base
        self._free_lists: list[list[int]] = [[] for _ in SIZE_CLASSES]
        self._object_class: dict[int, int] = {}
        self._live: set[int] = set()
        self.stats = AllocatorStats()
        #: Address returned by the most recent :meth:`malloc` (None before
        #: the first allocation); used by trace generators.
        self.last_allocated: int | None = None

    @staticmethod
    def size_class_of(size: int) -> int:
        """Map a request size to a size-class index.

        Raises:
            ValueError: for sizes outside the small-object classes.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        for idx, bound in enumerate(SIZE_CLASSES):
            if size <= bound:
                return idx
        raise ValueError(
            f"size {size} exceeds the largest small-object class "
            f"({SIZE_CLASSES[-1]}B)"
        )

    def free_list_len(self, size_class: int) -> int:
        """Current length of one class's free list."""
        return len(self._free_lists[size_class])

    def free_list_head_addr(self, size_class: int) -> int:
        """Address of the in-memory head pointer for a class (metadata)."""
        return FREELIST_HEAD_BASE + size_class * 8

    def _refill(self, size_class: int) -> None:
        object_size = SIZE_CLASSES[size_class]
        page = self._cursor
        self._cursor += self.page_size
        self.stats.refills += 1
        self.stats.bytes_reserved += self.page_size
        free_list = self._free_lists[size_class]
        addr = page
        while addr + object_size <= page + self.page_size:
            free_list.append(addr)
            self._object_class[addr] = size_class
            addr += object_size

    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the object address."""
        size_class = self.size_class_of(size)
        free_list = self._free_lists[size_class]
        if not free_list:
            self._refill(size_class)
        addr = free_list.pop()
        if addr in self._live:
            raise HeapCorruptionError(f"allocator returned live object {addr:#x}")
        self._live.add(addr)
        self.stats.record_malloc(size_class)
        self.last_allocated = addr
        return addr

    def free(self, addr: int) -> None:
        """Return an object to its class's free list.

        Raises:
            HeapCorruptionError: on double free or foreign pointers.
        """
        if addr not in self._live:
            if addr in self._object_class:
                raise HeapCorruptionError(f"double free of {addr:#x}")
            raise HeapCorruptionError(f"free of foreign pointer {addr:#x}")
        self._live.remove(addr)
        size_class = self._object_class[addr]
        self._free_lists[size_class].append(addr)
        self.stats.record_free()

    @property
    def live_objects(self) -> frozenset[int]:
        """Addresses currently allocated."""
        return frozenset(self._live)

    def check_invariants(self) -> None:
        """Verify structural invariants; raises on corruption.

        - no address is simultaneously live and on a free list;
        - free-list entries belong to their class;
        - no two objects of any class overlap.
        """
        for idx, free_list in enumerate(self._free_lists):
            seen: set[int] = set()
            for addr in free_list:
                if addr in self._live:
                    raise HeapCorruptionError(
                        f"{addr:#x} is both live and free (class {idx})"
                    )
                if self._object_class.get(addr) != idx:
                    raise HeapCorruptionError(
                        f"{addr:#x} on class-{idx} list but registered as "
                        f"class {self._object_class.get(addr)}"
                    )
                if addr in seen:
                    raise HeapCorruptionError(f"{addr:#x} duplicated on free list")
                seen.add(addr)
        # Overlap check: objects of a class are page-carved at fixed pitch,
        # so it suffices that registered addresses are unique (dict keys)
        # and aligned to their class pitch within their page.
        for addr, idx in self._object_class.items():
            pitch = SIZE_CLASSES[idx]
            page_offset = (addr - self.heap_base) % self.page_size
            if page_offset % pitch != 0:
                raise HeapCorruptionError(
                    f"{addr:#x} misaligned for class {idx} (pitch {pitch})"
                )


# --------------------------------------------------------------------------
# Software uop sequences (the baseline the TCA replaces)
# --------------------------------------------------------------------------


def emit_malloc_software(
    builder: TraceBuilder,
    allocator: SizeClassAllocator,
    size: int,
    scratch_regs: tuple[int, ...],
) -> int:
    """Emit TCMalloc's malloc fast path as uops; returns the emitted count.

    The sequence totals :data:`MALLOC_SOFTWARE_UOPS` micro-ops and touches
    the real metadata addresses (class-table lookup, free-list head load,
    next-pointer load, head store, stats update), with a dependent spine
    whose simulated latency lands near the published ~39-cycle cost on the
    evaluated cores.  The allocator state is advanced as a side effect so
    subsequent calls see the post-operation heap.  Only the next-pointer
    load depends on the object handed out; the rest is one cached row
    template per size and register set (:func:`_malloc_template`).

    Args:
        builder: trace builder to emit into.
        allocator: allocator instance (advanced by one malloc).
        size: request size in bytes.
        scratch_regs: at least four registers the sequence may clobber.
    """
    if len(scratch_regs) < 4:
        raise ValueError("emit_malloc_software needs >= 4 scratch registers")
    records, index = _malloc_template(size, tuple(scratch_regs))
    addr = allocator.malloc(size)
    r_head, r_tmp = scratch_regs[2], scratch_regs[3]
    # The next pointer, loaded from the object.
    builder.extend_rows(records, index, (load_record(r_tmp, addr, 8, (r_head,)),))
    return len(index)


@lru_cache(maxsize=64)
def _malloc_template(
    size: int, scratch_regs: tuple[int, ...]
) -> tuple[tuple[Instruction, ...], np.ndarray]:
    """Malloc's fast path as a row template with one hole: the object's
    next-pointer load (every other address depends only on the size)."""
    r_size, r_class, r_head, r_tmp = scratch_regs[:4]
    size_class = SizeClassAllocator.size_class_of(size)
    head_addr = FREELIST_HEAD_BASE + size_class * 8
    stats_addr = STATS_BASE + size_class * 8
    layout: list[Instruction | None] = [
        # Size-to-class mapping: table lookup plus arithmetic.
        alu_record(r_size),  # materialise the request size
        alu_record(r_class, (r_size,)),  # shift/scale into table index
        load_record(r_class, CLASS_TABLE_BASE + (size % 256), 8, (r_class,)),
        # Free-list pop: load head, load next pointer, store new head.
        load_record(r_head, head_addr, 8, (r_class,)),
        None,  # next pointer from the object
        store_record(r_tmp, head_addr),
        # Stats/bookkeeping updates.
        load_record(r_tmp, stats_addr, 8),
        alu_record(r_tmp, (r_tmp,)),
        store_record(r_tmp, stats_addr),
    ]
    # The remaining uops model TCMalloc's checks and slow-path guards:
    # mostly independent ALU work with a short dependent spine and a few
    # metadata probe loads (fixed class-table addresses).
    remaining = MALLOC_SOFTWARE_UOPS - len(layout) - 1  # reserve the final move
    chain_len = 6
    spine = alu_record(r_head, (r_head,))
    layout += (spine,) * chain_len
    for probe in range(remaining - chain_len):
        if probe % 9 == 0:
            layout.append(load_record(r_tmp, CLASS_TABLE_BASE + 64 + (probe % 4) * 8, 8))
        elif probe % 13 == 0:
            layout.append(Instruction(_BRANCH, srcs=(r_class,)))
        else:
            layout.append(alu_record(scratch_regs[probe % len(scratch_regs)]))
    layout.append(spine)  # final: move the pointer to its result reg
    return row_template(layout)


def emit_free_software(
    builder: TraceBuilder,
    allocator: SizeClassAllocator,
    addr: int,
    scratch_regs: tuple[int, ...],
) -> int:
    """Emit TCMalloc's free fast path as uops; returns the emitted count.

    Totals :data:`FREE_SOFTWARE_UOPS` micro-ops: page-map class lookup,
    free-list push (store next pointer into the object, store new head),
    and stats update, plus guard work.  Advances the allocator.  The
    page-map load and the store into the object depend on the pointer;
    the rest is one cached row template per size class and register set
    (:func:`_free_template`).
    """
    if len(scratch_regs) < 4:
        raise ValueError("emit_free_software needs >= 4 scratch registers")
    r_addr, r_class, r_head = scratch_regs[:3]
    size_class = allocator._object_class.get(addr)
    if size_class is None:
        raise HeapCorruptionError(f"free of foreign pointer {addr:#x}")
    records, index = _free_template(size_class, tuple(scratch_regs))
    allocator.free(addr)
    fills = (
        load_record(r_class, CLASS_TABLE_BASE + 512 + (addr >> 12) % 64 * 8, 8, (r_addr,)),
        store_record(r_head, addr),  # object.next = old head
    )
    builder.extend_rows(records, index, fills)
    return len(index)


@lru_cache(maxsize=64)
def _free_template(
    size_class: int, scratch_regs: tuple[int, ...]
) -> tuple[tuple[Instruction, ...], np.ndarray]:
    """Free's fast path as a row template with two holes: the page-map
    class load and the store into the object, in that order."""
    r_addr, r_class, r_head, r_tmp = scratch_regs[:4]
    head_addr = FREELIST_HEAD_BASE + size_class * 8
    layout: list[Instruction | None] = [
        alu_record(r_addr),  # materialise the pointer
        None,  # page-map class lookup
        load_record(r_head, head_addr, 8, (r_class,)),
        None,  # object.next = old head
        alu_record(r_tmp, (r_addr,)),
        store_record(r_tmp, head_addr),  # head = object
    ]
    remaining = FREE_SOFTWARE_UOPS - len(layout)
    chain_len = 4
    layout += (alu_record(r_tmp, (r_tmp,)),) * chain_len
    for probe in range(remaining - chain_len):  # guards: branches and ALU work
        if probe % 11 == 0:
            layout.append(Instruction(_BRANCH, srcs=(r_class,)))
        else:
            layout.append(alu_record(scratch_regs[probe % len(scratch_regs)]))
    return row_template(layout)
