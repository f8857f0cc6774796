"""Heap-manager TCA microbenchmark (paper §V-B, Fig. 5).

The benchmark interleaves malloc/free calls with filler compute at a
controlled call frequency.  Baseline traces expand each call into the
TCMalloc fast-path uop sequences of :mod:`repro.workloads.tcmalloc`; the
accelerated variant replaces each call with a single-cycle heap TCA
(hardware free-list tables hit in the common case, so the accelerator
never falls back to software — paper §V-B).  Allocation sizes draw from
the four small-object classes, and the call mix maintains a live-object
pool so frees always have a pointer and the accelerator always has a
table entry — the paper's stated operating constraint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from repro.isa.instructions import Instruction, TCADescriptor
from repro.isa.program import Program, Span
from repro.isa.trace import TraceBuilder, alu_block, load_record
from repro.workloads.tcmalloc import (
    FREE_SOFTWARE_UOPS,
    MALLOC_SOFTWARE_UOPS,
    SIZE_CLASSES,
    SizeClassAllocator,
    emit_free_software,
    emit_malloc_software,
)

#: The proposed heap accelerator performs malloc/free in a single cycle
#: (paper §IV).
HEAP_TCA_LATENCY = 1

#: Data region the filler code streams over (distinct from the heap).
#: Small enough to stay L1-resident — the heap benchmark is the paper's
#: *low* memory-bandwidth workload.
FILLER_BASE = 0x4000_0000
FILLER_REGION_BYTES = 4096

#: Registers: 0-3 scratch for heap sequences, 4-11 filler, 12 pointer reg.
_HEAP_SCRATCH = (0, 1, 2, 3)
_FILLER_REGS = (4, 5, 6, 7, 8, 9, 10, 11)
_POINTER_REG = 12


def heap_granularity() -> float:
    """Average baseline instructions replaced per heap-TCA invocation.

    Malloc and free alternate one-for-one in steady state, so the mean
    granularity is the average of the two fast-path uop counts.
    """
    return (MALLOC_SOFTWARE_UOPS + FREE_SOFTWARE_UOPS) / 2.0


@dataclass(frozen=True)
class HeapWorkloadSpec:
    """Parameters of one heap microbenchmark instance.

    Attributes:
        slots: number of operation slots; each is either a heap call or a
            filler block.
        call_probability: probability a slot is a malloc/free call — the
            Fig. 5 x-axis knob (higher means higher invocation frequency
            and higher acceleratable fraction).
        filler_block: instructions per filler slot.
        filler_load_every: one streaming load per this many filler ops.
        max_live: live-object cap; above it the generator prefers frees.
        seed: RNG seed (generation is fully deterministic given the spec).
    """

    slots: int = 400
    call_probability: float = 0.2
    filler_block: int = 40
    filler_load_every: int = 6
    max_live: int = 64
    seed: int = 1

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ValueError(f"slots must be positive, got {self.slots}")
        if not 0.0 <= self.call_probability <= 1.0:
            raise ValueError(
                f"call_probability must be in [0,1], got {self.call_probability}"
            )
        if self.filler_block <= 0:
            raise ValueError(
                f"filler_block must be positive, got {self.filler_block}"
            )
        if self.filler_load_every <= 0:
            raise ValueError(
                f"filler_load_every must be positive, got {self.filler_load_every}"
            )
        if self.max_live < 1:
            raise ValueError(f"max_live must be >= 1, got {self.max_live}")


@lru_cache(maxsize=64)
def _malloc_descriptor(replaced: int) -> TCADescriptor:
    """Heap-TCA malloc invocation: single-cycle, hardware-table hit
    (shared: descriptors are immutable, and the regions that share one
    share a TCA row in the accelerated trace)."""
    return TCADescriptor(
        name="heap-malloc",
        compute_latency=HEAP_TCA_LATENCY,
        replaced_instructions=replaced,
        replaced_cycles=39,
    )


@lru_cache(maxsize=64)
def _free_descriptor(replaced: int) -> TCADescriptor:
    """Heap-TCA free invocation: single-cycle, hardware-table hit (shared)."""
    return TCADescriptor(
        name="heap-free",
        compute_latency=HEAP_TCA_LATENCY,
        replaced_instructions=replaced,
        replaced_cycles=20,
    )


@lru_cache(maxsize=512)
def _filler_slot(block: int, every: int, offset: int) -> tuple[Instruction, ...]:
    """One filler slot's records, cached and shared.

    Position ``i`` of a slot is a load when ``i % every == 0`` and an
    independent ALU op otherwise (cached shared records).  The load at
    position ``i`` reads word ``offset + i`` of the filler region, which
    wraps, so a slot depends only on where it starts in the region.
    """
    records: list[Instruction] = []
    for i in range(0, block, every):
        addr = FILLER_BASE + ((offset + i) * 8) % FILLER_REGION_BYTES
        records.append(load_record(_FILLER_REGS[i % len(_FILLER_REGS)], addr, 8))
        records.extend(alu_block(_FILLER_REGS, min(every, block - i) - 1, start=i + 1))
    return tuple(records)


def _emit_filler(builder: TraceBuilder, spec: HeapWorkloadSpec, slot: int) -> None:
    """Independent ALU work with periodic streaming loads (no heap deps)."""
    offset = slot * spec.filler_block % (FILLER_REGION_BYTES // 8)
    builder.extend(_filler_slot(spec.filler_block, spec.filler_load_every, offset))


def generate_heap_program(spec: HeapWorkloadSpec) -> Program:
    """Generate the heap microbenchmark as a :class:`Program`.

    The baseline trace contains the software TCMalloc sequences; the
    program's regions mark each call for replacement by a heap TCA, so
    :meth:`Program.accelerated` yields the TCA-ified trace.  Both variants
    drive the *same* allocator decision sequence, so the two traces
    describe the same heap activity.
    """
    rng = random.Random(spec.seed)
    allocator = SizeClassAllocator()
    builder = TraceBuilder(
        name=f"heap-p{spec.call_probability:g}-s{spec.slots}",
        metadata={
            "workload": "heap",
            "call_probability": spec.call_probability,
            "slots": spec.slots,
            "seed": spec.seed,
        },
    )
    regions: list[Span] = []
    live: list[int] = []

    for slot in range(spec.slots):
        if rng.random() < spec.call_probability:
            do_malloc = _choose_malloc(rng, live, spec.max_live)
            start = len(builder)
            if do_malloc:
                size = rng.choice(SIZE_CLASSES)
                emit_malloc_software(builder, allocator, size, _HEAP_SCRATCH)
                assert allocator.last_allocated is not None
                live.append(allocator.last_allocated)
                descriptor = _malloc_descriptor(len(builder) - start)
            else:
                victim = live.pop(rng.randrange(len(live)))
                emit_free_software(builder, allocator, victim, _HEAP_SCRATCH)
                descriptor = _free_descriptor(len(builder) - start)
            dsts = (_POINTER_REG,) if do_malloc else ()
            regions.append((start, len(builder) - start, descriptor, (), dsts))
        else:
            _emit_filler(builder, spec, slot)

    baseline = builder.build()
    # Steady-state cache-warming ranges: the allocator metadata, the heap
    # arena pages actually carved, and the L1-resident filler region.  The
    # paper's heap study measures warmed-up behaviour; passing these to the
    # simulator removes cold-start effects on both baseline and TCA runs.
    from repro.workloads import tcmalloc as tc

    baseline.metadata["warm_ranges"] = [
        (FILLER_BASE, FILLER_REGION_BYTES),
        (tc.FREELIST_HEAD_BASE, 64),
        (tc.CLASS_TABLE_BASE, 2048),
        (tc.STATS_BASE, 64),
        (tc.DEFAULT_HEAP_BASE, max(allocator.stats.bytes_reserved, 4096)),
    ]
    return Program.from_spans(baseline, regions, name=baseline.name)


def _choose_malloc(rng: random.Random, live: list[int], max_live: int) -> bool:
    """Pick malloc vs free, keeping the live pool inside (0, max_live]."""
    if not live:
        return True
    if len(live) >= max_live:
        return False
    return rng.random() < 0.5
