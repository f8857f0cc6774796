"""Hash-map TCA workload (one of the paper's motivating fine-grained TCAs).

The PHP-server acceleration work the paper builds on ([6] Gope et al.)
accelerates hash-map probes — the dominant primitive of PHP arrays — with
a tightly-coupled unit.  This module provides the equivalent workload:

- a real **open-addressing hash table** substrate (linear probing,
  power-of-two buckets, tombstone-free deletion by rebuild) that the
  generator actually exercises, so probe sequences and memory addresses
  reflect genuine occupancy and clustering;
- software uop sequences for ``get``/``put`` fast paths (hash, bucket
  load, key compare, optional probe steps) whose lengths scale with the
  *measured* probe distance of each operation;
- a hash-map TCA descriptor: the accelerator hashes and probes in
  hardware, issuing one ≤64 B bucket read per probe step with a
  small pipelined compute latency.

Granularity lands in the tens of instructions — the finest-grained marker
on the paper's Fig. 2 — which is exactly why this accelerator is the most
sensitive to the integration mode.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.isa.instructions import Instruction, OpClass, TCADescriptor, chunk_memory_range
from repro.isa.program import Program, Span
from repro.isa.trace import (
    TraceBuilder,
    alu_block,
    alu_record,
    load_record,
    row_template,
    store_record,
)

#: Memory layout: bucket array and key storage.
BUCKETS_BASE = 0x0800_0000
BUCKET_BYTES = 16  # key hash + value pointer

#: Software fast-path budget: base cost plus per-probe-step cost,
#: estimated from the hash/probe/compare loop of a scripting-language
#: hash map ([6] reports hash-map helpers of tens of instructions).
GET_BASE_UOPS = 18
PUT_BASE_UOPS = 24
PROBE_STEP_UOPS = 7

#: Hardware TCA timing: hash + compare pipeline.
TCA_BASE_LATENCY = 2
TCA_PROBE_LATENCY = 1

_SCRATCH = (0, 1, 2, 3)
_FILLER_REGS = (4, 5, 6, 7)


class OpenAddressingHashMap:
    """Linear-probing hash table over integer keys (the substrate).

    Args:
        capacity: bucket count; must be a power of two.

    The table stores key → value and reports the probe distance of every
    operation, which the trace generators use to size software sequences
    and TCA requests.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0 or capacity & (capacity - 1):
            raise ValueError(f"capacity must be a power of two, got {capacity}")
        self.capacity = capacity
        self._keys: list[int | None] = [None] * capacity
        self._values: list[int] = [0] * capacity
        self.size = 0

    @staticmethod
    def _hash(key: int) -> int:
        # Fibonacci hashing: cheap and well-distributed for dense keys.
        return (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF

    def _probe(self, key: int) -> tuple[int, int]:
        """Return (bucket index, probe distance) for ``key``.

        The returned bucket either holds ``key`` or is the first empty
        slot on its probe path.
        """
        mask = self.capacity - 1
        index = (self._hash(key) >> 32) & mask
        distance = 0
        while self._keys[index] is not None and self._keys[index] != key:
            index = (index + 1) & mask
            distance += 1
            if distance > self.capacity:
                raise RuntimeError("hash map full during probe")
        return index, distance

    def put(self, key: int, value: int) -> int:
        """Insert or update; returns the probe distance used."""
        if self.size >= self.capacity * 7 // 8:
            raise RuntimeError("hash map over load-factor limit")
        index, distance = self._probe(key)
        if self._keys[index] is None:
            self.size += 1
        self._keys[index] = key
        self._values[index] = value
        return distance

    def get(self, key: int) -> tuple[int | None, int]:
        """Lookup; returns (value or None, probe distance)."""
        index, distance = self._probe(key)
        if self._keys[index] == key:
            return self._values[index], distance
        return None, distance

    def bucket_addr(self, key: int) -> int:
        """Memory address of the first bucket on ``key``'s probe path."""
        mask = self.capacity - 1
        index = (self._hash(key) >> 32) & mask
        return BUCKETS_BASE + index * BUCKET_BYTES

    def load_factor(self) -> float:
        """Occupied fraction of the table."""
        return self.size / self.capacity

    def check_invariants(self) -> None:
        """Every stored key must be reachable by its probe path."""
        for index, key in enumerate(self._keys):
            if key is None:
                continue
            found, _distance = self.get(key)
            if found != self._values[index]:
                raise RuntimeError(f"key {key} unreachable by probing")


_BRANCH_ON_CMP = Instruction(OpClass.BRANCH, srcs=(_SCRATCH[3],))


@lru_cache(maxsize=64)
def _operation_template(
    is_put: bool, distance: int, filler_block: int
) -> tuple[tuple[Instruction, ...], np.ndarray]:
    """A ``get`` or ``put`` fast path and the filler after it, as a row template.

    The sequence: hash the key, load the home bucket, compare; per probe
    step a branch, the next bucket's load, a compare and the step's
    bookkeeping; then the value load (``get``) or the key and value
    stores (``put``), padded to the uop budget.  Every record but the
    bucket loads and stores depends only on the probe distance, so those
    are the holes, in the order :func:`_operation_fills` lists them.
    """
    r_key, r_hash, r_bucket, r_cmp = _SCRATCH
    compare = alu_record(r_cmp, (r_bucket, r_key))
    layout: list[Instruction | None] = [
        alu_record(r_key),
        alu_record(r_hash, (r_key,)),  # multiply-hash
        alu_record(r_hash, (r_hash,)),  # shift/mask
        None,  # home bucket load
        compare,
    ]
    for step in range(distance):
        layout += (_BRANCH_ON_CMP, None, compare)  # None: the next bucket's load
        layout += alu_block((_SCRATCH[(step + 2) % 4],), PROBE_STEP_UOPS - 3)
    layout += (None, None) if is_put else (None,)  # key/value stores, or value load
    budget = (PUT_BASE_UOPS if is_put else GET_BASE_UOPS) + distance * PROBE_STEP_UOPS
    layout += alu_block(_SCRATCH, budget - len(layout), start=len(layout))
    layout += alu_block(_FILLER_REGS, filler_block)
    return row_template(layout)


@lru_cache(maxsize=4096)
def _operation_fills(
    is_put: bool, addr: int, capacity: int, distance: int
) -> tuple[Instruction, ...]:
    """The bucket loads and stores of one operation (shared by value)."""
    r_key, r_hash, r_bucket, r_cmp = _SCRATCH
    fills = [load_record(r_bucket, addr, 8, (r_hash,))]
    for step in range(distance):
        probe_addr = BUCKETS_BASE + (
            (addr - BUCKETS_BASE + (step + 1) * BUCKET_BYTES)
            % (capacity * BUCKET_BYTES)
        )
        fills.append(load_record(r_bucket, probe_addr, 8, (r_bucket,)))
    if is_put:
        fills += (store_record(r_key, addr), store_record(r_cmp, addr + 8))
    else:
        fills.append(load_record(r_cmp, addr + 8, 8, (r_cmp,)))
    return tuple(fills)


def _emit_operation(
    builder: TraceBuilder,
    table: OpenAddressingHashMap,
    key: int,
    distance: int,
    is_put: bool,
    filler_block: int,
) -> int:
    """Emit one operation's software fast path and the filler after it;
    returns the fast path's uop count."""
    records, index = _operation_template(is_put, distance, filler_block)
    fills = _operation_fills(is_put, table.bucket_addr(key), table.capacity, distance)
    builder.extend_rows(records, index, fills)
    return len(index) - filler_block


def _tca_descriptor(
    table: OpenAddressingHashMap, key: int, distance: int, is_put: bool, replaced: int
) -> TCADescriptor:
    """Hash-map TCA: one bucket read per probe step, pipelined compare."""
    return _descriptor(table.bucket_addr(key), table.capacity, distance, is_put, replaced)


@lru_cache(maxsize=4096)
def _descriptor(
    addr: int, capacity: int, distance: int, is_put: bool, replaced: int
) -> TCADescriptor:
    """:func:`_tca_descriptor` by value, shared (descriptors are immutable)."""
    reads = []
    for step in range(distance + 1):
        probe_addr = BUCKETS_BASE + (
            (addr - BUCKETS_BASE + step * BUCKET_BYTES)
            % (capacity * BUCKET_BYTES)
        )
        reads.extend(chunk_memory_range(probe_addr, BUCKET_BYTES))
    writes = tuple(
        chunk_memory_range(addr, BUCKET_BYTES, is_write=True)
    ) if is_put else ()
    return TCADescriptor(
        name="hashmap-put" if is_put else "hashmap-get",
        compute_latency=TCA_BASE_LATENCY + distance * TCA_PROBE_LATENCY,
        reads=tuple(reads),
        writes=writes,
        replaced_instructions=replaced,
    )


@dataclass(frozen=True)
class HashMapWorkloadSpec:
    """Parameters of one hash-map microbenchmark instance.

    Attributes:
        operations: number of get/put operations.
        put_fraction: fraction of operations that are puts.
        key_space: keys are drawn from [0, key_space).
        capacity: table buckets (power of two).
        filler_block: independent instructions between operations.
        seed: RNG seed.
    """

    operations: int = 300
    put_fraction: float = 0.35
    key_space: int = 160
    capacity: int = 256
    filler_block: int = 30
    seed: int = 2

    def __post_init__(self) -> None:
        if self.operations <= 0:
            raise ValueError("operations must be positive")
        if not 0.0 <= self.put_fraction <= 1.0:
            raise ValueError("put_fraction must be in [0,1]")
        if self.key_space <= 0:
            raise ValueError("key_space must be positive")
        if self.filler_block < 0:
            raise ValueError("filler_block must be non-negative")
        if self.key_space >= self.capacity * 7 // 8:
            raise ValueError(
                "key_space must stay below the table's load-factor limit"
            )


def generate_hashmap_program(spec: HashMapWorkloadSpec) -> Program:
    """Generate the hash-map microbenchmark as a :class:`Program`.

    Gets and puts interleave with filler compute; every operation's
    software sequence and TCA descriptor reflect the *actual* probe
    distance at that point in the key stream, so clustering effects are
    real.  Gets always target previously-inserted keys.
    """
    rng = random.Random(spec.seed)
    table = OpenAddressingHashMap(spec.capacity)
    builder = TraceBuilder(
        name=f"hashmap-n{spec.operations}",
        metadata={"workload": "hashmap", "operations": spec.operations},
    )
    regions: list[Span] = []
    inserted: list[int] = []  # in first-insert order: gets choose from it
    seen: set[int] = set()

    for op in range(spec.operations):
        do_put = not inserted or rng.random() < spec.put_fraction
        start = len(builder)
        if do_put:
            key = rng.randrange(spec.key_space)
            distance = table.put(key, op)
            if key not in seen:
                seen.add(key)
                inserted.append(key)
        else:
            key = rng.choice(inserted)
            _value, distance = table.get(key)
        emitted = _emit_operation(builder, table, key, distance, do_put, spec.filler_block)
        descriptor = _tca_descriptor(table, key, distance, is_put=do_put, replaced=emitted)
        regions.append((start, emitted, descriptor, (), (8,)))

    table.check_invariants()
    baseline = builder.build()
    baseline.metadata["warm_ranges"] = [
        (BUCKETS_BASE, spec.capacity * BUCKET_BYTES)
    ]
    baseline.metadata["final_load_factor"] = table.load_factor()
    return Program.from_spans(baseline, regions, name=baseline.name)


def mean_granularity(spec: HashMapWorkloadSpec) -> float:
    """Mean software instructions per operation for this spec."""
    program = generate_hashmap_program(spec)
    return program.mean_granularity
