"""String-function TCA workload (paper intro: [6] string functions, [10] STTNI).

PHP-server acceleration [6] and the SSE4.2 string/text instructions [10]
both target string primitives — compares, scans, hashes over short
strings.  This module provides a comparable workload on a real substrate:

- a **string table**: actual byte strings laid out in a flat memory image
  with controlled common-prefix structure, so comparison outcomes (and
  therefore loop trip counts) are content-dependent and *computed*, not
  assumed;
- software ``strcmp`` fast paths: a word-at-a-time compare loop whose
  length follows the measured divergence point of each string pair;
- a string-compare TCA in the STTNI mould: it streams both operands in
  ≤64 B requests up to the divergence point and compares 16 bytes per
  cycle in hardware.

Granularity sits between the hash map and the heap manager for short
strings and grows with string length — sweeping string length walks the
accelerator along the paper's Fig. 2 granularity axis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from repro.isa.instructions import Instruction, OpClass, TCADescriptor, chunk_memory_range
from repro.isa.program import Program, Span
from repro.isa.trace import TraceBuilder, alu_block, alu_record, load_record, row_template
from repro.workloads.draws import draw_bytes, sample_pair

#: Flat memory image for string storage.
STRINGS_BASE = 0x0A00_0000

#: Software compare loop: per-8-byte-word cost and call overhead.
WORD_LOOP_UOPS = 5  # two loads, xor/compare, branch, index update
CALL_BASE_UOPS = 9

#: Hardware: bytes compared per accelerator cycle (SSE4.2-style 16B).
TCA_BYTES_PER_CYCLE = 16
TCA_BASE_LATENCY = 2

_SCRATCH = (0, 1, 2, 3)
_FILLER_REGS = (4, 5, 6, 7)

#: ``randrange(1, 256)`` is ``1 + randbelow(255)``: a choice from these.
_NONZERO_BYTES = bytes(range(1, 256))


class StringTable:
    """Byte strings in a flat memory image (the substrate).

    Args:
        seed: RNG seed for string contents.

    Strings are appended 8-byte aligned; :meth:`compare` returns both the
    C-style ordering result and the byte index at which the operands
    diverge (the quantity that drives both software and TCA timing).
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._strings: list[bytes] = []
        self._addrs: list[int] = []
        self._cursor = STRINGS_BASE

    def add(self, content: bytes) -> int:
        """Store a string; returns its id."""
        self._strings.append(content)
        self._addrs.append(self._cursor)
        self._cursor += (len(content) + 8) & ~7  # 8B aligned, NUL space
        return len(self._strings) - 1

    def add_random(self, length: int, prefix_of: int | None = None,
                   prefix_len: int = 0) -> int:
        """Store a random string, optionally sharing a prefix with another."""
        if prefix_of is not None and prefix_len > 0:
            base = self._strings[prefix_of][:prefix_len]
        else:
            base = b""
        # The same draws as ``self._rng.randrange(1, 256)`` per byte.
        tail = draw_bytes(self._rng, _NONZERO_BYTES, max(0, length - len(base)))
        return self.add((base + tail)[:length])

    def addr(self, string_id: int) -> int:
        """Base address of a stored string."""
        return self._addrs[string_id]

    def content(self, string_id: int) -> bytes:
        """Bytes of a stored string."""
        return self._strings[string_id]

    @property
    def image_bytes(self) -> int:
        """Total bytes of the memory image (for cache warming)."""
        return self._cursor - STRINGS_BASE

    def compare(self, a: int, b: int) -> tuple[int, int]:
        """C-style compare; returns (sign, divergence byte index).

        The divergence index counts the bytes both operands agree on
        (capped at the shorter length + 1 for the terminator check).
        """
        left, right = self._strings[a], self._strings[b]
        limit = min(len(left), len(right))
        for i in range(limit):
            if left[i] != right[i]:
                return (1 if left[i] > right[i] else -1), i
        if len(left) == len(right):
            return 0, limit
        return (1 if len(left) > len(right) else -1), limit


_BRANCH_ON_CMP = Instruction(OpClass.BRANCH, srcs=(_SCRATCH[2],))


@lru_cache(maxsize=64)
def _strcmp_template(
    words: int, filler_block: int
) -> tuple[tuple[Instruction, ...], np.ndarray]:
    """The word-at-a-time strcmp loop and the filler after it, as a row template.

    Per word: a load from each operand, a compare, a branch and an index
    update; then byte-granularity resolution and the return value,
    padded to the uop budget.  The operand loads are the holes, word by
    word, the first operand's before the second's.
    """
    r_a, r_b, r_cmp, r_idx = _SCRATCH
    layout: list[Instruction | None] = [alu_record(r_a), alu_record(r_b)]
    step = (None, None, alu_record(r_cmp, (r_a, r_b)), _BRANCH_ON_CMP, alu_record(r_idx, (r_idx,)))
    layout += step * words
    budget = CALL_BASE_UOPS + words * WORD_LOOP_UOPS
    layout += alu_block(_SCRATCH, budget - len(layout), start=len(layout))
    layout += alu_block(_FILLER_REGS, filler_block)
    return row_template(layout)


@lru_cache(maxsize=1024)
def _operand_loads(reg: int, addr: int, words: int) -> tuple[Instruction, ...]:
    """The loads of one compare operand, word by word (shared by value:
    string addresses repeat across compares)."""
    return tuple(load_record(reg, addr + word * 8, 8, (_SCRATCH[3],)) for word in range(words))


def _emit_strcmp_software(
    builder: TraceBuilder, table: StringTable, a: int, b: int, filler_block: int
) -> tuple[int, int]:
    """Emit the strcmp loop and the filler after it; returns (loop uops,
    divergence)."""
    _sign, divergence = table.compare(a, b)
    words = divergence // 8 + 1
    records, index = _strcmp_template(words, filler_block)
    r_a, r_b = _SCRATCH[:2]
    loads = zip(_operand_loads(r_a, table.addr(a), words), _operand_loads(r_b, table.addr(b), words))
    builder.extend_rows(records, index, tuple(chain.from_iterable(loads)))
    return len(index) - filler_block, divergence


def _strcmp_descriptor(
    table: StringTable, a: int, b: int, divergence: int, replaced: int
) -> TCADescriptor:
    """STTNI-style compare TCA reading both operands to the divergence."""
    span = divergence + 1
    reads = [
        *chunk_memory_range(table.addr(a), span),
        *chunk_memory_range(table.addr(b), span),
    ]
    latency = TCA_BASE_LATENCY + (span + TCA_BYTES_PER_CYCLE - 1) // TCA_BYTES_PER_CYCLE
    return TCADescriptor(
        name="strcmp",
        compute_latency=latency,
        reads=tuple(reads),
        replaced_instructions=replaced,
    )


@dataclass(frozen=True)
class StringWorkloadSpec:
    """Parameters of one string-compare microbenchmark instance.

    Attributes:
        comparisons: number of strcmp calls.
        num_strings: distinct strings in the table.
        string_length: length of each string in bytes.
        shared_prefix: bytes of common prefix between related strings —
            longer prefixes mean longer compare loops (coarser
            granularity).
        filler_block: independent instructions between calls.
        seed: RNG seed.
    """

    comparisons: int = 200
    num_strings: int = 32
    string_length: int = 48
    shared_prefix: int = 16
    filler_block: int = 25
    seed: int = 5

    def __post_init__(self) -> None:
        if self.comparisons <= 0 or self.num_strings < 2:
            raise ValueError("need at least one comparison over two strings")
        if self.string_length <= 0:
            raise ValueError("string_length must be positive")
        if not 0 <= self.shared_prefix <= self.string_length:
            raise ValueError("shared_prefix must be within the string length")
        if self.filler_block < 0:
            raise ValueError("filler_block must be non-negative")


def generate_string_program(spec: StringWorkloadSpec) -> Program:
    """Generate the string-compare microbenchmark as a :class:`Program`."""
    rng = random.Random(spec.seed)
    table = StringTable(seed=spec.seed + 1)
    first = table.add_random(spec.string_length)
    ids = [first]
    for _ in range(spec.num_strings - 1):
        # Per-string prefix length up to the spec's bound: pairs then
        # diverge at the *minimum* of their prefixes, giving the
        # content-dependent spread of compare-loop lengths real string
        # workloads show.
        prefix_len = rng.randint(0, spec.shared_prefix)
        ids.append(
            table.add_random(
                spec.string_length, prefix_of=first, prefix_len=prefix_len
            )
        )

    builder = TraceBuilder(
        name=f"strcmp-n{spec.comparisons}-l{spec.string_length}",
        metadata={"workload": "strings", "comparisons": spec.comparisons},
    )
    regions: list[Span] = []
    for call in range(spec.comparisons):
        a, b = sample_pair(rng, ids)  # the draws of rng.sample(ids, 2)
        start = len(builder)
        emitted, divergence = _emit_strcmp_software(builder, table, a, b, spec.filler_block)
        descriptor = _strcmp_descriptor(table, a, b, divergence, emitted)
        regions.append((start, emitted, descriptor, (), (8,)))

    baseline = builder.build()
    baseline.metadata["warm_ranges"] = [(STRINGS_BASE, max(table.image_bytes, 64))]
    return Program.from_spans(baseline, regions, name=baseline.name)
