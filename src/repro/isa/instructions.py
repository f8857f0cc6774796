"""Micro-op vocabulary and instruction records.

The simulator is trace-driven: workload generators emit a linear sequence of
:class:`Instruction` records (the dynamic instruction stream), and the
simulator executes them with full timing.  An :class:`Instruction` is a
*static* description — the simulator wraps each one in its own dynamic state.

Tightly-coupled accelerator (TCA) invocations are ordinary instructions of
class :attr:`OpClass.TCA` carrying a :class:`TCADescriptor` that lists the
accelerator's compute latency and the memory requests it must issue through
the core's load/store queue (paper §IV: contiguous loads up to 64 B, the
width of an AVX-512 register).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum, unique
from functools import lru_cache

#: Cache line size used throughout the reproduction (bytes).
CACHE_LINE_BYTES = 64

#: Maximum contiguous bytes a single TCA memory request may cover
#: (paper §IV: "contiguous loads for sizes up to 64B").
MAX_TCA_CHUNK_BYTES = 64

#: Largest latency (cycles) a latency override or TCA compute latency may
#: carry; :data:`repro.sim.config.MAX_CYCLES` states why.
MAX_LATENCY = 1 << 26


@unique
class OpClass(Enum):
    """Micro-op classes understood by the simulator.

    The vocabulary mirrors the functional-unit classes of a typical OoO
    core model (gem5's O3 classes, collapsed to what the paper's
    experiments exercise).
    """

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ALU = "fp_alu"
    FP_MUL = "fp_mul"
    FP_DIV = "fp_div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"
    TCA = "tca"

    # Singleton members: identity hashing agrees with equality, skips Enum's Python-level hash.
    __hash__ = object.__hash__

    @property
    def is_memory(self) -> bool:
        """Whether this op accesses memory through the LSQ."""
        return self in (OpClass.LOAD, OpClass.STORE)

    @property
    def is_compute(self) -> bool:
        """Whether this op occupies a compute functional unit."""
        return self in (
            OpClass.INT_ALU,
            OpClass.INT_MUL,
            OpClass.INT_DIV,
            OpClass.FP_ALU,
            OpClass.FP_MUL,
            OpClass.FP_DIV,
        )


@dataclass(frozen=True)
class MemRequest:
    """A contiguous memory request issued by a TCA.

    Attributes:
        addr: byte address of the first byte.
        size: number of contiguous bytes (1..:data:`MAX_TCA_CHUNK_BYTES`).
        is_write: ``True`` for accelerator output stores.
    """

    addr: int
    size: int
    is_write: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"MemRequest size must be positive, got {self.size}")
        if self.size > MAX_TCA_CHUNK_BYTES:
            raise ValueError(
                f"MemRequest size {self.size} exceeds the {MAX_TCA_CHUNK_BYTES}B "
                "contiguous-access limit; use chunk_memory_range()"
            )
        if self.addr < 0:
            raise ValueError(f"MemRequest addr must be non-negative, got {self.addr}")

    @property
    def end(self) -> int:
        """One past the last byte touched."""
        return self.addr + self.size

    def overlaps(self, other: "MemRequest") -> bool:
        """Whether the two byte ranges intersect."""
        return self.addr < other.end and other.addr < self.end

    def overlaps_range(self, addr: int, size: int) -> bool:
        """Whether this request intersects the byte range ``[addr, addr+size)``."""
        return self.addr < addr + size and addr < self.end


@lru_cache(maxsize=4096, typed=True)
def chunk_memory_range(
    addr: int,
    size: int,
    is_write: bool = False,
    chunk: int = MAX_TCA_CHUNK_BYTES,
) -> tuple[MemRequest, ...]:
    """Split a contiguous byte range into ≤``chunk``-byte :class:`MemRequest`\\ s.

    Requests are split at ``chunk``-aligned boundaries so each request stays
    within one cache line when ``chunk == CACHE_LINE_BYTES``, matching the
    paper's assumption that the accelerator issues contiguous loads of at
    most an AVX-512 register width.

    Args:
        addr: starting byte address.
        size: total bytes to cover (may be zero, yielding no requests).
        is_write: whether the requests are stores.
        chunk: maximum bytes per request (and alignment granule).

    Returns:
        Tuple of requests covering exactly ``[addr, addr + size)``.  The
        result is cached: equal arguments share one tuple of immutable
        requests.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if chunk <= 0 or chunk > MAX_TCA_CHUNK_BYTES:
        raise ValueError(f"chunk must be in 1..{MAX_TCA_CHUNK_BYTES}, got {chunk}")
    requests: list[MemRequest] = []
    cursor = addr
    end = addr + size
    while cursor < end:
        boundary = (cursor // chunk + 1) * chunk
        piece = min(end, boundary) - cursor
        requests.append(MemRequest(cursor, piece, is_write))
        cursor += piece
    return tuple(requests)


@dataclass(frozen=True)
class TCADescriptor:
    """Static description of one TCA invocation.

    Attributes:
        name: accelerator name (e.g. ``"heap-malloc"``, ``"mma4x4"``).
        compute_latency: cycles of accelerator compute after its input
            requests have returned (at most :data:`MAX_LATENCY`).
        reads: input memory requests (each ≤64 B contiguous).
        writes: output memory requests, buffered at completion.
        replaced_instructions: number of software instructions this
            invocation replaces in the baseline binary (used to compute the
            acceleratable fraction ``a`` and for reporting).
        replaced_cycles: estimated software execution cycles replaced
            (used by reports; the model derives its own estimate from IPC
            when this is zero).
    """

    name: str
    compute_latency: int
    reads: tuple[MemRequest, ...] = ()
    writes: tuple[MemRequest, ...] = ()
    replaced_instructions: int = 0
    replaced_cycles: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.compute_latency <= MAX_LATENCY:
            raise ValueError(
                f"compute_latency must be in [0, {MAX_LATENCY}], "
                f"got {self.compute_latency}"
            )
        if self.replaced_instructions < 0:
            raise ValueError(
                "replaced_instructions must be non-negative, got "
                f"{self.replaced_instructions}"
            )
        for req in self.reads:
            if req.is_write:
                raise ValueError("read request marked is_write")
        for req in self.writes:
            if not req.is_write:
                raise ValueError("write request not marked is_write")

    @property
    def read_bytes(self) -> int:
        """Total input bytes."""
        return sum(r.size for r in self.reads)

    @property
    def write_bytes(self) -> int:
        """Total output bytes."""
        return sum(w.size for w in self.writes)

    def writes_overlap_range(self, addr: int, size: int) -> bool:
        """Whether any output store intersects ``[addr, addr+size)``."""
        return any(w.overlaps_range(addr, size) for w in self.writes)

    def reads_overlap_range(self, addr: int, size: int) -> bool:
        """Whether any input load intersects ``[addr, addr+size)``."""
        return any(r.overlaps_range(addr, size) for r in self.reads)


_MEMORY_OPS = frozenset((OpClass.LOAD, OpClass.STORE))
_TCA = OpClass.TCA
_BRANCH = OpClass.BRANCH

_InstructionRecord = namedtuple(
    "_InstructionRecord",
    "op srcs dsts addr size mispredicted low_confidence tca latency",
)


class Instruction(_InstructionRecord):
    """One dynamic instruction in a trace: a validated, immutable record.

    A tuple subclass with named fields, so a trace of tens of thousands
    of instructions costs one small tuple each; construction validates
    every field, and attributes cannot be set afterwards.

    Attributes:
        op: micro-op class.
        srcs: architectural source register ids.
        dsts: architectural destination register ids.
        addr: effective address for LOAD/STORE ops.
        size: access size in bytes for LOAD/STORE ops.
        mispredicted: for BRANCH ops, whether the trace marks this branch
            as mispredicted (the simulator charges a front-end redirect).
        low_confidence: for BRANCH ops, whether the predictor would flag
            this branch as low-confidence — used by the partial-speculation
            policy (paper §VIII): a confidence-gated TCA may not start
            while an older low-confidence branch is unresolved.
        tca: descriptor when ``op is OpClass.TCA``.
        latency: optional per-instruction execution latency override
            (cycles, at most :data:`MAX_LATENCY`); ``None`` uses the
            functional-unit default.
    """

    __slots__ = ()

    def __new__(
        cls,
        op: OpClass,
        srcs: tuple[int, ...] = (),
        dsts: tuple[int, ...] = (),
        addr: int | None = None,
        size: int = 8,
        mispredicted: bool = False,
        low_confidence: bool = False,
        tca: TCADescriptor | None = None,
        latency: int | None = None,
    ) -> "Instruction":
        memory = op in _MEMORY_OPS
        if memory and addr is None:
            raise ValueError(f"{op.value} instruction requires addr")
        if op is _TCA:
            if tca is None:
                raise ValueError("TCA instruction requires a TCADescriptor")
        elif tca is not None:
            raise ValueError("non-TCA instruction carries a TCADescriptor")
        if memory and size <= 0:
            raise ValueError(f"memory access size must be positive, got {size}")
        if latency is not None and not 0 <= latency <= MAX_LATENCY:
            raise ValueError(
                f"latency override must be in [0, {MAX_LATENCY}], got {latency}"
            )
        if mispredicted and op is not _BRANCH:
            raise ValueError("only BRANCH instructions can be mispredicted")
        if low_confidence and op is not _BRANCH:
            raise ValueError("only BRANCH instructions can be low-confidence")
        return tuple.__new__(
            cls,
            (op, srcs, dsts, addr, size, mispredicted, low_confidence, tca, latency),
        )

    @property
    def is_tca(self) -> bool:
        """Whether this is a TCA invocation."""
        return self.op is _TCA
