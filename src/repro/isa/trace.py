"""Trace containers, builders, and integrity checks.

A :class:`Trace` is the unit of work the simulator executes: a named,
immutable-by-convention sequence of :class:`~repro.isa.instructions.Instruction`
records plus light metadata.  :class:`TraceBuilder` gives workload generators
a compact vocabulary for emitting common uop idioms (dependency chains,
streaming loads, call-like register pressure) without hand-rolling tuples;
:func:`alu_block` and :func:`alu_record` hand out cached blocks of shared
records for the long regular runs (filler code, loop bodies) generators
append with :meth:`TraceBuilder.extend`.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.isa.instructions import (
    MAX_LATENCY,
    Instruction,
    OpClass,
    TCADescriptor,
    chunk_memory_range,
)

# TraceBuilder's helpers build Instruction records directly with
# tuple.__new__ after running only the checks their own arguments can
# fail; an input Instruction(...) would reject takes the full
# constructor, which raises the same ValueError.
_record = tuple.__new__
_LOAD = OpClass.LOAD
_STORE = OpClass.STORE
_BRANCH = OpClass.BRANCH
_TCA = OpClass.TCA
_NOP_RECORD = Instruction(op=OpClass.NOP)


#: ``repr`` of a record's nine-field encoding tuple, spelled out; the
#: op's ``repr(op.value)`` comes from :data:`_OP_REPRS`.
_RECORD_FORMAT = "(%s, %r, %r, %r, %r, %r, %r, %r, %r)"
_OP_REPRS = {op: repr(op.value) for op in OpClass}


def _encode_record(inst: Instruction) -> str:
    """One record's canonical encoding: ``repr`` of its field tuple."""
    op, srcs, dsts, addr, size, mispredicted, low_confidence, tca, latency = inst
    if tca is not None:
        tca = (
            tca.name,
            tca.compute_latency,
            tuple((r.addr, r.size, r.is_write) for r in tca.reads),
            tuple((w.addr, w.size, w.is_write) for w in tca.writes),
            tca.replaced_instructions,
            tca.replaced_cycles,
        )
    return _RECORD_FORMAT % (
        _OP_REPRS[op], srcs, dsts, addr, size, mispredicted, low_confidence,
        latency, tca,
    )


def fingerprint_records(instructions: Iterable[Instruction]) -> str:
    """Content fingerprint of an instruction sequence (sha256 hex).

    The digest behind :meth:`Trace.fingerprint` and
    :meth:`repro.sim.compile.CompiledTrace.fingerprint`: sha256 over a
    canonical per-instruction encoding (never Python ``hash()``), so it
    is stable across interpreter restarts and ``PYTHONHASHSEED`` values.
    Generators append shared record objects many times, so each
    distinct object is encoded once and the encodings are joined into
    one buffer to hash.
    """
    # The list keeps every record alive, so no id is reused mid-call.
    records = list(instructions)
    ids = list(map(id, records))
    distinct = dict(zip(ids, records))
    encoded = {key: _encode_record(inst) for key, inst in distinct.items()}
    body = "".join(map(encoded.__getitem__, ids))
    return hashlib.sha256(b"trace.v1" + body.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1024)
def alu_record(
    dst: int,
    srcs: tuple[int, ...] = (),
    op: OpClass = OpClass.INT_ALU,
    latency: int | None = None,
) -> Instruction:
    """One shared compute record, equal to what ``TraceBuilder.alu`` emits.

    Cached: equal arguments return the same immutable object, so a
    generator can append it many times without building it again.  The
    first call validates through the full constructor, so an invalid
    op or latency raises the same ``ValueError`` as the helper.
    """
    return Instruction(op=op, srcs=srcs, dsts=(dst,), latency=latency)


@lru_cache(maxsize=256)
def _alu_block(
    registers: tuple[int, ...], count: int, start: int, op: OpClass
) -> tuple[Instruction, ...]:
    records = [alu_record(reg, (), op) for reg in registers]
    width = len(records)
    return tuple([records[(start + i) % width] for i in range(count)])


def alu_block(
    registers: Sequence[int],
    count: int,
    start: int = 0,
    op: OpClass = OpClass.INT_ALU,
) -> tuple[Instruction, ...]:
    """``count`` independent compute records cycling over ``registers``.

    Record ``i`` writes ``registers[(start + i) % len(registers)]`` from
    no sources, exactly as ``count`` calls of ``TraceBuilder.alu`` would
    emit it (none when ``count <= 0``).  The block is cached per
    (registers, count, start, op) and its records are shared (see
    :func:`alu_record`); append it with :meth:`TraceBuilder.extend`.
    """
    registers = tuple(registers)
    if not registers:
        raise ValueError("alu_block requires at least one register")
    if count <= 0:
        return ()
    return _alu_block(registers, count, start % len(registers), op)


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a trace.

    Attributes:
        total: total instruction count.
        by_class: counts per :class:`OpClass`.
        tca_invocations: number of TCA instructions.
        replaced_instructions: total baseline instructions the TCA
            invocations replace (sum over descriptors).
        mispredicted_branches: number of mispredict-marked branches.
    """

    total: int
    by_class: dict[OpClass, int]
    tca_invocations: int
    replaced_instructions: int
    mispredicted_branches: int

    @property
    def non_tca_instructions(self) -> int:
        """Instructions other than TCA invocations."""
        return self.total - self.tca_invocations

    @property
    def invocation_frequency(self) -> float:
        """Paper parameter ``v``: TCA invocations per *baseline* instruction.

        The baseline instruction count reconstructs each TCA back into the
        software instructions it replaced.
        """
        baseline = self.baseline_instructions
        if baseline == 0:
            return 0.0
        return self.tca_invocations / baseline

    @property
    def baseline_instructions(self) -> int:
        """Instruction count of the equivalent software-only baseline."""
        return self.non_tca_instructions + self.replaced_instructions

    @property
    def acceleratable_fraction(self) -> float:
        """Paper parameter ``a``: fraction of baseline instructions accelerated."""
        baseline = self.baseline_instructions
        if baseline == 0:
            return 0.0
        return self.replaced_instructions / baseline


class Trace:
    """A named dynamic instruction stream.

    Args:
        instructions: the dynamic instruction sequence.
        name: human-readable trace name for reports.
        metadata: free-form workload parameters recorded by generators.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        name: str = "trace",
        metadata: dict | None = None,
    ) -> None:
        self._instructions: tuple[Instruction, ...] = tuple(instructions)
        self.name = name
        self.metadata: dict = dict(metadata or {})
        # Lazy derived-data caches.  Every constructor path starts them
        # empty, so derived traces (``concat``, slicing into a new Trace)
        # can never inherit a stale fingerprint, stats block, or compiled
        # form from their sources.
        self._fingerprint: str | None = None
        self._stats: TraceStats | None = None
        # Set by repro.sim.compile.compile_trace.  The compiled form holds
        # this trace's records tuple, never the Trace itself, so a dropped
        # trace is freed by reference counting alone.
        self._compiled = None

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, n={len(self)})"

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The underlying instruction tuple."""
        return self._instructions

    def fingerprint(self) -> str:
        """Content fingerprint of the instruction stream (sha256 hex).

        Two traces with identical dynamic instruction sequences — ops,
        registers, addresses, branch annotations, latencies, and full TCA
        descriptors — share a fingerprint regardless of ``name`` or
        ``metadata``, so content-addressed simulation caches
        (:mod:`repro.serve`) key on what actually executes.  The digest is
        sha256 over a canonical per-instruction encoding (never Python
        ``hash()``), so fingerprints are stable across interpreter
        restarts and ``PYTHONHASHSEED`` values.  Computed lazily and
        cached; traces are immutable-by-convention, so the cache is safe.
        """
        cached = self._fingerprint
        if cached is None:
            cached = self._fingerprint = fingerprint_records(self._instructions)
        return cached

    def stats(self) -> TraceStats:
        """Summary statistics (computed lazily and cached, like
        :meth:`fingerprint`; traces are immutable-by-convention, so
        repeated calls return the same :class:`TraceStats` object).
        """
        cached = self._stats
        if cached is not None:
            return cached
        by_class: Counter[OpClass] = Counter()
        tca = 0
        replaced = 0
        mispredicted = 0
        for inst in self._instructions:
            by_class[inst.op] += 1
            if inst.is_tca:
                tca += 1
                assert inst.tca is not None
                replaced += inst.tca.replaced_instructions
            if inst.mispredicted:
                mispredicted += 1
        result = TraceStats(
            total=len(self._instructions),
            by_class=dict(by_class),
            tca_invocations=tca,
            replaced_instructions=replaced,
            mispredicted_branches=mispredicted,
        )
        self._stats = result
        return result

    def validate(self, num_registers: int | None = None) -> None:
        """Raise :class:`ValueError` on malformed traces.

        Checks register ids against ``num_registers`` when given, and the
        per-instruction invariants enforced by :class:`Instruction` on
        construction (re-verified here for traces assembled manually).
        """
        for i, inst in enumerate(self._instructions):
            if num_registers is not None:
                for reg in (*inst.srcs, *inst.dsts):
                    if not 0 <= reg < num_registers:
                        raise ValueError(
                            f"instruction {i}: register {reg} outside "
                            f"0..{num_registers - 1}"
                        )
            if inst.op.is_memory and inst.addr is None:
                raise ValueError(f"instruction {i}: memory op without address")
            if inst.is_tca and inst.tca is None:
                raise ValueError(f"instruction {i}: TCA op without descriptor")

    def concat(self, other: "Trace", name: str | None = None) -> "Trace":
        """Concatenate two traces into a new one.

        The result is a fresh :class:`Trace` with empty derived-data
        caches — its fingerprint, stats, and compiled form are computed
        on demand for the combined stream, never inherited from either
        input (whose own caches may already be populated).
        """
        return Trace(
            self._instructions + other.instructions,
            name=name or f"{self.name}+{other.name}",
            metadata={**self.metadata, **other.metadata},
        )


class TraceBuilder:
    """Incremental trace construction with uop-idiom helpers.

    The builder tracks nothing beyond the instruction list — register and
    address management is the caller's job — but the helpers encode the
    idioms the paper's microbenchmarks need: independent ALU work,
    serial dependency chains, block loads, and TCA invocations with
    automatically chunked memory requests.

    Args:
        name: trace name.
        metadata: free-form generator parameters to attach.
    """

    def __init__(self, name: str = "trace", metadata: dict | None = None) -> None:
        self.name = name
        self.metadata: dict = dict(metadata or {})
        self._instructions: list[Instruction] = []

    def __len__(self) -> int:
        return len(self._instructions)

    def emit(self, instruction: Instruction) -> Instruction:
        """Append one instruction and return it."""
        self._instructions.append(instruction)
        return instruction

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append a sequence of instructions.

        Records are immutable, so one record object may appear many
        times in a trace: generators append cached blocks of shared
        records (:func:`alu_block`, :func:`alu_record`) this way.
        """
        self._instructions.extend(instructions)

    def alu(
        self,
        dst: int,
        srcs: Sequence[int] = (),
        op: OpClass = OpClass.INT_ALU,
        latency: int | None = None,
    ) -> Instruction:
        """Emit a compute op writing ``dst`` from ``srcs``."""
        if (
            op is _LOAD
            or op is _STORE
            or op is _TCA
            or (latency is not None and not 0 <= latency <= MAX_LATENCY)
        ):
            # Invalid for a compute op: the full constructor raises.
            Instruction(op=op, srcs=tuple(srcs), dsts=(dst,), latency=latency)
        inst = _record(
            Instruction, (op, tuple(srcs), (dst,), None, 8, False, False, None, latency)
        )
        self._instructions.append(inst)
        return inst

    def load(self, dst: int, addr: int, size: int = 8, srcs: Sequence[int] = ()) -> Instruction:
        """Emit a load of ``size`` bytes at ``addr`` into ``dst``."""
        if size <= 0 or addr is None:
            Instruction(op=_LOAD, srcs=tuple(srcs), dsts=(dst,), addr=addr, size=size)
        inst = _record(
            Instruction, (_LOAD, tuple(srcs), (dst,), addr, size, False, False, None, None)
        )
        self._instructions.append(inst)
        return inst

    def store(self, src: int, addr: int, size: int = 8) -> Instruction:
        """Emit a store of ``size`` bytes from ``src`` to ``addr``."""
        if size <= 0 or addr is None:
            Instruction(op=_STORE, srcs=(src,), addr=addr, size=size)
        inst = _record(
            Instruction, (_STORE, (src,), (), addr, size, False, False, None, None)
        )
        self._instructions.append(inst)
        return inst

    def branch(
        self,
        srcs: Sequence[int] = (),
        mispredicted: bool = False,
        low_confidence: bool = False,
    ) -> Instruction:
        """Emit a (conditional) branch."""
        inst = _record(
            Instruction,
            (_BRANCH, tuple(srcs), (), None, 8, mispredicted, low_confidence, None, None),
        )
        self._instructions.append(inst)
        return inst

    def nop(self) -> Instruction:
        """Emit a NOP."""
        return self.emit(_NOP_RECORD)

    def tca(
        self,
        descriptor: TCADescriptor,
        srcs: Sequence[int] = (),
        dsts: Sequence[int] = (),
    ) -> Instruction:
        """Emit a TCA invocation carrying ``descriptor``."""
        if descriptor is None:
            Instruction(op=_TCA, srcs=tuple(srcs), dsts=tuple(dsts), tca=descriptor)
        return self.emit(
            _record(
                Instruction,
                (_TCA, tuple(srcs), tuple(dsts), None, 8, False, False, descriptor, None),
            )
        )

    def tca_over_range(
        self,
        name: str,
        compute_latency: int,
        read_ranges: Sequence[tuple[int, int]] = (),
        write_ranges: Sequence[tuple[int, int]] = (),
        replaced_instructions: int = 0,
        replaced_cycles: int = 0,
        srcs: Sequence[int] = (),
        dsts: Sequence[int] = (),
    ) -> Instruction:
        """Emit a TCA whose memory ranges are auto-chunked to ≤64 B requests.

        Args:
            name: accelerator name.
            compute_latency: accelerator compute cycles.
            read_ranges: ``(addr, size)`` byte ranges the TCA reads.
            write_ranges: ``(addr, size)`` byte ranges the TCA writes.
            replaced_instructions: baseline instructions replaced.
            replaced_cycles: baseline cycles replaced (for reports).
            srcs: architectural registers the TCA consumes.
            dsts: architectural registers the TCA produces.
        """
        reads: list = []
        for addr, size in read_ranges:
            reads.extend(chunk_memory_range(addr, size, is_write=False))
        writes: list = []
        for addr, size in write_ranges:
            writes.extend(chunk_memory_range(addr, size, is_write=True))
        descriptor = TCADescriptor(
            name=name,
            compute_latency=compute_latency,
            reads=tuple(reads),
            writes=tuple(writes),
            replaced_instructions=replaced_instructions,
            replaced_cycles=replaced_cycles,
        )
        return self.tca(descriptor, srcs=srcs, dsts=dsts)

    def chain(
        self,
        length: int,
        start_reg: int,
        op: OpClass = OpClass.INT_ALU,
        latency: int | None = None,
    ) -> None:
        """Emit a serial dependency chain of ``length`` ops through one register.

        Each op reads and writes ``start_reg``, producing a critical path of
        ``length × latency`` cycles — the knob workload generators use to
        control baseline IPC.  The ops are one shared record.
        """
        if length > 0:
            record = alu_record(start_reg, (start_reg,), op, latency)
            self._instructions.extend((record,) * length)

    def independent_block(
        self,
        count: int,
        registers: Sequence[int],
        op: OpClass = OpClass.INT_ALU,
    ) -> None:
        """Emit ``count`` mutually independent ALU ops cycling over ``registers``."""
        if not registers:
            raise ValueError("independent_block requires at least one register")
        self._instructions.extend(alu_block(registers, count, op=op))

    def streaming_loads(
        self,
        count: int,
        base_addr: int,
        stride: int,
        dst_registers: Sequence[int],
        size: int = 8,
    ) -> None:
        """Emit ``count`` independent strided loads starting at ``base_addr``."""
        if not dst_registers:
            raise ValueError("streaming_loads requires at least one register")
        for i in range(count):
            self.load(dst_registers[i % len(dst_registers)], base_addr + i * stride, size)

    def build(self) -> Trace:
        """Freeze the builder into a :class:`Trace`."""
        return Trace(self._instructions, name=self.name, metadata=self.metadata)
