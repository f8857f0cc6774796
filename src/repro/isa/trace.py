"""Trace containers, builders, and integrity checks.

A :class:`Trace` is the unit of work the simulator executes: a named,
immutable-by-convention sequence of :class:`~repro.isa.instructions.Instruction`
records plus light metadata.  It is stored as :class:`TraceRows`: a
table of distinct records and an int32 column of row indices, one per
dynamic instruction, so every per-instruction fact can be computed once
per distinct record and gathered by the index.  :class:`TraceBuilder`
gives workload generators a compact vocabulary for emitting common uop
idioms (dependency chains, streaming loads, call-like register
pressure) without hand-rolling tuples; :func:`alu_block` and
:func:`alu_record` hand out cached blocks of shared records for the
long regular runs (filler code, loop bodies) generators append with
:meth:`TraceBuilder.extend` and :meth:`TraceBuilder.repeat`, which the
builder turns into table rows once and into index runs after that.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

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


def fingerprint_rows(rows: "TraceRows") -> str:
    """Content fingerprint of a trace's rows (sha256 hex).

    The digest behind :meth:`Trace.fingerprint` and
    :meth:`repro.sim.compile.CompiledTrace.fingerprint`: sha256 over a
    canonical per-instruction encoding (never Python ``hash()``), so it
    is stable across interpreter restarts and ``PYTHONHASHSEED`` values.
    Each table row is encoded once and the encodings are joined by the
    index, so the digest depends only on the instruction sequence, not
    on how it is split into rows.
    """
    encoded = list(map(_encode_record, rows.table))
    body = "".join(map(encoded.__getitem__, rows.index.tolist()))
    return hashlib.sha256(b"trace.v1" + body.encode("utf-8")).hexdigest()


def fingerprint_records(instructions: Iterable[Instruction]) -> str:
    """:func:`fingerprint_rows` of an instruction sequence."""
    return fingerprint_rows(TraceRows.intern(instructions))


def _frozen(index: np.ndarray) -> np.ndarray:
    """``index`` marked read-only (rows share index arrays and slices)."""
    index.flags.writeable = False
    return index


class TraceRows:
    """A trace's instructions as a table of records plus a row index.

    ``table`` holds records (each distinct object once, in the order a
    builder or :meth:`intern` first met it; a table may also hold rows
    no instruction refers to, which :meth:`compact` drops); ``index``
    is a read-only int32 array whose entry ``k`` is the table row of
    dynamic instruction ``k``.  Records are immutable and shared across
    rows, traces and generators: nothing may mutate one.  The tuple of
    per-instruction records (:attr:`records`) is built only when asked
    for, and pickling carries the table and index only.

    Args:
        table: the distinct records.
        index: int32 row index per instruction.
    """

    __slots__ = ("table", "index", "_records")

    def __init__(self, table: tuple[Instruction, ...], index: np.ndarray) -> None:
        self.table = table
        self.index = _frozen(index)
        self._records: tuple[Instruction, ...] | None = None

    @classmethod
    def intern(cls, instructions: Iterable[Instruction]) -> "TraceRows":
        """Rows of an instruction sequence: one row per distinct object.

        Objects are told apart by identity, which is sound here because
        the table keeps every record alive; two equal records that are
        different objects take two rows, which changes nothing a row
        describes.
        """
        records = tuple(instructions)
        ids = np.array(list(map(id, records)), dtype=np.uintp)
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        if first.size == len(records):
            rows = cls(records, np.arange(len(records), dtype=np.int32))
            rows._records = records
            return rows
        order = np.argsort(first)  # rows in the order the trace first uses them
        number = np.empty(order.size, dtype=np.int32)
        number[order] = np.arange(order.size, dtype=np.int32)
        table = tuple(map(records.__getitem__, first[order].tolist()))
        return cls(table, number[inverse])

    def __len__(self) -> int:
        return self.index.size

    @property
    def records(self) -> tuple[Instruction, ...]:
        """The per-instruction record tuple (built on first use, cached)."""
        records = self._records
        if records is None:
            table, index = self.table, self.index
            if len(table) == index.size and (
                np.arange(index.size, dtype=np.int32) == index
            ).all():
                records = table
            else:
                records = tuple(map(table.__getitem__, index.tolist()))
            self._records = records
        return records

    def compact(self) -> "TraceRows":
        """These rows without table rows no instruction refers to."""
        table, index = self.table, self.index
        used = np.zeros(len(table), dtype=bool)
        used[index] = True
        if used.all():
            return self
        number = np.cumsum(used, dtype=np.int32)
        number -= 1
        kept = tuple(map(table.__getitem__, np.flatnonzero(used).tolist()))
        return TraceRows(kept, number[index])

    def window(self, lo: int, hi: int) -> "TraceRows":
        """Instructions ``lo`` to ``hi`` (exclusive), compacted."""
        return TraceRows(self.table, self.index[lo:hi]).compact()

    def __getstate__(self) -> tuple[tuple[Instruction, ...], np.ndarray]:
        return self.table, self.index

    def __setstate__(self, state: tuple[tuple[Instruction, ...], np.ndarray]) -> None:
        table, index = state
        self.table = table
        self.index = _frozen(index)
        self._records = None


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


def tca_record(
    descriptor: TCADescriptor, srcs: tuple[int, ...] = (), dsts: tuple[int, ...] = ()
) -> Instruction:
    """A fresh TCA record, equal to what ``TraceBuilder.tca`` emits.

    A missing descriptor raises the full constructor's ``ValueError``.
    """
    if descriptor is None:
        Instruction(op=_TCA, srcs=srcs, dsts=dsts, tca=descriptor)
    return _record(Instruction, (_TCA, srcs, dsts, None, 8, False, False, descriptor, None))


def load_record(
    dst: int, addr: int, size: int = 8, srcs: Sequence[int] = ()
) -> Instruction:
    """A fresh load record, equal to what ``TraceBuilder.load`` emits.

    Runs only the checks these arguments can fail; an input the full
    constructor rejects raises its ``ValueError``.
    """
    if size <= 0 or addr is None:
        Instruction(op=_LOAD, srcs=tuple(srcs), dsts=(dst,), addr=addr, size=size)
    return _record(
        Instruction, (_LOAD, tuple(srcs), (dst,), addr, size, False, False, None, None)
    )


def store_record(src: int, addr: int, size: int = 8) -> Instruction:
    """A fresh store record, equal to what ``TraceBuilder.store`` emits.

    Runs only the checks these arguments can fail; an input the full
    constructor rejects raises its ``ValueError``.
    """
    if size <= 0 or addr is None:
        Instruction(op=_STORE, srcs=(src,), addr=addr, size=size)
    return _record(Instruction, (_STORE, (src,), (), addr, size, False, False, None, None))


def row_template(
    layout: Iterable[Instruction | None],
) -> tuple[tuple[Instruction, ...], np.ndarray]:
    """A layout of shared records with holes, as records plus an index.

    ``layout`` lists records by position, ``None`` where each occurrence
    supplies its own record (say, a load with its own address).  Returns
    the distinct records and an int32 index over them in which the
    ``j``-th hole reads ``len(records) + j``; append an occurrence with
    ``builder.extend_rows(records, index, fills)``.
    """
    layout = list(layout)
    number: dict[int, int] = {}  # id -> position in records, which holds it
    records: list[Instruction] = []
    for record in layout:
        if record is not None and id(record) not in number:
            number[id(record)] = len(records)
            records.append(record)
    holes = iter(range(len(records), len(layout)))
    index = [next(holes) if record is None else number[id(record)] for record in layout]
    return tuple(records), np.array(index, dtype=np.int32)


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

    Stored as :class:`TraceRows` (:attr:`rows`).  Indexing reads records
    through the row index; :attr:`instructions` and iteration use the
    per-instruction view, built on first use.

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
        self._init(TraceRows.intern(instructions), name, metadata)

    @classmethod
    def from_rows(
        cls, rows: TraceRows, name: str = "trace", metadata: dict | None = None
    ) -> "Trace":
        """A trace over existing rows (shared, not copied)."""
        trace = cls.__new__(cls)
        trace._init(rows, name, metadata)
        return trace

    def _init(self, rows: TraceRows, name: str, metadata: dict | None) -> None:
        self._rows = rows
        self.name = name
        self.metadata: dict = dict(metadata or {})
        # Lazy derived-data caches.  Every constructor path starts them
        # empty, so derived traces (``concat``, slicing into a new Trace)
        # can never inherit a stale fingerprint, stats block, or compiled
        # form from their sources.
        self._fingerprint: str | None = None
        self._stats: TraceStats | None = None
        # Set by repro.sim.compile.compile_trace.  The compiled form holds
        # this trace's rows, never the Trace itself, so a dropped trace is
        # freed by reference counting alone.
        self._compiled = None

    def __len__(self) -> int:
        return self._rows.index.size

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._rows.records)

    def __getitem__(self, index: int) -> Instruction:
        rows = self._rows
        if isinstance(index, slice):
            return tuple(map(rows.table.__getitem__, rows.index[index].tolist()))
        return rows.table[rows.index[index]]

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, n={len(self)})"

    @property
    def rows(self) -> TraceRows:
        """The table-and-index form the simulator compiles."""
        return self._rows

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The per-instruction record tuple (built on first use)."""
        return self._rows.records

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
            cached = self._fingerprint = fingerprint_rows(self._rows)
        return cached

    def stats(self) -> TraceStats:
        """Summary statistics (computed lazily and cached, like
        :meth:`fingerprint`; traces are immutable-by-convention, so
        repeated calls return the same :class:`TraceStats` object).
        """
        cached = self._stats
        if cached is not None:
            return cached
        table, index = self._rows.table, self._rows.index
        by_class: Counter[OpClass] = Counter()
        tca = 0
        replaced = 0
        mispredicted = 0
        counts = np.bincount(index, minlength=len(table)).tolist()
        for inst, count in zip(table, counts):
            if not count:
                continue
            by_class[inst.op] += count
            if inst.is_tca:
                tca += count
                assert inst.tca is not None
                replaced += count * inst.tca.replaced_instructions
            if inst.mispredicted:
                mispredicted += count
        result = TraceStats(
            total=index.size,
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
        for i, inst in enumerate(self):
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
        first, second = self._rows, other.rows
        index = np.concatenate((first.index, second.index + len(first.table)))
        return Trace.from_rows(
            TraceRows(first.table + second.table, index.astype(np.int32)),
            name=name or f"{self.name}+{other.name}",
            metadata={**self.metadata, **other.metadata},
        )


class TraceBuilder:
    """Incremental trace construction with uop-idiom helpers.

    The builder tracks nothing beyond the instructions — register and
    address management is the caller's job — but the helpers encode the
    idioms the paper's microbenchmarks need: independent ALU work,
    serial dependency chains, block loads, and TCA invocations with
    automatically chunked memory requests.

    It writes the :class:`TraceRows` form as it goes: a per-call record
    (``alu``, ``load``, ``store``, ``branch``, ``tca``) adds one table
    row and one index entry; a shared record (:meth:`emit`) or a cached
    block (:meth:`extend`, :meth:`repeat`) becomes table rows the first
    time this builder meets it and an index run every time after.

    Args:
        name: trace name.
        metadata: free-form generator parameters to attach.
    """

    def __init__(self, name: str = "trace", metadata: dict | None = None) -> None:
        self.name = name
        self.metadata: dict = dict(metadata or {})
        self._table: list[Instruction] = []
        self._index = array("i")
        # id -> row of each shared record, and (id, id) -> the records,
        # index, row run and holes of each block or template tuple; the
        # table and the entries keep them alive, so no id is reused
        # while the builder lives.
        self._row_of: dict[int, int] = {}
        self._templates: dict[tuple[int, int], tuple] = {}

    def __len__(self) -> int:
        return len(self._index)

    def _row(self, instruction: Instruction) -> int:
        """The table row of a shared record, added on first sight."""
        row = self._row_of.get(id(instruction))
        if row is None:
            row = self._row_of[id(instruction)] = len(self._table)
            self._table.append(instruction)
        return row

    def _append(self, instruction: Instruction) -> Instruction:
        """Add a per-call record as a new row."""
        table = self._table
        self._index.append(len(table))
        table.append(instruction)
        return instruction

    def emit(self, instruction: Instruction) -> Instruction:
        """Append one instruction and return it."""
        self._index.append(self._row(instruction))
        return instruction

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append a sequence of instructions.

        Records are immutable, so one record object may appear many
        times in a trace: generators append cached blocks of shared
        records (:func:`alu_block`, :func:`alu_record`) this way.
        """
        if not isinstance(instructions, (tuple, list)):
            instructions = list(instructions)
        self._index.extend(self._template(instructions)[2])

    def extend_rows(
        self,
        records: Sequence[Instruction],
        index: np.ndarray,
        fills: Sequence[Instruction] = (),
    ) -> None:
        """Append ``(*records, *fills)[i]`` for each ``i`` in ``index`` (an int array).

        Each distinct record object takes one table row (the row the
        builder already gave it, if any), so a generator can lay out a
        whole template — shared records plus per-occurrence ``fills``
        such as loads — as one index array and append it in one step
        (see :func:`row_template`).  A ``records`` tuple's row run is
        built once per builder with its index, so each later occurrence
        of a template copies the run and writes only its fills' rows.
        """
        run, holes = self._template(records, index)[2:]
        out = self._index
        start = len(out)
        out.extend(run)
        if holes:
            fill_rows = list(map(self._row, fills))
            for at, fill in holes:
                out[start + at] = fill_rows[fill]

    def _template(
        self, records: Sequence[Instruction], index: np.ndarray | None = None
    ) -> tuple:
        """``(records, index, run, holes)``: ``run`` holds the row of each
        position of ``index`` (of each record, when ``index`` is
        ``None``), with 0 where a fill goes, and ``holes`` pairs each such
        position with its fill's number.  Built once per builder for a
        ``records`` tuple (with an index array, or none)."""
        key = (id(records), id(index))
        entry = self._templates.get(key)
        if entry is not None:
            return entry
        # Python visits each distinct record once; the rows come from
        # C-level passes over the records.
        m = len(records)
        ids = list(map(id, records))
        row_of = self._row_of
        for ident, record in dict(zip(ids, records)).items():
            if ident not in row_of:
                row_of[ident] = len(self._table)
                self._table.append(record)
        rows = np.fromiter(map(row_of.__getitem__, ids), np.int32, m)
        holes: tuple[tuple[int, int], ...] = ()
        if index is not None:
            at = np.asarray(index)
            where = np.flatnonzero(at >= m)
            if where.size:
                holes = tuple(zip(where.tolist(), (at[where] - m).tolist()))
                rows = np.append(rows, np.zeros(int(at.max()) + 1 - m, dtype=np.int32))
            rows = rows[at]
        run = array("i")
        run.frombytes(rows.tobytes())
        entry = (records, index, run, holes)
        if type(records) is tuple and (index is None or type(index) is np.ndarray):
            self._templates[key] = entry
        return entry

    def repeat(self, block: Sequence[Instruction], times: int) -> None:
        """Append ``block`` ``times`` times over (nothing when ``times <= 0``)."""
        if times > 0:
            if not isinstance(block, (tuple, list)):
                block = list(block)
            self._index.extend(self._template(block)[2] * times)

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
        return self._append(
            _record(Instruction, (op, tuple(srcs), (dst,), None, 8, False, False, None, latency))
        )

    def load(self, dst: int, addr: int, size: int = 8, srcs: Sequence[int] = ()) -> Instruction:
        """Emit a load of ``size`` bytes at ``addr`` into ``dst``."""
        return self._append(load_record(dst, addr, size, srcs))

    def store(self, src: int, addr: int, size: int = 8) -> Instruction:
        """Emit a store of ``size`` bytes from ``src`` to ``addr``."""
        return self._append(store_record(src, addr, size))

    def branch(
        self,
        srcs: Sequence[int] = (),
        mispredicted: bool = False,
        low_confidence: bool = False,
    ) -> Instruction:
        """Emit a (conditional) branch."""
        return self._append(
            _record(
                Instruction,
                (_BRANCH, tuple(srcs), (), None, 8, mispredicted, low_confidence, None, None),
            )
        )

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
        return self._append(tca_record(descriptor, tuple(srcs), tuple(dsts)))

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
            row = self._row(alu_record(start_reg, (start_reg,), op, latency))
            self._index.extend(array("i", (row,)) * length)

    def independent_block(
        self,
        count: int,
        registers: Sequence[int],
        op: OpClass = OpClass.INT_ALU,
    ) -> None:
        """Emit ``count`` mutually independent ALU ops cycling over ``registers``."""
        if not registers:
            raise ValueError("independent_block requires at least one register")
        self.extend(alu_block(registers, count, op=op))

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
        rows = TraceRows(tuple(self._table), np.array(self._index, dtype=np.int32))
        return Trace.from_rows(rows, name=self.name, metadata=self.metadata)
