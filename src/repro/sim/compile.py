"""Compile-once trace analysis for the cycle-level simulator.

:class:`CompiledTrace` is the analysis of a
:class:`~repro.isa.trace.Trace` that precomputes everything *trace-static*
the pipeline would otherwise re-derive on every run, with no Python code
run per instruction: every fact is computed once per row of the trace's
compacted :class:`~repro.isa.trace.TraceRows` table (C-level ``map``
passes plus NumPy) and kept per row; the kernel reads a row fact of
instruction ``k`` through the int32 row index, ``column[row[k]]``.  Only
facts that depend on an instruction's place in the trace are laid out
per instruction:

- the register dependency graph, resolved to each source's youngest
  earlier writer by one search over the sorted write keys, and stored as flat
  producer→consumer edge arrays (CSR by consumer)
  — at run time an edge is *live* only if its producer is still
  incomplete, which is exactly the semantics of the rename table's
  lazily-cleared producer lookup;
- one memory-dependence edge slot per load and per TCA read.

Per row:

- op-kind / functional-unit-class / latency-override tables, branch
  annotations, and cache-line spans for every memory access (loads,
  store commits, and each pre-chunked TCA read/write request);
- writer byte ranges and bounding boxes for the LSQ's conservative
  memory disambiguation.

Every table is held once, as the flat NumPy array the C kernel reads;
the pure-Python engine's per-instruction tuple forms
(:class:`OracleTables`) are gathered from those arrays on first use.

A :class:`CompiledTrace` is immutable, config-independent (it can back
runs under any :class:`~repro.sim.config.SimConfig` and TCA mode), safe to
share across threads, and picklable — ``parallel_map`` fan-outs ship it to
workers once instead of recompiling per (config, mode) point.  The
per-*run* mutable state lives in a pooled :class:`RunState` block of
preallocated flat arrays; blocks are recycled across runs without a reset
pass because every field is either written before it is read within a run
or left self-cleaned by a completed run (see :meth:`RunState` notes).

``compile_trace`` memoizes the compiled form on the source trace object
itself (the same idiom ``Trace.fingerprint`` uses), so repeated
``simulate(trace, ...)`` calls in one process pay the analysis once.  The
trace owns its compiled form, never the other way round: a
``CompiledTrace`` keeps only the trace's rows, so no reference cycle
holds a dropped trace (or its arrays) until the cyclic GC runs.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, repeat
from operator import attrgetter, iconcat, is_not, itemgetter
from typing import Iterator, Sequence

import numpy as np

from repro.isa.instructions import CACHE_LINE_BYTES, OpClass
from repro.isa.trace import Trace, TraceRows, fingerprint_rows
from repro.obs.span import span

# Instruction kinds used by the pipeline's hot branches.
K_LOAD = 0
K_STORE = 1
K_TCA = 2
K_BRANCH = 3
K_OTHER = 4

#: Op classes that issue through functional-unit ports, in a stable order.
FU_CLASSES: tuple[OpClass, ...] = tuple(
    op for op in OpClass if op not in (OpClass.LOAD, OpClass.STORE, OpClass.TCA)
)
_FU_INDEX = {op: i for i, op in enumerate(FU_CLASSES)}

_KIND_OF = {
    OpClass.LOAD: K_LOAD,
    OpClass.STORE: K_STORE,
    OpClass.TCA: K_TCA,
    OpClass.BRANCH: K_BRANCH,
}

_I64 = np.int64
_U8 = np.uint8

#: Traces must be shorter than this: the C kernel packs a sequence number
#: into 30 bits of each event key.
MAX_TRACE_LENGTH = 1 << 30

#: Op class → op code, an index into ``tuple(OpClass)``.
_CODE_OF = {op: code for code, op in enumerate(OpClass)}.__getitem__
_KIND_BY_CODE = np.array([_KIND_OF.get(op, K_OTHER) for op in OpClass], dtype=_U8)
_FU_BY_CODE = np.array([_FU_INDEX.get(op, -1) for op in OpClass], dtype=_I64)
_OP_VALUE_BY_CODE = np.array([op.value for op in OpClass], dtype=object)

# Record fields (records are tuples) and descriptor fields, as C-level
# getters for map passes over whole columns.
_OP, _SRCS, _DSTS, _ADDR, _SIZE, _MISPREDICTED, _LOW_CONFIDENCE, _DESCRIPTOR, _LATENCY = (
    itemgetter(i) for i in range(9)
)
_READS = attrgetter("reads")
_WRITES = attrgetter("writes")
_COMPUTE_LATENCY = attrgetter("compute_latency")
_REQ_ADDR = attrgetter("addr")
_REQ_SIZE = attrgetter("size")

#: Maximum recycled RunState blocks kept per CompiledTrace.
_POOL_MAX = 8

#: Memo of warm-range tuples → cache-line address tuples (bounded).
_WARM_LINE_MEMO: dict[tuple[tuple[int, int], ...], tuple[int, ...]] = {}
_WARM_ARRAY_MEMO: dict[tuple[tuple[int, int], ...], np.ndarray] = {}
_WARM_MEMO_MAX = 256


def lines_for_range(addr: int, size: int) -> tuple[int, ...]:
    """Cache-line addresses touched by ``[addr, addr + size)``, in probe order.

    A zero-size (empty) range touches no lines regardless of alignment;
    instructions reject non-positive access sizes, so this case only
    arises from user-supplied warm ranges.
    """
    if size <= 0:
        return ()
    first = addr - (addr % CACHE_LINE_BYTES)
    return tuple(range(first, addr + size, CACHE_LINE_BYTES))


def warm_lines(warm_ranges) -> tuple[int, ...]:
    """Concatenated line addresses for a warm-range list, memoized.

    The warm set is re-applied to a fresh cache hierarchy on every run, so
    the range→line expansion is worth paying once per distinct range list
    (workload generators reuse the same ``metadata["warm_ranges"]`` object
    across many runs).
    """
    key = tuple((int(a), int(s)) for a, s in warm_ranges)
    cached = _WARM_LINE_MEMO.get(key)
    if cached is not None:
        return cached
    out: list[int] = []
    for addr, size in key:
        out.extend(lines_for_range(addr, size))
    return _memoize(_WARM_LINE_MEMO, key, tuple(out))


def warm_line_array(warm_ranges) -> np.ndarray:
    """:func:`warm_lines` as a read-only int64 array (the kernel's input), memoized."""
    key = tuple((int(a), int(s)) for a, s in warm_ranges)
    cached = _WARM_ARRAY_MEMO.get(key)
    if cached is not None:
        return cached
    lines = np.array(warm_lines(key), dtype=_I64)
    lines.flags.writeable = False
    return _memoize(_WARM_ARRAY_MEMO, key, lines)


def _memoize(memo: dict, key, value):
    """Store ``value`` under ``key``, evicting FIFO beyond the bound.

    A long-lived serving process that has seen many distinct range lists
    keeps admitting new ones instead of degrading to uncached expansion
    forever (dicts preserve insertion order, so the first key out of the
    iterator is the oldest).
    """
    while len(memo) >= _WARM_MEMO_MAX:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


class RunState:
    """Pooled per-run mutable state for one :class:`CompiledTrace`.

    All arrays are indexed by instruction sequence number (= trace index)
    except ``edge_next``, indexed by dependency-edge id.  None of them is
    zeroed between runs:

    - ``completed`` is cleared lazily at dispatch, and is only ever read
      for already-dispatched instructions;
    - ``dep_head`` is consumed back to ``-1`` as each producer completes,
      so a run that finishes leaves it fully reset;
    - every other field is assigned before its first read within a run.

    A run aborted by an exception leaves the block dirty; the simulator
    discards it instead of returning it to the pool.
    """

    __slots__ = (
        "completed",
        "complete_cycle",
        "deps",
        "first_ready",
        "forwarded",
        "tca_read_index",
        "tca_reads_left",
        "tca_start_cycle",
        "dep_head",
        "edge_next",
    )

    def __init__(self, length: int, n_edges: int) -> None:
        self.completed = bytearray(length)
        self.complete_cycle = [0] * length
        self.deps = [0] * length
        self.first_ready = [0] * length
        self.forwarded = bytearray(length)
        self.tca_read_index = [0] * length
        self.tca_reads_left = [0] * length
        self.tca_start_cycle = [0] * length
        self.dep_head = [-1] * length
        self.edge_next = [0] * n_edges


def _line_spans(addr: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`lines_for_range` over parallel range arrays.

    Returns the line count of each range and the concatenation of every
    range's line addresses, in order.
    """
    first = addr - addr % CACHE_LINE_BYTES
    counts = np.where(size > 0, (addr + size - 1 - first) // CACHE_LINE_BYTES + 1, 0)
    offsets = np.cumsum(counts) - counts
    lines = np.repeat(first - offsets * CACHE_LINE_BYTES, counts)
    lines += np.arange(lines.size, dtype=_I64) * CACHE_LINE_BYTES
    return counts, lines


def _starts(n: int, owners: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """CSR start offsets (length ``n + 1``) from owners' entry counts.

    ``owners`` are distinct, ascending positions owning ``counts``
    entries each; every other position owns none.  The offsets are one
    run per owner, so the cost is one pass over the output.
    """
    if not owners.size:
        return np.zeros(n + 1, dtype=_I64)
    totals = np.zeros(owners.size + 1, dtype=_I64)
    np.cumsum(counts, out=totals[1:])
    runs = np.empty(owners.size + 1, dtype=_I64)
    runs[0] = owners[0] + 1
    np.subtract(owners[1:], owners[:-1], out=runs[1:-1])
    runs[-1] = n - owners[-1]
    return np.repeat(totals, runs)


def _entries(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions ``first[j] + e`` for each ``e < counts[j]``, in order."""
    if not counts.size:
        return np.zeros(0, dtype=_I64)
    positions = np.repeat(first - (np.cumsum(counts) - counts), counts)
    positions += np.arange(positions.size, dtype=_I64)
    return positions


#: Bound on every trace value held in an int64 column, so address
#: arithmetic (``addr + size``, line rounding) cannot wrap.
_VALUE_LIMIT = 1 << 62


def _ints(values: list[object]) -> bool:
    """Whether every value is an ``int`` (a ``bool`` is not)."""
    return all(issubclass(cls, int) and cls is not bool for cls in set(map(type, values)))


def _i64(values: list[object]) -> np.ndarray:
    """``values`` as an int64 array.

    Raises ``ValueError`` unless every value is an ``int`` within
    ±2**62: trace values arrive from outside the program (``/simulate``
    payloads), and NumPy would truncate a float or wrap an overflow
    where the pure-Python engine would not.
    """
    if _ints(values):
        try:
            array = np.fromiter(values, dtype=_I64, count=len(values))
        except OverflowError:
            pass
        else:
            if not array.size or (
                array.min() > -_VALUE_LIMIT and array.max() < _VALUE_LIMIT
            ):
                return array
    raise ValueError(
        "trace addresses, sizes and latencies must be integers within ±2**62"
    )


def _register_set(ids: list[object]) -> set[int]:
    """The distinct values of ``ids``, checked as register ids.

    Raises ``ValueError`` unless every id is an ``int`` (not a ``bool``)
    within ±2**62: NumPy would truncate a float, and a trace read from a
    ``/simulate`` payload can hold any JSON value.
    """
    if _ints(ids):
        distinct = set(ids)
        if not distinct or -_VALUE_LIMIT < min(distinct) <= max(distinct) < _VALUE_LIMIT:
            return distinct
    raise ValueError("register ids must be integers (not bools) within ±2**62")


def _lengths(rows: list[Sequence[object]]) -> np.ndarray:
    """The length of each row."""
    try:
        return np.frombuffer(bytes(map(len, rows)), dtype=_U8)
    except ValueError:  # a row of 256 or more entries
        return np.fromiter(map(len, rows), dtype=_I64, count=len(rows))


def _dense(ids: list[int], table: np.ndarray | None) -> np.ndarray:
    """Register ids as int64 ranks: each id's index in the sorted
    ``table`` of distinct ids, or the id itself when ``table`` is
    ``None`` (every id within 0..255)."""
    if table is None:
        return np.frombuffer(bytes(ids), dtype=_U8).astype(_I64)
    return np.searchsorted(table, np.array(ids, dtype=_I64))


def _register_edges(table: Sequence, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Register dependence edges ``(producers, consumers)``, by consumer.

    An instruction depends on the youngest earlier writer of each of its
    source registers, once per distinct producer, in the order its
    sources first name them.  The rename table's runtime dynamics (lazy
    clearing of completed producers, clear-at-commit) reduce to this
    static map plus a completed[] check at dispatch: a producer that
    completed — committed or not — contributes no dependence either way.

    Register ids are read and ranked once per table row; each
    instruction's ids are gathered from its row.  Writes are keyed
    ``(register, writer)`` and sorted; each source's ``(register,
    consumer)`` key then finds its youngest earlier writer with one
    ``searchsorted``.  A trace in which no instruction reads a register
    has no edges and skips the scan: its destination ids reach no
    table, so they are not examined.
    """
    n = index.size
    no_edges = np.zeros(0, dtype=_I64), np.zeros(0, dtype=_I64)
    if not any(map(_SRCS, table)):
        return no_edges
    srcs = list(map(_SRCS, table))
    dsts = list(map(_DSTS, table))
    src_ids: list[int] = reduce(iconcat, srcs, [])
    dst_ids: list[int] = reduce(iconcat, dsts, [])
    ids = sorted(_register_set(dst_ids) | _register_set(src_ids))
    if not dst_ids:
        return no_edges
    ranks = None if ids[0] >= 0 and ids[-1] < 256 else np.array(ids, dtype=_I64)
    stride = n + 1
    consumer, read_reg = _register_column(_lengths(srcs), _dense(src_ids, ranks), index)
    writer, write_reg = _register_column(_lengths(dsts), _dense(dst_ids, ranks), index)

    # The largest write key below a read's key is strictly earlier, so
    # an instruction never depends on its own destination; the -1 key
    # stands for no write.
    keys = np.sort(np.append(write_reg * stride + writer, -1))
    found = keys[np.searchsorted(keys, read_reg * stride + consumer) - 1]
    live = found >= read_reg * stride
    pairs = consumer[live] * stride + found[live] % stride
    _, first = np.unique(pairs, return_index=True)
    if first.size < pairs.size:  # keep each producer's first mention
        pairs = pairs[np.sort(first)]
    return pairs % stride, pairs // stride


def _register_column(
    lengths: np.ndarray, ranks: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every register an instruction names, as ``(instruction, rank)``.

    ``lengths`` and ``ranks`` are the table rows' id counts and their
    concatenated ranks; entries come in trace order, each instruction's
    in row order.
    """
    start = _offsets(lengths)
    counts = (start[1:] - start[:-1])[index]
    owners = np.flatnonzero(counts)
    counts = counts[owners]
    return np.repeat(owners, counts), ranks[_entries(start[index[owners]], counts)]


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR start offsets (length ``counts.size + 1``) from entry counts."""
    start = np.zeros(counts.size + 1, dtype=_I64)
    np.cumsum(counts, out=start[1:])
    return start


class CompiledTrace:
    """Immutable trace-static tables for the simulator's hot loop.

    Build via :func:`compile_trace`.  C-level passes over the table's
    records read the few row columns (op codes, latencies, register
    lists); Python visits only the sparse rows, and vectorized NumPy
    steps lay the facts out as the flat int64/uint8 columns the C kernel
    reads (CSR = one start-offset array plus one flat value array).

    Every fact that depends only on an instruction's record is held once
    per row of the compacted table, and instruction ``k`` reads it
    through ``row[k]`` (an int32 column):

    - ``kind``/``op_code``/``fu_cls``/``lat_over``/``mispred``/
      ``lowconf_flag`` — op tables (``lat_over`` is -1 when the
      functional-unit default applies);
    - ``mem_addr``/``mem_size`` and ``ml_start``/``ml_lines`` — load
      byte ranges and cache-line spans;
    - ``cw_start``/``cw_lines`` — commit-time write lines (stores + TCA);
    - ``wr_start``/``wr_addr``/``wr_size`` plus ``writer_lo``/
      ``writer_hi`` — writer byte ranges and their bounding boxes;
    - ``tr_start``/``tr_addr``/``tr_size`` — TCA read requests, and
      ``trl_start``/``trl_lines`` — per-request line spans (indexed by
      request id ``tr_start[row] + read_index``);
    - ``tca_read_count``/``tca_write_count``/``tca_comp_lat``;
    - ``row_count`` — how many instructions use each row.

    Facts that depend on an instruction's place in the trace are held
    per instruction:

    - ``re_start``/``edge_prod`` — register edges (edge id = array
      index), one per distinct register producer of an instruction;
    - ``edge_cons``/``mem_edge_base`` — edge consumers, register edges
      first, then one memory-dependence slot per load and per TCA read.

    The pure-Python engine reads per-instruction Python-object forms of
    these tables (:attr:`oracle`), gathered through ``row`` on first use
    and never pickled.

    Duck-types the pieces of :class:`~repro.isa.trace.Trace` the layers
    above the core need — ``name``, ``len()``, ``fingerprint()``,
    ``rows`` (the source's :class:`~repro.isa.trace.TraceRows`, shared,
    which sampled runs window into shards) and ``instructions`` (their
    record view, built on first use).  It holds no reference to the
    source ``Trace`` object, which owns it through the ``compile_trace``
    memo.
    """

    __slots__ = (
        "rows",
        "_fingerprint",
        "name",
        "length",
        "n_edges",
        "fu_used",
        "row",
        "row_count",
        "kind",
        "op_code",
        "fu_cls",
        "lat_over",
        "mispred",
        "lowconf_flag",
        "mem_addr",
        "mem_size",
        "ml_start",
        "ml_lines",
        "cw_start",
        "cw_lines",
        "wr_start",
        "wr_addr",
        "wr_size",
        "writer_lo",
        "writer_hi",
        "tr_start",
        "tr_addr",
        "tr_size",
        "trl_start",
        "trl_lines",
        "tca_read_count",
        "tca_write_count",
        "tca_comp_lat",
        "re_start",
        "edge_prod",
        "edge_cons",
        "mem_edge_base",
        "_pool",
        "_packed",
        "_oracle",
        "__weakref__",
    )

    def __init__(self, trace: Trace) -> None:
        rows = getattr(trace, "rows", None)
        if rows is None:
            rows = TraceRows.intern(trace.instructions)
        n = len(rows)
        if n >= MAX_TRACE_LENGTH:
            raise ValueError(
                f"trace of {n} instructions exceeds the {MAX_TRACE_LENGTH - 1} limit"
            )
        self.rows = rows
        self._fingerprint: str | None = getattr(trace, "_fingerprint", None)
        self.name = trace.name
        self.length = n

        # Every fact is computed once per table row: C-level map passes
        # read the rows' op codes, latencies and register lists, Python
        # visits only the sparse rows (loads, stores, TCAs, branches and
        # latency overrides), and NumPy lays each fact out as a row
        # column of length m, which the kernel reads through ``row``.
        compact = rows.compact()
        table = compact.table
        self.row = compact.index
        index = compact.index.astype(np.intp)
        m = len(table)
        self.row_count = np.bincount(index, minlength=m)
        codes = bytes(map(_CODE_OF, map(_OP, table)))
        self.op_code = np.frombuffer(codes, dtype=_U8)
        self.kind = row_kind = _KIND_BY_CODE[self.op_code]
        self.fu_cls = _FU_BY_CODE[self.op_code]
        reg_prod, reg_cons = _register_edges(table, index)
        row = table.__getitem__
        loads, stores, tcas, branches = (
            np.flatnonzero(row_kind == k) for k in (K_LOAD, K_STORE, K_TCA, K_BRANCH)
        )
        load_recs = list(map(row, loads.tolist()))
        store_recs = list(map(row, stores.tolist()))
        descriptors = list(map(_DESCRIPTOR, map(row, tcas.tolist())))
        tca_reads = list(map(_READS, descriptors))
        tca_writes = list(map(_WRITES, descriptors))
        reads = list(chain.from_iterable(tca_reads))
        writes = list(chain.from_iterable(tca_writes))
        read_counts = list(map(len, tca_reads))
        write_counts = list(map(len, tca_writes))
        latencies = list(map(_LATENCY, table))
        timed: list[int] = []  # functional-unit rows with a latency override
        if latencies.count(None) != m:
            has_latency = np.fromiter(map(is_not, latencies, repeat(None)), bool, m)
            timed = np.flatnonzero(has_latency & (row_kind >= K_BRANCH)).tolist()

        # Every int64 value is checked in one array: the byte ranges of
        # loads, stores, TCA writes and TCA reads (addresses, then sizes),
        # then TCA compute latencies and latency overrides.
        values = _i64(
            [
                *map(_ADDR, load_recs), *map(_ADDR, store_recs),
                *map(_REQ_ADDR, writes), *map(_REQ_ADDR, reads),
                *map(_SIZE, load_recs), *map(_SIZE, store_recs),
                *map(_REQ_SIZE, writes), *map(_REQ_SIZE, reads),
                *map(_COMPUTE_LATENCY, descriptors), *map(latencies.__getitem__, timed),
            ]
        )
        n_load = loads.size
        write_end = n_load + stores.size + len(writes)
        ranges = write_end + len(reads)

        # Ranges: loads, then writes (stores and TCA writes by row; a
        # stable sort keeps each TCA's writes in descriptor order), then
        # TCA reads.  Each range's cache lines are one run of ``lines``,
        # so each kind's CSR table is a slice of it.
        owners = np.concatenate((stores, np.repeat(tcas, write_counts)))
        order = np.argsort(owners, kind="stable")
        at = np.concatenate((np.arange(n_load), order + n_load, np.arange(write_end, ranges)))
        addr = values[at]
        size = values[ranges + at]
        line_counts, lines = _line_spans(addr, size)
        line_start = _offsets(line_counts)
        load_lines, write_lines = line_start[n_load], line_start[write_end]

        self.mem_addr = np.zeros(m, dtype=_I64)
        self.mem_size = np.zeros(m, dtype=_I64)
        self.mem_addr[loads] = addr[:n_load]
        self.mem_size[loads] = size[:n_load]
        self.ml_start = _starts(m, loads, line_counts[:n_load])
        self.ml_lines = lines[:load_lines]

        # Writers: stores and TCAs (a TCA without writes owns no entry).
        writers = owners[order]
        self.wr_addr = wr_addr = addr[n_load:write_end]
        self.wr_size = wr_size = size[n_load:write_end]
        self.wr_start = wr_start = _offsets(np.bincount(writers, minlength=m))
        self.cw_start = line_start[n_load + wr_start] - load_lines
        self.cw_lines = lines[load_lines:write_lines]
        self.writer_lo = np.zeros(m, dtype=_I64)
        self.writer_hi = np.zeros(m, dtype=_I64)
        if writers.size:
            rows_written = np.flatnonzero(np.diff(wr_start))
            first = wr_start[rows_written]
            self.writer_lo[rows_written] = np.minimum.reduceat(wr_addr, first)
            self.writer_hi[rows_written] = np.maximum.reduceat(wr_addr + wr_size, first)

        # TCA reads, then each read request's lines.
        self.tca_read_count = np.zeros(m, dtype=_I64)
        self.tca_read_count[tcas] = read_counts
        self.tr_start = _offsets(self.tca_read_count)
        self.tr_addr = addr[write_end:]
        self.tr_size = size[write_end:]
        self.trl_start = line_start[write_end:] - write_lines
        self.trl_lines = lines[write_lines:]
        self.tca_write_count = np.zeros(m, dtype=_I64)
        self.tca_write_count[tcas] = write_counts
        self.tca_comp_lat = np.zeros(m, dtype=_I64)
        lat_end = 2 * ranges + tcas.size
        self.tca_comp_lat[tcas] = np.maximum(1, values[2 * ranges : lat_end])
        self.lat_over = np.full(m, -1, dtype=_I64)
        self.lat_over[timed] = np.maximum(1, values[lat_end:])
        branch_list = branches.tolist()
        branch_recs = list(map(row, branch_list))
        self.mispred = np.zeros(m, dtype=_U8)
        self.mispred[list(compress(branch_list, map(_MISPREDICTED, branch_recs)))] = 1
        self.lowconf_flag = np.zeros(m, dtype=_U8)
        self.lowconf_flag[list(compress(branch_list, map(_LOW_CONFIDENCE, branch_recs)))] = 1

        # Per instruction: register edges come first; then one
        # memory-dependence edge slot per load and per TCA read.  A slot
        # has a static consumer but a producer discovered at dispatch
        # (the LSQ disambiguation scan), so only edge_cons covers it.
        consumers, edge_counts = np.unique(reg_cons, return_counts=True)
        self.re_start = _starts(n, consumers, edge_counts)
        self.edge_prod = reg_prod
        row_slots = np.where(row_kind == K_LOAD, 1, self.tca_read_count)
        slots = row_slots[index]
        slot_owners = np.flatnonzero(slots)
        slot_counts = slots[slot_owners]
        self.edge_cons = np.concatenate((reg_cons, np.repeat(slot_owners, slot_counts)))
        self.mem_edge_base = mem_edge_base = _starts(n, slot_owners, slot_counts)
        mem_edge_base += reg_cons.size
        self.fu_used = tuple(
            fu for code, fu in enumerate(_FU_BY_CODE.tolist()) if fu >= 0 and code in codes
        )
        self.n_edges = int(mem_edge_base[n])
        self._pool: list[RunState] = []
        self._packed = None  # repro.sim.backend.PackedTrace memo (not pickled)
        self._oracle: OracleTables | None = None  # built on first use

    @property
    def instructions(self) -> tuple:
        """The source trace's per-instruction records (built on first use)."""
        return self.rows.records

    @property
    def oracle(self) -> "OracleTables":
        """The pure-Python engine's tables (derived on first use, memoized)."""
        tables = self._oracle
        if tables is None:
            tables = self._oracle = OracleTables(self)
        return tables

    # ------------------------------------------------------- trace protocol

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledTrace(name={self.name!r}, n={self.length})"

    def fingerprint(self) -> str:
        """Content fingerprint of the underlying trace (sha256 hex).

        Equal to the source's ``Trace.fingerprint()``: taken from it at
        compile time when already computed, else computed lazily from
        the rows by the same function.
        """
        cached = self._fingerprint
        if cached is None:
            cached = self._fingerprint = fingerprint_rows(self.rows)
        return cached

    # ------------------------------------------------------------- run pool

    def acquire_state(self) -> RunState:
        """Take a per-run state block from the pool (or allocate one)."""
        try:
            return self._pool.pop()
        except IndexError:
            return RunState(self.length, self.n_edges)

    def release_state(self, state: RunState) -> None:
        """Return a block whose run completed cleanly to the pool."""
        if len(self._pool) < _POOL_MAX:
            self._pool.append(state)

    # ------------------------------------------------------------- pickling

    def __getstate__(self) -> dict[str, object]:
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in _UNPICKLED
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        self._pool = []
        self._packed = None
        self._oracle = None


#: Per-run and derived caches a pickled CompiledTrace leaves behind.
_UNPICKLED = frozenset(("_pool", "_packed", "_oracle", "__weakref__"))


def _spans(start: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """``(row, lo, hi)`` of each CSR row that owns at least one entry."""
    rows = np.flatnonzero(start[1:] != start[:-1])
    return zip(rows.tolist(), start[rows].tolist(), start[rows + 1].tolist())


class OracleTables:
    """Python-object tables the pure-Python engine's hot loop reads.

    Derived from a :class:`CompiledTrace`'s flat columns by
    :attr:`CompiledTrace.oracle`, one entry per instruction: row columns
    are gathered through ``row``, so the loop indexes every table by
    sequence number.  Flat columns become lists of Python ints (so the
    loop's arithmetic stays unbounded); CSR columns become tuples,
    ``None`` where an instruction has no entry (``reg_edges``/
    ``reg_producers`` use ``()``).
    """

    __slots__ = (
        "kind",
        "op_value",
        "fu_class",
        "lat_override",
        "mispredicted",
        "low_conf",
        "mem_addr",
        "mem_size",
        "mem_lines",
        "commit_write_lines",
        "writer_ranges",
        "writer_lo",
        "writer_hi",
        "reg_edges",
        "edge_consumer",
        "reg_producers",
        "mem_edge_base",
        "tca_reads",
        "tca_read_lines",
        "tca_read_count",
        "tca_write_count",
        "tca_compute_latency",
    )

    def __init__(self, ct: CompiledTrace) -> None:
        n = ct.length
        row = ct.row
        rows = row.tolist()
        self.kind = bytearray(ct.kind[row])
        self.op_value = _OP_VALUE_BY_CODE[ct.op_code[row]].tolist()
        self.fu_class = ct.fu_cls[row].tolist()
        self.lat_override = ct.lat_over[row].tolist()
        self.mispredicted = bytearray(ct.mispred[row])
        self.low_conf = bytearray(ct.lowconf_flag[row])
        self.mem_addr = ct.mem_addr[row].tolist()
        self.mem_size = ct.mem_size[row].tolist()
        self.writer_lo = ct.writer_lo[row].tolist()
        self.writer_hi = ct.writer_hi[row].tolist()
        self.edge_consumer = ct.edge_cons.tolist()
        self.mem_edge_base = ct.mem_edge_base.tolist()
        self.tca_read_count = ct.tca_read_count[row].tolist()
        self.tca_write_count = ct.tca_write_count[row].tolist()
        self.tca_compute_latency = ct.tca_comp_lat[row].tolist()

        prod = ct.edge_prod.tolist()
        reg_edges: list[tuple[tuple[int, int], ...]] = [()] * n
        reg_producers: list[tuple[int, ...]] = [()] * n
        for k, lo, hi in _spans(ct.re_start):
            reg_producers[k] = producers = tuple(prod[lo:hi])
            reg_edges[k] = tuple(zip(range(lo, hi), producers))
        self.reg_edges = reg_edges
        self.reg_producers = reg_producers

        self.mem_lines = _gather(_tuple_rows(ct.ml_start, ct.ml_lines), rows)
        self.commit_write_lines = _gather(_tuple_rows(ct.cw_start, ct.cw_lines), rows)

        m = len(ct.row_count)
        addr = ct.wr_addr.tolist()
        size = ct.wr_size.tolist()
        writer_ranges: list[tuple[tuple[int, int], ...] | None] = [None] * m
        for r, lo, hi in _spans(ct.wr_start):
            writer_ranges[r] = tuple(zip(addr[lo:hi], size[lo:hi]))
        self.writer_ranges = _gather(writer_ranges, rows)

        addr = ct.tr_addr.tolist()
        size = ct.tr_size.tolist()
        line_start = ct.trl_start.tolist()
        lines = ct.trl_lines.tolist()
        tca_reads: list[tuple[tuple[int, int], ...] | None] = [None] * m
        tca_read_lines: list[tuple[tuple[int, ...], ...] | None] = [None] * m
        for r, lo, hi in _spans(ct.tr_start):
            tca_reads[r] = tuple(zip(addr[lo:hi], size[lo:hi]))
            tca_read_lines[r] = tuple(
                tuple(lines[line_start[q] : line_start[q + 1]]) for q in range(lo, hi)
            )
        self.tca_reads = _gather(tca_reads, rows)
        self.tca_read_lines = _gather(tca_read_lines, rows)


def _tuple_rows(start: np.ndarray, values: np.ndarray) -> list[tuple[int, ...] | None]:
    """Per-row tuples of a CSR table, ``None`` for rows without entries."""
    out: list[tuple[int, ...] | None] = [None] * (start.size - 1)
    flat = values.tolist()
    for k, lo, hi in _spans(start):
        out[k] = tuple(flat[lo:hi])
    return out


def _gather(per_row: list, rows: list[int]) -> list:
    """Per-row entries laid out per instruction (entries are shared)."""
    return list(map(per_row.__getitem__, rows))


def compile_trace(trace: Trace | CompiledTrace, cache: bool = True) -> CompiledTrace:
    """Compile ``trace`` (idempotent; already-compiled traces pass through).

    Args:
        trace: the trace to analyze, or an existing :class:`CompiledTrace`.
        cache: memoize the result on the source ``Trace`` object so later
            calls (and ``simulate(trace, ...)``) reuse it.  Pass ``False``
            to force a fresh compilation (benchmarks measuring cold cost).
    """
    if isinstance(trace, CompiledTrace):
        return trace
    if cache:
        cached = getattr(trace, "_compiled", None)
        if cached is not None:
            return cached
    with span("sim.compile"):
        compiled = CompiledTrace(trace)
    if cache:
        trace._compiled = compiled
    return compiled
