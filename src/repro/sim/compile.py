"""Compile-once trace analysis for the cycle-level simulator.

:class:`CompiledTrace` is the analysis of a
:class:`~repro.isa.trace.Trace` that precomputes everything *trace-static*
the pipeline would otherwise re-derive on every run, with no Python code
run per instruction (C-level ``map`` passes plus NumPy):

- the register dependency graph, resolved to each source's youngest
  earlier writer by a sort and a search, and stored as flat
  producer→consumer edge arrays (CSR by consumer)
  — at run time an edge is *live* only if its producer is still
  incomplete, which is exactly the semantics of the rename table's
  lazily-cleared producer lookup;
- per-instruction op-kind / functional-unit-class / latency-override
  tables, branch annotations, and cache-line spans for every memory access
  (loads, store commits, and each pre-chunked TCA read/write request);
- per-writer byte ranges and bounding boxes for the LSQ's conservative
  memory disambiguation.

Every table is held once, as the flat NumPy array the C kernel reads;
the pure-Python engine's per-instruction tuple forms
(:class:`OracleTables`) are derived from those arrays on first use.

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
``CompiledTrace`` keeps only the records tuple, so no reference cycle
holds a dropped trace (or its arrays) until the cyclic GC runs.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, repeat
from operator import attrgetter, iconcat, is_not, itemgetter
from typing import Iterator, Sequence

import numpy as np

from repro.isa.instructions import CACHE_LINE_BYTES, OpClass
from repro.isa.trace import Trace, fingerprint_records
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
    result = tuple(out)
    # FIFO eviction: a long-lived serving process that has seen many
    # distinct range lists keeps admitting new ones instead of degrading
    # to uncached expansion forever (dicts preserve insertion order, so
    # the first key out of the iterator is the oldest).
    while len(_WARM_LINE_MEMO) >= _WARM_MEMO_MAX:
        del _WARM_LINE_MEMO[next(iter(_WARM_LINE_MEMO))]
    _WARM_LINE_MEMO[key] = result
    return result


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


def _starts(n: int, *groups: tuple[np.ndarray, object]) -> np.ndarray:
    """CSR start offsets (length ``n + 1``) from per-row entry counts.

    Each group is ``(rows, counts)``: distinct row indices owning
    ``counts`` entries each.  Groups own disjoint rows; every other row
    owns none.
    """
    start = np.zeros(n + 1, dtype=_I64)
    groups = tuple((rows, counts) for rows, counts in groups if len(rows))
    for rows, counts in groups:
        start[rows + 1] = counts
    return np.cumsum(start, out=start) if groups else start


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


def _register_edges(records: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Register dependence edges ``(producers, consumers)``, by consumer.

    An instruction depends on the youngest earlier writer of each of its
    source registers, once per distinct producer, in the order its
    sources first name them.  The rename table's runtime dynamics (lazy
    clearing of completed producers, clear-at-commit) reduce to this
    static map plus a completed[] check at dispatch: a producer that
    completed — committed or not — contributes no dependence either way.

    Writes are keyed ``(register, writer)`` and sorted; each source's
    ``(register, consumer)`` key then finds its youngest earlier writer
    with one ``searchsorted``.  A trace in which no instruction reads a
    register has no edges and skips the scan: its destination ids reach
    no table, so they are not examined.
    """
    n = len(records)
    no_edges = np.zeros(0, dtype=_I64), np.zeros(0, dtype=_I64)
    if not any(map(_SRCS, records)):
        return no_edges
    srcs = list(map(_SRCS, records))
    dsts = list(map(_DSTS, records))
    readers = list(compress(range(n), srcs))
    read_rows = list(map(srcs.__getitem__, readers))
    src_ids: list[int] = reduce(iconcat, read_rows, [])
    dst_ids: list[int] = reduce(iconcat, dsts, [])
    ids = sorted(_register_set(dst_ids) | _register_set(src_ids))
    if not dst_ids:
        return no_edges
    table = None if ids[0] >= 0 and ids[-1] < 256 else np.array(ids, dtype=_I64)
    stride = n + 1
    writer = np.repeat(np.arange(n, dtype=_I64), _lengths(dsts))
    write_keys = np.sort(_dense(dst_ids, table) * stride + writer)
    consumer = np.repeat(np.array(readers, dtype=_I64), _lengths(read_rows))
    register = _dense(src_ids, table) * stride
    # The last write keyed before (register, consumer) is strictly
    # earlier, so an instruction never depends on its own destination.
    before = np.searchsorted(write_keys, register + consumer) - 1
    found = write_keys[before]
    live = (before >= 0) & (found >= register)
    pairs = consumer[live] * stride + found[live] % stride
    _, first = np.unique(pairs, return_index=True)
    if first.size < pairs.size:  # keep each producer's first mention
        pairs = pairs[np.sort(first)]
    return pairs % stride, pairs // stride


class CompiledTrace:
    """Immutable trace-static tables for the simulator's hot loop.

    Build via :func:`compile_trace`.  C-level passes over the
    instruction records read the few whole-trace columns (op codes,
    latencies, register lists); Python visits only the sparse rows, and
    vectorized NumPy steps lay the facts out as the flat int64/uint8
    columns the C kernel reads (CSR = one start-offset array plus one
    flat value array):

    - ``kind``/``op_code``/``fu_cls``/``lat_over``/``mispred``/
      ``lowconf_flag`` — per-instruction op tables (``lat_over`` is -1
      when the functional-unit default applies);
    - ``mem_addr``/``mem_size`` and ``ml_start``/``ml_lines`` — load
      byte ranges and cache-line spans;
    - ``cw_start``/``cw_lines`` — commit-time write lines (stores + TCA);
    - ``wr_start``/``wr_addr``/``wr_size`` plus ``writer_lo``/
      ``writer_hi`` — writer byte ranges and their bounding boxes;
    - ``re_start``/``edge_prod`` — register edges (edge id = array
      index), one per distinct register producer of an instruction;
    - ``edge_cons``/``mem_edge_base`` — edge consumers, register edges
      first, then one memory-dependence slot per load and per TCA read;
    - ``tr_start``/``tr_addr``/``tr_size`` — TCA read requests, and
      ``trl_start``/``trl_lines`` — per-request line spans (indexed by
      global request id ``tr_start[k] + read_index``);
    - ``tca_read_count``/``tca_write_count``/``tca_comp_lat``.

    The pure-Python engine reads Python-object forms of these tables
    (:attr:`oracle`), derived on first use and never pickled.

    Duck-types the pieces of :class:`~repro.isa.trace.Trace` the layers
    above the core need — ``name``, ``len()``, ``fingerprint()``,
    ``instructions`` (the source's records tuple, shared, which sampled
    runs slice into shards).  It holds no reference to the source
    ``Trace`` object, which owns it through the ``compile_trace`` memo.
    """

    __slots__ = (
        "instructions",
        "_fingerprint",
        "name",
        "length",
        "n_edges",
        "fu_used",
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
        "re_start",
        "edge_prod",
        "edge_cons",
        "mem_edge_base",
        "tr_start",
        "tr_addr",
        "tr_size",
        "trl_start",
        "trl_lines",
        "tca_read_count",
        "tca_write_count",
        "tca_comp_lat",
        "_pool",
        "_packed",
        "_oracle",
        "__weakref__",
    )

    def __init__(self, trace: Trace) -> None:
        records = trace.instructions
        n = len(records)
        if n >= MAX_TRACE_LENGTH:
            raise ValueError(
                f"trace of {n} instructions exceeds the {MAX_TRACE_LENGTH - 1} limit"
            )
        self.instructions = records
        self._fingerprint: str | None = getattr(trace, "_fingerprint", None)
        self.name = trace.name
        self.length = n

        # Whole-trace columns come from C-level map passes; Python then
        # visits only the sparse rows: loads, stores, TCAs, branches and
        # latency overrides.
        codes = bytes(map(_CODE_OF, map(_OP, records)))
        op_code = np.frombuffer(codes, dtype=_U8)
        kind = _KIND_BY_CODE[op_code]
        reg_prod, reg_cons = _register_edges(records)
        row = records.__getitem__
        loads, stores, tcas, branches = (
            np.flatnonzero(kind == k) for k in (K_LOAD, K_STORE, K_TCA, K_BRANCH)
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
        latencies = list(map(_LATENCY, records))
        timed: list[int] = []  # functional-unit ops with a latency override
        if latencies.count(None) != n:
            has_latency = np.fromiter(map(is_not, latencies, repeat(None)), bool, n)
            timed = np.flatnonzero(has_latency & (kind >= K_BRANCH)).tolist()

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

        # Writers are stores and TCA writes in trace order; a stable sort
        # keeps each TCA's writes in descriptor order.
        owners = np.concatenate((stores, np.repeat(tcas, write_counts)))
        order = np.argsort(owners, kind="stable")
        writers = owners[order]
        at = np.concatenate((np.arange(n_load), order + n_load, np.arange(write_end, ranges)))
        addr = values[at]
        size = values[ranges + at]
        line_counts, lines = _line_spans(addr, size)
        line_start = np.zeros(ranges + 1, dtype=_I64)
        np.cumsum(line_counts, out=line_start[1:])

        mem_addr = np.zeros(n, dtype=_I64)
        mem_size = np.zeros(n, dtype=_I64)
        mem_addr[loads] = addr[:n_load]
        mem_size[loads] = size[:n_load]
        wr_addr = addr[n_load:write_end]
        wr_size = size[n_load:write_end]
        wr_start = _starts(n, (stores, 1), (tcas, write_counts))
        writer_lo = np.zeros(n, dtype=_I64)
        writer_hi = np.zeros(n, dtype=_I64)
        if writers.size:
            rows = np.unique(writers)
            first = wr_start[rows]
            writer_lo[rows] = np.minimum.reduceat(wr_addr, first)
            writer_hi[rows] = np.maximum.reduceat(wr_addr + wr_size, first)

        tca_read_count = np.zeros(n, dtype=_I64)
        tca_read_count[tcas] = read_counts
        tca_write_count = np.zeros(n, dtype=_I64)
        tca_write_count[tcas] = write_counts
        tca_comp_lat = np.zeros(n, dtype=_I64)
        lat_end = 2 * ranges + tcas.size
        tca_comp_lat[tcas] = np.maximum(1, values[2 * ranges : lat_end])
        lat_over = np.full(n, -1, dtype=_I64)
        lat_over[timed] = np.maximum(1, values[lat_end:])

        branch_rows = branches.tolist()
        branch_recs = list(map(row, branch_rows))
        mispred = np.zeros(n, dtype=_U8)
        mispred[list(compress(branch_rows, map(_MISPREDICTED, branch_recs)))] = 1
        lowconf_flag = np.zeros(n, dtype=_U8)
        lowconf_flag[list(compress(branch_rows, map(_LOW_CONFIDENCE, branch_recs)))] = 1

        # Memory-dependence edge slots follow the register edges: one per
        # load, one per TCA read.  They have a static consumer but a
        # producer discovered at dispatch (the LSQ disambiguation scan),
        # so only edge_cons covers them.
        loads_before = _starts(n, (loads, 1))
        tr_start = _starts(n, (tcas, read_counts))
        mem_edge_base = loads_before + tr_start
        mem_edge_base += reg_cons.size
        slot_rows = np.concatenate((loads, tcas))
        slot_order = np.argsort(slot_rows, kind="stable")
        slot_counts = np.concatenate((np.ones(n_load, dtype=_I64), tca_read_count[tcas]))

        self.kind = kind
        self.op_code = op_code
        self.fu_cls = _FU_BY_CODE[op_code]
        self.lat_over = lat_over
        self.mispred = mispred
        self.lowconf_flag = lowconf_flag
        self.mem_addr = mem_addr
        self.mem_size = mem_size
        self.ml_start = line_start[loads_before]
        self.ml_lines = lines[: line_start[n_load]]
        self.cw_start = (line_start[n_load : write_end + 1] - line_start[n_load])[wr_start]
        self.cw_lines = lines[line_start[n_load] : line_start[write_end]]
        self.wr_start = wr_start
        self.wr_addr = wr_addr
        self.wr_size = wr_size
        self.writer_lo = writer_lo
        self.writer_hi = writer_hi
        self.re_start = _starts(n, np.unique(reg_cons, return_counts=True))
        self.edge_prod = reg_prod
        self.edge_cons = np.concatenate(
            (reg_cons, np.repeat(slot_rows[slot_order], slot_counts[slot_order]))
        )
        self.mem_edge_base = mem_edge_base
        self.tr_start = tr_start
        self.tr_addr = addr[write_end:]
        self.tr_size = size[write_end:]
        self.trl_start = line_start[write_end:] - line_start[write_end]
        self.trl_lines = lines[line_start[write_end] :]
        self.tca_read_count = tca_read_count
        self.tca_write_count = tca_write_count
        self.tca_comp_lat = tca_comp_lat
        self.fu_used = tuple(
            fu for code, fu in enumerate(_FU_BY_CODE.tolist()) if fu >= 0 and code in codes
        )
        self.n_edges = int(mem_edge_base[n])
        self._pool: list[RunState] = []
        self._packed = None  # repro.sim.backend.PackedTrace memo (not pickled)
        self._oracle: OracleTables | None = None  # built on first use

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
        the records by the same function.
        """
        cached = self._fingerprint
        if cached is None:
            cached = self._fingerprint = fingerprint_records(self.instructions)
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
    :attr:`CompiledTrace.oracle`.  Flat columns become lists of Python
    ints (so the loop's arithmetic stays unbounded); CSR columns become
    per-instruction tuples, ``None`` where an instruction has no entry
    (``reg_edges``/``reg_producers`` use ``()``).
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
        self.kind = bytearray(ct.kind)
        self.op_value = _OP_VALUE_BY_CODE[ct.op_code].tolist()
        self.fu_class = ct.fu_cls.tolist()
        self.lat_override = ct.lat_over.tolist()
        self.mispredicted = bytearray(ct.mispred)
        self.low_conf = bytearray(ct.lowconf_flag)
        self.mem_addr = ct.mem_addr.tolist()
        self.mem_size = ct.mem_size.tolist()
        self.writer_lo = ct.writer_lo.tolist()
        self.writer_hi = ct.writer_hi.tolist()
        self.edge_consumer = ct.edge_cons.tolist()
        self.mem_edge_base = ct.mem_edge_base.tolist()
        self.tca_read_count = ct.tca_read_count.tolist()
        self.tca_write_count = ct.tca_write_count.tolist()
        self.tca_compute_latency = ct.tca_comp_lat.tolist()

        prod = ct.edge_prod.tolist()
        reg_edges: list[tuple[tuple[int, int], ...]] = [()] * n
        reg_producers: list[tuple[int, ...]] = [()] * n
        for k, lo, hi in _spans(ct.re_start):
            reg_producers[k] = producers = tuple(prod[lo:hi])
            reg_edges[k] = tuple(zip(range(lo, hi), producers))
        self.reg_edges = reg_edges
        self.reg_producers = reg_producers

        self.mem_lines = _tuple_rows(ct.ml_start, ct.ml_lines, n)
        self.commit_write_lines = _tuple_rows(ct.cw_start, ct.cw_lines, n)

        addr = ct.wr_addr.tolist()
        size = ct.wr_size.tolist()
        writer_ranges: list[tuple[tuple[int, int], ...] | None] = [None] * n
        for k, lo, hi in _spans(ct.wr_start):
            writer_ranges[k] = tuple(zip(addr[lo:hi], size[lo:hi]))
        self.writer_ranges = writer_ranges

        addr = ct.tr_addr.tolist()
        size = ct.tr_size.tolist()
        line_start = ct.trl_start.tolist()
        lines = ct.trl_lines.tolist()
        tca_reads: list[tuple[tuple[int, int], ...] | None] = [None] * n
        tca_read_lines: list[tuple[tuple[int, ...], ...] | None] = [None] * n
        for k, lo, hi in _spans(ct.tr_start):
            tca_reads[k] = tuple(zip(addr[lo:hi], size[lo:hi]))
            tca_read_lines[k] = tuple(
                tuple(lines[line_start[r] : line_start[r + 1]]) for r in range(lo, hi)
            )
        self.tca_reads = tca_reads
        self.tca_read_lines = tca_read_lines


def _tuple_rows(
    start: np.ndarray, values: np.ndarray, n: int
) -> list[tuple[int, ...] | None]:
    """Per-row tuples of a CSR table, ``None`` for rows without entries."""
    out: list[tuple[int, ...] | None] = [None] * n
    flat = values.tolist()
    for k, lo, hi in _spans(start):
        out[k] = tuple(flat[lo:hi])
    return out


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
