"""Unit tests for the compile-once trace pipeline (:mod:`repro.sim.compile`)."""

import gc
import json
import pickle
import weakref
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import TCAMode
from repro.isa.trace import Trace, TraceBuilder
from repro.sim.backend import effective_backend, use_backend
from repro.sim.compile import FU_CLASSES, CompiledTrace, compile_trace, warm_lines
from repro.sim.config import HIGH_PERF_SIM
from repro.sim.core import CoreSim
from repro.sim.simulator import simulate, simulate_modes
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program

#: Whether the C kernel builds here (a ``cc`` binary alone is not enough).
HAS_KERNEL = effective_backend() == "c"


def _trace():
    builder = TraceBuilder("unit")
    builder.chain(8, 0)
    builder.load(1, 0x1000)
    builder.store(1, 0x2000)
    builder.tca_over_range(
        "acc", compute_latency=20, read_ranges=[(0x1000, 128)],
        write_ranges=[(0x3000, 64)], replaced_instructions=10,
    )
    builder.branch(srcs=[1], mispredicted=True)
    return builder.build()


class TestCompileTrace:
    def test_memoized_on_trace_object(self):
        trace = _trace()
        first = compile_trace(trace)
        assert compile_trace(trace) is first
        assert trace._compiled is first

    def test_cache_false_forces_fresh_compile(self):
        trace = _trace()
        first = compile_trace(trace)
        fresh = compile_trace(trace, cache=False)
        assert fresh is not first
        # cache=False must not clobber the memoized compilation either.
        assert compile_trace(trace) is first

    def test_compiled_trace_passthrough(self):
        compiled = compile_trace(_trace())
        assert compile_trace(compiled) is compiled
        assert compile_trace(compiled, cache=False) is compiled

    def test_duck_types_trace_protocol(self):
        trace = _trace()
        compiled = compile_trace(trace)
        assert len(compiled) == len(trace)
        assert compiled.name == trace.name
        assert compiled.fingerprint() == trace.fingerprint()
        # The compiled form shares the records, not the Trace object.
        assert compiled.instructions is trace.instructions

    def test_fingerprint_computed_without_the_source(self):
        trace = _trace()
        compiled = compile_trace(trace)  # before trace.fingerprint() ran
        assert compiled.fingerprint() == _trace().fingerprint()
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored.fingerprint() == compiled.fingerprint()
        assert restored.instructions == trace.instructions

    @pytest.mark.parametrize(
        "backend",
        [
            "python",
            pytest.param(
                "c",
                marks=pytest.mark.skipif(not HAS_KERNEL, reason="the C kernel does not build here"),
            ),
        ],
    )
    def test_dropped_trace_is_freed_without_the_cyclic_gc(self, backend):
        # The trace owns its compiled form and nothing points back, so
        # dropping the last reference frees both by reference counting.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            program = generate_heap_program(HeapWorkloadSpec(slots=40))
            trace = program.accelerated()
            compiled = compile_trace(trace)
            with use_backend(backend):
                simulate(trace, HIGH_PERF_SIM)
            refs = (weakref.ref(trace), weakref.ref(compiled))
            del program, trace, compiled
            assert [ref() for ref in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()


def _edge_case_trace():
    from repro.isa.instructions import OpClass

    builder = TraceBuilder("tables")
    builder.alu(1, (), latency=0)  # 0: override clamps to 1
    builder.load(2, 60, size=8, srcs=(1, 1))  # straddles two lines
    builder.store(2, 0x2000)  # 2
    builder.tca_over_range(  # 3: two reads, two writes in one line
        "acc", compute_latency=0, read_ranges=[(0x1000, 96)],
        write_ranges=[(0x3000, 8), (0x3010, 8)], srcs=(2, 1),
    )
    builder.tca_over_range("idle", compute_latency=7)  # 4: no memory
    builder.branch(srcs=(2,), mispredicted=True, low_confidence=True)
    builder.load(3, 0x2004, size=4)  # 6
    builder.alu(4, (3,), op=OpClass.FP_MUL)
    return builder.build()


class TestCompiledTables:
    def test_kernel_columns(self):
        from repro.isa.instructions import OpClass

        ct = compile_trace(_edge_case_trace(), cache=False)
        inst = per_instruction(ct)
        assert inst["kind"].tolist() == [4, 0, 1, 2, 2, 3, 0, 4]
        assert inst["lat_over"].tolist() == [1, -1, -1, -1, -1, -1, -1, -1]
        assert inst["tca_comp_lat"].tolist() == [0, 0, 0, 1, 7, 0, 0, 0]
        assert inst["tca_read_count"].tolist() == [0, 0, 0, 2, 0, 0, 0, 0]
        assert inst["tca_write_count"].tolist() == [0, 0, 0, 2, 0, 0, 0, 0]
        assert inst["mispred"].tolist() == inst["lowconf_flag"].tolist() == [0] * 5 + [1, 0, 0]
        assert inst["writer_lo"].tolist()[2:4] == [0x2000, 0x3000]
        assert inst["writer_hi"].tolist()[2:4] == [0x2008, 0x3018]
        # Register edges: one per distinct producer, then one memory slot
        # per load and per TCA read.
        assert ct.edge_prod.tolist() == [0, 1, 1, 0, 1, 6]
        assert ct.mem_edge_base.tolist() == [6, 6, 7, 7, 9, 9, 9, 10, 10]
        assert ct.n_edges == 10
        assert ct.edge_cons.tolist() == [1, 2, 3, 3, 5, 7, 1, 3, 3, 6]
        assert [FU_CLASSES[c] for c in ct.fu_used] == [
            OpClass.INT_ALU, OpClass.FP_MUL, OpClass.BRANCH,
        ]

        tables = ct.oracle
        assert tables is ct.oracle  # memoized
        assert tables.op_value[:3] == ["int_alu", "load", "store"]
        assert tables.reg_edges[3] == ((2, 1), (3, 0))
        assert tables.reg_edges[0] == ()

    @pytest.mark.parametrize("which", ["edge-case", "empty", "unpickled"])
    def test_columns_are_what_the_kernel_pointers_assume(self, which):
        # The C kernel reads every column through a raw pointer, so each
        # must be a C-contiguous array of the exact dtype it declares.
        import numpy as np

        from repro.sim.backend import _TRACE_COLUMNS, get_packed

        trace = TraceBuilder("empty").build() if which == "empty" else (
            _edge_case_trace()
        )
        ct = compile_trace(trace, cache=False)
        if which == "unpickled":
            ct = pickle.loads(pickle.dumps(ct))
        u8 = {"kind", "mispred", "lowconf_flag"}
        for name, column in zip(_TRACE_COLUMNS, get_packed(ct).columns):
            assert column is getattr(ct, name)
            dtype = np.int32 if name == "row" else np.uint8 if name in u8 else np.int64
            assert column.dtype == dtype, name
            assert column.flags.c_contiguous, name

    @pytest.mark.parametrize(
        "emit",
        [
            lambda b: b.load(1, 1 << 62),
            lambda b: b.load(1, -(1 << 62)),
            lambda b: b.store(1, (1 << 63) - 8),
            lambda b: b.load(1, 4.5),
            lambda b: b.alu(1, latency=2.5),
            lambda b: b.tca_over_range("acc", 1, write_ranges=[(1 << 64, 8)]),
        ],
    )
    def test_values_the_int64_columns_cannot_hold_are_rejected(self, emit):
        # NumPy would truncate a float or wrap an overflowing address
        # where the pure-Python engine would not.
        builder = TraceBuilder("bad")
        emit(builder)
        with pytest.raises(ValueError, match="2\\*\\*62"):
            compile_trace(builder.build(), cache=False)

    @pytest.mark.parametrize("bad", [[1], "x", 1.5, True, 1 << 62, -(1 << 62), 1 << 70])
    @pytest.mark.parametrize("where", ["source", "destination"])
    def test_register_ids_that_are_not_in_range_ints_are_rejected(self, bad, where):
        # NumPy would truncate 1.5 and read True as 1; a list is
        # unhashable.  Every id is checked once any instruction reads one.
        from repro.isa.instructions import Instruction, OpClass

        srcs, dsts = ((bad,), (3,)) if where == "source" else ((1,), (bad,))
        trace = Trace([Instruction(OpClass.INT_ALU, srcs=srcs, dsts=dsts)])
        with pytest.raises(ValueError, match="register ids"):
            compile_trace(trace, cache=False)


#: Columns held once per table row: flat ones, then CSR tables as
#: (start, values) pairs.
ROW_COLUMNS = (
    "kind", "op_code", "fu_cls", "lat_over", "mispred", "lowconf_flag",
    "mem_addr", "mem_size", "writer_lo", "writer_hi",
    "tca_read_count", "tca_write_count", "tca_comp_lat",
)
ROW_TABLES = (
    ("ml_start", "ml_lines"), ("cw_start", "cw_lines"),
    ("wr_start", "wr_addr"), ("wr_start", "wr_size"),
    ("tr_start", "tr_addr"), ("tr_start", "tr_size"),
)
#: Columns held per instruction.
INSTRUCTION_COLUMNS = ("re_start", "edge_prod", "edge_cons", "mem_edge_base")


def per_instruction(ct):
    """Every compiled fact laid out per instruction, by gathering the row
    columns through ``row`` (``column[row]``); these values do not depend
    on how a trace is split into rows."""
    row = ct.row
    out = {name: getattr(ct, name)[row] for name in ROW_COLUMNS}
    for start, values in ROW_TABLES:
        spans = getattr(ct, start)
        flat = getattr(ct, values).tolist()
        out[values] = [tuple(flat[spans[r] : spans[r + 1]]) for r in row.tolist()]
    read_lines = ct.trl_lines.tolist()
    line_start = ct.trl_start.tolist()
    out["trl_lines"] = [
        tuple(
            tuple(read_lines[line_start[q] : line_start[q + 1]])
            for q in range(ct.tr_start[r], ct.tr_start[r + 1])
        )
        for r in row.tolist()
    ]
    for name in INSTRUCTION_COLUMNS:
        out[name] = getattr(ct, name)
    return out


def _reference_tables(trace):
    """The oracle tables by a plain per-instruction loop (the reference
    for the compiler's vectorized CSR construction)."""
    from repro.isa.instructions import OpClass
    from repro.sim.compile import lines_for_range

    n = len(trace)
    ref = {
        "mem_lines": [None] * n,
        "commit_write_lines": [None] * n,
        "writer_ranges": [None] * n,
        "writer_lo": [0] * n,
        "writer_hi": [0] * n,
        "reg_producers": [()] * n,
        "tca_reads": [None] * n,
        "tca_read_lines": [None] * n,
        "lat_override": [-1] * n,
        "mem_edge_base": [],
    }
    last_writer = {}
    n_edges = 0
    slots = []
    for k, inst in enumerate(trace):
        prods = []
        for src in inst.srcs:
            p = last_writer.get(src)
            if p is not None and p not in prods:
                prods.append(p)
        ref["reg_producers"][k] = tuple(prods)
        n_edges += len(prods)
        ranges = ()
        if inst.op is OpClass.LOAD:
            ref["mem_lines"][k] = lines_for_range(inst.addr, inst.size)
            slots.append(1)
        elif inst.op is OpClass.STORE:
            ranges = ((inst.addr, inst.size),)
            slots.append(0)
        elif inst.op is OpClass.TCA:
            reads = tuple((r.addr, r.size) for r in inst.tca.reads)
            if reads:
                ref["tca_reads"][k] = reads
                ref["tca_read_lines"][k] = tuple(lines_for_range(*r) for r in reads)
            ranges = tuple((w.addr, w.size) for w in inst.tca.writes)
            slots.append(len(reads))
        else:
            if inst.latency is not None:
                ref["lat_override"][k] = max(1, inst.latency)
            slots.append(0)
        if ranges:
            ref["writer_ranges"][k] = ranges
            ref["writer_lo"][k] = min(a for a, _ in ranges)
            ref["writer_hi"][k] = max(a + s for a, s in ranges)
            ref["commit_write_lines"][k] = tuple(
                line for a, s in ranges for line in lines_for_range(a, s)
            )
        for dst in inst.dsts:
            last_writer[dst] = k
    base = n_edges
    for k in range(n):
        ref["mem_edge_base"].append(base)
        base += slots[k]
    ref["mem_edge_base"].append(base)
    return ref


class TestReferenceLoop:
    @pytest.mark.parametrize(
        "which", ["unit", "edge-cases", "heap-baseline", "heap-accel"]
    )
    def test_oracle_tables_match_a_per_instruction_loop(self, which):
        if which == "unit":
            trace = _trace()
        elif which == "edge-cases":
            trace = _edge_case_trace()
        else:
            program = generate_heap_program(
                HeapWorkloadSpec(slots=60, call_probability=0.3, seed=5)
            )
            trace = program.baseline if which == "heap-baseline" else program.accelerated()
        tables = compile_trace(trace, cache=False).oracle
        for name, expected in _reference_tables(trace).items():
            assert list(getattr(tables, name)) == expected, name


@st.composite
def _random_traces(draw):
    """Traces mixing every op kind; ids repeat within and across
    instructions, and some are far outside one byte."""
    from repro.isa.instructions import Instruction, MemRequest, OpClass, TCADescriptor

    pool = draw(st.sampled_from([(0, 1, 2, 3), (5, 200, 255), (-3, 7, 1 << 40)]))
    regs = st.lists(st.sampled_from(pool), max_size=4).map(tuple)
    latency = st.none() | st.integers(0, 5)
    requests = st.lists(st.integers(0, 4096), max_size=2)
    records = []
    for op in draw(st.lists(st.sampled_from(list(OpClass)), max_size=30)):
        fields = {"srcs": draw(regs), "dsts": draw(regs), "latency": draw(latency)}
        if op in (OpClass.LOAD, OpClass.STORE):
            fields["addr"] = draw(st.integers(0, 4096))
        elif op is OpClass.TCA:
            fields["tca"] = TCADescriptor(
                "acc", compute_latency=draw(st.integers(0, 9)),
                reads=tuple(MemRequest(a, 8) for a in draw(requests)),
                writes=tuple(MemRequest(a, 8, True) for a in draw(requests)),
            )
        records.append(Instruction(op, **fields))
    return Trace(records)


class TestRandomTraces:
    @settings(max_examples=200, deadline=None)
    @given(_random_traces())
    def test_tables_match_a_per_instruction_loop(self, trace):
        ct = compile_trace(trace, cache=False)
        ref = _reference_tables(trace)
        for name, expected in ref.items():
            assert list(getattr(ct.oracle, name)) == expected, name
        _assert_register_edges(ct, ref["reg_producers"])

    def test_rows_of_many_registers(self):
        # Rows of 256 or more ids take the general length pass.
        builder = TraceBuilder("wide")
        for reg in range(300):
            builder.alu(reg)
        builder.tca_over_range("acc", 1, srcs=range(300), dsts=range(300))
        builder.alu(0, (0, 299))
        trace = builder.build()
        ct = compile_trace(trace, cache=False)
        _assert_register_edges(ct, _reference_tables(trace)["reg_producers"])
        assert ct.edge_prod.tolist()[-1] == 300


def _assert_register_edges(ct, producers):
    """The flat register-edge columns hold exactly ``producers``, each
    instruction's distinct producers in first-mention order."""
    assert ct.re_start.tolist() == [0, *accumulate(map(len, producers))]
    assert ct.edge_prod.tolist() == [p for row in producers for p in row]
    consumers = [k for k, row in enumerate(producers) for _ in row]
    assert ct.edge_cons.tolist()[: len(consumers)] == consumers


class TestRowLayout:
    def test_row_facts_are_held_once_per_row(self):
        import numpy as np

        trace = generate_heap_program(
            HeapWorkloadSpec(slots=60, call_probability=0.3, seed=5)
        ).baseline
        ct = compile_trace(trace, cache=False)
        m = len(trace.rows.compact().table)
        assert m < ct.length
        assert ct.row.tolist() == trace.rows.compact().index.tolist()
        assert ct.row_count.tolist() == np.bincount(ct.row, minlength=m).tolist()
        for name in ROW_COLUMNS:
            assert getattr(ct, name).size == m, name
        for start, _ in ROW_TABLES:
            assert getattr(ct, start).size == m + 1, start
        for name in ("re_start", "mem_edge_base"):
            assert getattr(ct, name).size == ct.length + 1, name

    @settings(max_examples=100, deadline=None)
    @given(_random_traces(), st.data())
    def test_packed_bounds_equal_a_per_instruction_count(self, trace, data):
        # The kernel's scratch arrays are sized from row facts weighted by
        # row_count; recount them record by record, rows repeated.
        records = list(trace.instructions)
        if records:
            picks = data.draw(st.lists(st.integers(0, len(records) - 1), max_size=20))
            records += [records[i] for i in picks]
        _assert_packed_bounds(Trace(records))

    @pytest.mark.parametrize("accelerated", [False, True])
    def test_packed_bounds_on_a_generated_program(self, accelerated):
        program = generate_heap_program(
            HeapWorkloadSpec(slots=80, call_probability=0.4, seed=3)
        )
        _assert_packed_bounds(program.accelerated() if accelerated else program.baseline)


def _assert_packed_bounds(trace):
    """``PackedTrace``'s scratch bounds equal a per-instruction recount."""
    from repro.isa.instructions import OpClass
    from repro.sim.backend import PackedTrace

    writers = lowconf = max_reads = 0
    for inst in trace:
        if inst.op is OpClass.STORE or (inst.op is OpClass.TCA and inst.tca.writes):
            writers += 1
        if inst.op is OpClass.BRANCH and inst.low_confidence:
            lowconf += 1
        if inst.op is OpClass.TCA:
            max_reads = max(max_reads, len(inst.tca.reads))
    packed = PackedTrace(compile_trace(trace, cache=False))
    assert (packed.writers_cap, packed.lowconf_cap, packed.max_tca_reads) == (
        writers, lowconf, max_reads,
    )


class TestRunStatePool:
    def test_state_reused_across_runs(self):
        compiled = compile_trace(_trace(), cache=False)
        state = compiled.acquire_state()
        compiled.release_state(state)
        assert compiled.acquire_state() is state

    def test_pool_is_bounded(self):
        compiled = compile_trace(_trace(), cache=False)
        states = [compiled.acquire_state() for _ in range(12)]
        for state in states:
            compiled.release_state(state)
        assert len(compiled._pool) <= 8

    def test_pooled_runs_are_deterministic(self):
        # Back-to-back runs reuse the pooled mutable block; any residue
        # would change the stats.  Pinned to the python backend — native
        # backends pool their own arrays (covered below).
        from repro.sim import backend

        compiled = compile_trace(_trace(), cache=False)
        with backend.use_backend("python"):
            dumps = {
                json.dumps(CoreSim(HIGH_PERF_SIM, compiled).run().to_dict())
                for _ in range(4)
            }
        assert len(dumps) == 1
        assert len(compiled._pool) == 1

    @pytest.mark.skipif(not HAS_KERNEL, reason="the C kernel does not build here")
    def test_native_state_pool_reuses_blocks(self):
        # The native driver's per-run arrays pool mirrors the RunState
        # pool: clean runs recycle one block, and reuse leaves no residue.
        from repro.sim import backend

        compiled = compile_trace(_trace(), cache=False)
        with backend.use_backend("c"):
            dumps = set()
            for _ in range(4):
                sim = CoreSim(HIGH_PERF_SIM, compiled)
                stats = backend.try_run_native(sim)
                assert stats is not None
                dumps.add(json.dumps(stats.to_dict()))
        assert len(dumps) == 1
        assert len(compiled._packed._pool) == 1


class TestPickling:
    def test_round_trip_drops_pool_and_preserves_results(self):
        compiled = compile_trace(_trace(), cache=False)
        baseline = CoreSim(HIGH_PERF_SIM, compiled).run().to_dict()
        compiled.release_state(compiled.acquire_state())  # non-empty pool
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._pool == []
        assert clone.fingerprint() == compiled.fingerprint()
        assert CoreSim(HIGH_PERF_SIM, clone).run().to_dict() == baseline


    @pytest.mark.skipif(not HAS_KERNEL, reason="the C kernel does not build here")
    def test_round_trip_simulates_identically_on_both_engines(self):
        from repro.sim import backend

        trace = _trace()
        compiled = compile_trace(trace, cache=False)
        untouched = compile_trace(trace, cache=False)
        with backend.use_backend("python"):
            expected = json.dumps(CoreSim(HIGH_PERF_SIM, compiled).run().to_dict())
        assert compiled._oracle is not None  # the python run built them
        blob = pickle.dumps(compiled)
        # The oracle tables are derived, never shipped: the pickle of a
        # trace the python engine has run equals one that never ran.
        assert blob == pickle.dumps(untouched)
        assert b"OracleTables" not in blob
        for engine in ("python", "c"):
            clone = pickle.loads(blob)
            assert clone._oracle is None
            with backend.use_backend(engine):
                got = CoreSim(HIGH_PERF_SIM, clone).run().to_dict()
            assert json.dumps(got) == expected, engine

    @pytest.mark.skipif(not HAS_KERNEL, reason="the C kernel does not build here")
    def test_native_runs_never_build_the_oracle_tables(self):
        from repro.sim import backend

        compiled = compile_trace(_trace(), cache=False)
        with backend.use_backend("c"):
            CoreSim(HIGH_PERF_SIM, compiled).run()
        assert compiled._oracle is None


class TestSpans:
    @staticmethod
    def _names(node):
        yield node["name"]
        for child in node.get("children", ()):
            yield from TestSpans._names(child)

    @pytest.mark.skipif(not HAS_KERNEL, reason="the C kernel does not build here")
    def test_compile_and_kernel_spans(self):
        from repro import api
        from repro.obs.span import request_scope
        from repro.sim import backend

        trace = _trace()
        with backend.use_backend("c"):
            with request_scope("test.first") as first:
                api.simulate(trace, HIGH_PERF_SIM)
            with request_scope("test.repeat") as repeat:
                api.simulate(trace, HIGH_PERF_SIM)
        first_names = list(self._names(first.root.to_dict()))
        repeat_names = list(self._names(repeat.root.to_dict()))
        assert first_names.count("sim.compile") == 1
        assert "sim.kernel" in first_names
        assert "sim.compile" not in repeat_names
        assert "sim.kernel" in repeat_names


class TestSharedCompilation:
    def test_simulate_accepts_compiled_trace(self):
        trace = _trace()
        compiled = compile_trace(trace, cache=False)
        from_trace = simulate(trace, HIGH_PERF_SIM)
        from_compiled = simulate(compiled, HIGH_PERF_SIM)
        assert from_compiled.stats.to_dict() == from_trace.stats.to_dict()
        assert from_compiled.trace_name == trace.name

    def test_simulate_modes_compiles_each_trace_once(self):
        program = generate_heap_program(
            HeapWorkloadSpec(slots=40, call_probability=0.3, seed=3)
        )
        baseline, accelerated = program.baseline, program.accelerated()
        comparison = simulate_modes(baseline, accelerated, HIGH_PERF_SIM)
        # simulate_modes memoizes the compilation on each trace object:
        # all four mode runs shared one accelerated-trace analysis.
        assert isinstance(baseline._compiled, CompiledTrace)
        assert isinstance(accelerated._compiled, CompiledTrace)
        assert set(comparison.per_mode) == set(TCAMode.all_modes())


class TestWarmLines:
    def test_matches_byte_ranges(self):
        lines = warm_lines([(0, 130), (1024, 1)])
        assert lines == (0, 64, 128, 1024)

    def test_memoized(self):
        ranges = ((0, 256),)
        assert warm_lines(ranges) is warm_lines(ranges)


class TestLinesForRange:
    def test_zero_size_touches_no_lines(self):
        from repro.sim.compile import lines_for_range

        # A zero-length range touches nothing — regardless of whether
        # the address is line-aligned (the aligned case used to return
        # the containing line).
        assert lines_for_range(0, 0) == ()
        assert lines_for_range(64, 0) == ()
        assert lines_for_range(65, 0) == ()
        assert lines_for_range(64, -1) == ()

    def test_single_byte_touches_its_line(self):
        from repro.sim.compile import lines_for_range

        assert lines_for_range(0, 1) == (0,)
        assert lines_for_range(127, 1) == (64,)

    def test_zero_size_warm_range_is_a_no_op(self):
        assert warm_lines([(4096, 0)]) == ()
        assert warm_lines([(0, 64), (4096, 0)]) == (0,)


class TestWarmMemoEviction:
    def test_memo_keeps_admitting_past_the_bound(self):
        from repro.sim import compile as compile_mod

        original = dict(compile_mod._WARM_LINE_MEMO)
        compile_mod._WARM_LINE_MEMO.clear()
        try:
            bound = compile_mod._WARM_MEMO_MAX
            for i in range(bound + 10):
                warm_lines([(i * 64, 1)])
            # FIFO eviction: the bound holds, the newest entries are
            # still memoized (the memo used to stop admitting entirely
            # once full, losing memoization for every new range list).
            assert len(compile_mod._WARM_LINE_MEMO) <= bound
            newest = ((bound + 9) * 64, 1)
            assert (newest,) in compile_mod._WARM_LINE_MEMO
            oldest = (0, 1)
            assert (oldest,) not in compile_mod._WARM_LINE_MEMO
        finally:
            compile_mod._WARM_LINE_MEMO.clear()
            compile_mod._WARM_LINE_MEMO.update(original)
