"""Every way of building a trace yields the same trace.

A trace is a table of records plus a row index, and there are several
ways to make one: a generator's builder (per-call rows, shared blocks,
row templates), ``Trace(records)`` (rows interned by identity),
``Program.accelerated()`` (an index splice), ``Trace.concat``, row
windows and ``trace_io``.  Whatever the rows look like, the
instructions, the digest, the compiled columns (values, dtype,
contiguity) and the simulated ``SimStats`` must be the same.
"""

import dataclasses
import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sim_compile import _random_traces, _reference_tables, per_instruction

from repro import workloads
from repro.isa.instructions import Instruction, OpClass, TCADescriptor
from repro.isa.program import AcceleratableRegion, Program
from repro.isa.trace import Trace, TraceBuilder
from repro.isa.trace_io import dump_trace, load_trace_stream
from repro.sim.compile import CompiledTrace, compile_trace
from repro.sim.config import HIGH_PERF_SIM
from repro.sim.simulator import simulate

GENERATORS = {
    "heap": (workloads.HeapWorkloadSpec, workloads.generate_heap_program),
    "hashmap": (workloads.HashMapWorkloadSpec, workloads.generate_hashmap_program),
    "regex": (workloads.RegexWorkloadSpec, workloads.generate_regex_program),
    "strings": (workloads.StringWorkloadSpec, workloads.generate_string_program),
    "synthetic": (workloads.SyntheticSpec, workloads.generate_synthetic_program),
}


def _columns(ct: CompiledTrace) -> dict[str, np.ndarray]:
    """Every array a compiled trace holds, by slot name."""
    return {
        slot: getattr(ct, slot)
        for slot in CompiledTrace.__slots__
        if isinstance(getattr(ct, slot, None), np.ndarray)
    }


def assert_same_compiled(got: CompiledTrace, want: CompiledTrace) -> None:
    """Equal per-instruction values, dtypes and scalars; every column
    C-contiguous.

    Row columns are compared through each trace's own row index
    (``column[row]``): how a trace is split into rows changes their
    length, never what an instruction reads.
    """
    got_columns, want_columns = _columns(got), _columns(want)
    assert got_columns.keys() == want_columns.keys()
    assert len(got_columns) == 31  # the kernel's 29 columns, op_code, row_count
    for name, column in got_columns.items():
        assert column.dtype == want_columns[name].dtype, name
        assert column.flags.c_contiguous, name
    expected = per_instruction(want)
    for name, values in per_instruction(got).items():
        if isinstance(values, np.ndarray):
            assert np.array_equal(values, expected[name]), name
        else:
            assert values == expected[name], name
    for ct in (got, want):
        assert ct.row_count.tolist() == np.bincount(ct.row, minlength=ct.row_count.size).tolist()
    assert (got.length, got.n_edges, got.fu_used) == (want.length, want.n_edges, want.fu_used)


def record_splice(program: Program) -> Trace:
    """``Program.accelerated()`` by splicing record lists, the way it
    was computed before traces had a row index (the reference)."""
    out: list[Instruction] = []
    cursor = 0
    records = program.baseline.instructions
    for region in program.regions:
        out.extend(records[cursor : region.start])
        descriptor = region.descriptor
        if descriptor.replaced_instructions != region.length:
            descriptor = dataclasses.replace(descriptor, replaced_instructions=region.length)
        out.append(Instruction(OpClass.TCA, srcs=region.srcs, dsts=region.dsts, tca=descriptor))
        cursor = region.end
    out.extend(records[cursor:])
    return Trace(out)


def round_trip(trace: Trace) -> Trace:
    """``trace`` written and read back through ``trace_io``."""
    text = io.StringIO()
    dump_trace(trace, text)
    text.seek(0)
    return load_trace_stream(text)


def variants(trace: Trace) -> dict[str, Trace]:
    """The same instruction stream built every other way."""
    half = len(trace) // 2
    return {
        "records": Trace(list(trace.instructions)),
        "trace_io": round_trip(trace),
        "compacted": Trace.from_rows(trace.rows.compact()),
        "concat": Trace.from_rows(trace.rows.window(0, half)).concat(
            Trace.from_rows(trace.rows.window(half, len(trace)))
        ),
        "unpickled": pickle.loads(pickle.dumps(Trace.from_rows(trace.rows))),
    }


def stats_json(trace: Trace, warm_ranges) -> str:
    return json.dumps(
        simulate(trace, HIGH_PERF_SIM, warm_ranges=warm_ranges).stats.to_dict(),
        sort_keys=True,
    )


@pytest.mark.parametrize("seed", [1, 8, 29])
@pytest.mark.parametrize("generator", sorted(GENERATORS))
def test_generated_traces_agree_across_construction_paths(generator, seed):
    spec, generate = GENERATORS[generator]
    program = generate(spec(seed=seed))
    warm = program.baseline.metadata.get("warm_ranges")
    accelerated = program.accelerated()
    for trace, extra in (
        (program.baseline, {}),
        (accelerated, {"record_splice": record_splice(program)}),
    ):
        built = compile_trace(trace, cache=False)
        reference = _reference_tables(trace)
        for name, expected in reference.items():
            assert list(getattr(built.oracle, name)) == expected, name
        want_stats = stats_json(trace, warm)
        for name, other in {**variants(trace), **extra}.items():
            assert other.fingerprint() == trace.fingerprint(), name
            assert other.instructions == trace.instructions, name
            assert_same_compiled(compile_trace(other, cache=False), built)
            assert stats_json(other, warm) == want_stats, name


@st.composite
def _shared_traces(draw):
    """Random traces in which record objects repeat, as generators'
    shared blocks make them, plus a split point."""
    trace = draw(_random_traces())
    records = list(trace.instructions)
    if records:
        picks = draw(st.lists(st.integers(0, len(records) - 1), max_size=20))
        records += [records[i] for i in picks]
    return records, draw(st.integers(0, len(records)))


class TestRandomTraces:
    @settings(max_examples=100, deadline=None)
    @given(_shared_traces())
    def test_builder_interning_and_windows_agree(self, case):
        records, cut = case
        interned = Trace(records)
        builder = TraceBuilder()
        builder.extend(tuple(records[:cut]))
        for record in records[cut:]:
            builder.emit(record)
        built = builder.build()
        want = compile_trace(interned, cache=False)
        for trace in (built, *variants(interned).values()):
            assert trace.fingerprint() == interned.fingerprint()
            assert trace.instructions == tuple(records)
            assert_same_compiled(compile_trace(trace, cache=False), want)
        window = Trace.from_rows(interned.rows.window(cut // 2, cut))
        assert window.instructions == tuple(records[cut // 2 : cut])
        assert_same_compiled(
            compile_trace(window, cache=False),
            compile_trace(Trace(records[cut // 2 : cut]), cache=False),
        )
        for name, expected in _reference_tables(interned).items():
            assert list(getattr(want.oracle, name)) == expected, name

    @settings(max_examples=100, deadline=None)
    @given(
        _random_traces(),
        st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)), max_size=6),
    )
    def test_accelerated_splice_equals_a_record_splice(self, trace, spans):
        regions, end = [], 0
        for gap, length in spans:
            start = end + gap
            if start + length > len(trace):
                break
            descriptor = TCADescriptor("acc", compute_latency=gap % 4, replaced_instructions=gap)
            regions.append(AcceleratableRegion(start, length, descriptor, dsts=(1,)))
            end = start + length
        program = Program(trace, regions)
        accelerated = program.accelerated()
        reference = record_splice(program)
        assert accelerated.instructions == reference.instructions
        assert accelerated.fingerprint() == reference.fingerprint()
        assert_same_compiled(
            compile_trace(accelerated, cache=False), compile_trace(reference, cache=False)
        )


class TestRowTemplates:
    def test_occurrences_read_their_own_fills(self):
        from repro.isa.trace import alu_record, load_record, row_template

        shared = alu_record(1, (2,))
        records, index = row_template([shared, None, shared, None])
        builder = TraceBuilder()
        fills = [(load_record(3, 64 * k), load_record(4, 64 * k + 8)) for k in range(3)]
        for pair in fills:
            builder.extend_rows(records, index, pair)
        trace = builder.build()
        expected = [r for a, b in fills for r in (shared, a, shared, b)]
        assert trace.instructions == tuple(expected)
        assert len(trace.rows.table) == 1 + 6  # the shared record once
        # The template's row run is built once, on its first occurrence.
        assert list(builder._templates) == [(id(records), id(index))]

    def test_any_index_over_records_and_fills(self):
        # Fills may be read more than once, records in any order, and
        # a records list is not cached.
        a, b = Instruction(OpClass.NOP), Instruction(OpClass.INT_ALU, dsts=(1,))
        fill = Instruction(OpClass.LOAD, dsts=(2,), addr=0x80)
        builder = TraceBuilder()
        builder.extend_rows([a, b], np.array([2, 1, 0, 2], dtype=np.int32), (fill,))
        builder.extend_rows((a, b), np.array([1, 1], dtype=np.int32))
        assert builder.build().instructions == (fill, b, a, fill, b, b)


class TestRowsView:
    def test_view_is_built_only_when_asked_for(self):
        program = workloads.generate_heap_program(workloads.HeapWorkloadSpec(slots=50))
        trace = program.accelerated()
        compiled = compile_trace(trace)
        simulate(trace, HIGH_PERF_SIM)
        trace.fingerprint()
        trace.stats()
        assert trace.rows._records is None
        assert compiled.instructions is trace.instructions
        assert trace.rows._records is not None

    def test_rows_share_records_and_index(self):
        builder = TraceBuilder()
        builder.independent_block(10, [1, 2])
        builder.load(3, 0x40)
        builder.chain(5, 4)
        rows = builder.build().rows
        # Two shared ALU records, one load, one chain record.
        assert len(rows.table) == 4
        assert rows.index.dtype == np.int32
        assert not rows.index.flags.writeable
        assert rows.index.tolist() == [0, 1] * 5 + [2] + [3] * 5

    def test_loaded_trace_has_one_row_per_record(self):
        builder = TraceBuilder()
        builder.chain(4, 1)
        builder.load(2, 0x80)
        loaded = round_trip(builder.build())
        assert len(loaded.rows.table) == len(loaded) == 5
        assert loaded.rows.index.tolist() == list(range(5))
        assert not loaded.rows.index.flags.writeable

    def test_rows_pickle_without_the_view(self):
        trace = Trace([Instruction(OpClass.NOP)] * 3)
        trace.instructions  # build the view
        clone = pickle.loads(pickle.dumps(trace.rows))
        assert clone._records is None
        assert clone.records == trace.instructions
        assert not clone.index.flags.writeable
