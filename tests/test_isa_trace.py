"""Unit tests for trace containers and builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import Instruction, MemRequest, OpClass, TCADescriptor
from repro.isa.trace import Trace, TraceBuilder


class TestTrace:
    def test_len_iter_getitem(self):
        insts = [Instruction(op=OpClass.NOP) for _ in range(5)]
        trace = Trace(insts, name="t")
        assert len(trace) == 5
        assert list(trace) == list(insts)
        assert trace[2].op is OpClass.NOP

    def test_repr(self):
        trace = Trace([], name="empty")
        assert "empty" in repr(trace)
        assert "n=0" in repr(trace)

    def test_concat(self):
        a = Trace([Instruction(op=OpClass.NOP)], name="a", metadata={"x": 1})
        b = Trace([Instruction(op=OpClass.NOP)] * 2, name="b", metadata={"y": 2})
        c = a.concat(b)
        assert len(c) == 3
        assert c.name == "a+b"
        assert c.metadata == {"x": 1, "y": 2}

    def test_stats_cached_returns_same_object(self):
        # stats() is lazily cached like fingerprint(): the second call
        # must return the identical TraceStats object, not a recompute.
        builder = TraceBuilder("cached")
        builder.independent_block(10, [0, 1])
        builder.branch(mispredicted=True)
        trace = builder.build()
        first = trace.stats()
        assert trace.stats() is first
        assert first.total == 11
        assert first.mispredicted_branches == 1

    def test_fingerprint_cached(self):
        trace = Trace([Instruction(op=OpClass.NOP)])
        first = trace.fingerprint()
        assert trace.fingerprint() is first

    def test_concat_does_not_inherit_cached_derived_data(self):
        a = Trace([Instruction(op=OpClass.INT_ALU, dsts=(0,))], name="a")
        b = Trace([Instruction(op=OpClass.LOAD, dsts=(1,), addr=64)], name="b")
        # Populate both inputs' caches before concatenating.
        fp_a, fp_b = a.fingerprint(), b.fingerprint()
        stats_a = a.stats()
        c = a.concat(b)
        assert c.fingerprint() != fp_a
        assert c.fingerprint() != fp_b
        assert c.stats() is not stats_a
        assert c.stats().total == 2
        # The concatenation fingerprints identically to a trace built
        # from the same combined instruction stream directly.
        fresh = Trace(list(a.instructions) + list(b.instructions), name="other")
        assert c.fingerprint() == fresh.fingerprint()

    def test_validate_register_bounds(self):
        trace = Trace([Instruction(op=OpClass.INT_ALU, dsts=(31,))])
        trace.validate(num_registers=32)
        with pytest.raises(ValueError, match="register"):
            trace.validate(num_registers=16)


class TestTraceStats:
    def test_basic_counts(self):
        builder = TraceBuilder("t")
        builder.alu(0)
        builder.load(1, 0x100)
        builder.store(1, 0x108)
        builder.branch(mispredicted=True)
        builder.nop()
        stats = builder.build().stats()
        assert stats.total == 5
        assert stats.by_class[OpClass.LOAD] == 1
        assert stats.by_class[OpClass.STORE] == 1
        assert stats.mispredicted_branches == 1
        assert stats.tca_invocations == 0

    def test_tca_accounting(self):
        builder = TraceBuilder("t")
        builder.independent_block(90, [0, 1])
        descriptor = TCADescriptor(
            name="x", compute_latency=3, replaced_instructions=10
        )
        builder.tca(descriptor)
        stats = builder.build().stats()
        assert stats.tca_invocations == 1
        assert stats.replaced_instructions == 10
        assert stats.baseline_instructions == 100
        assert stats.acceleratable_fraction == pytest.approx(0.1)
        assert stats.invocation_frequency == pytest.approx(0.01)

    def test_empty_trace_fractions(self):
        stats = Trace([]).stats()
        assert stats.invocation_frequency == 0.0
        assert stats.acceleratable_fraction == 0.0


class TestTraceBuilder:
    def test_chain_is_serial(self):
        builder = TraceBuilder("t")
        builder.chain(5, start_reg=3)
        trace = builder.build()
        assert len(trace) == 5
        for inst in trace:
            assert inst.srcs == (3,)
            assert inst.dsts == (3,)

    def test_independent_block_has_no_deps(self):
        builder = TraceBuilder("t")
        builder.independent_block(6, [0, 1, 2])
        for inst in builder.build():
            assert inst.srcs == ()

    def test_independent_block_requires_registers(self):
        with pytest.raises(ValueError):
            TraceBuilder("t").independent_block(3, [])

    def test_streaming_loads_addresses(self):
        builder = TraceBuilder("t")
        builder.streaming_loads(4, base_addr=0x1000, stride=64, dst_registers=[1])
        addrs = [inst.addr for inst in builder.build()]
        assert addrs == [0x1000, 0x1040, 0x1080, 0x10C0]

    def test_streaming_loads_requires_registers(self):
        with pytest.raises(ValueError):
            TraceBuilder("t").streaming_loads(2, 0, 8, [])

    def test_tca_over_range_chunks(self):
        builder = TraceBuilder("t")
        inst = builder.tca_over_range(
            "mma", compute_latency=8, read_ranges=[(0, 100)], write_ranges=[(512, 64)]
        )
        assert inst.tca is not None
        assert sum(r.size for r in inst.tca.reads) == 100
        assert all(r.size <= 64 for r in inst.tca.reads)
        assert sum(w.size for w in inst.tca.writes) == 64
        assert all(w.is_write for w in inst.tca.writes)

    def test_builder_length_tracks_emissions(self):
        builder = TraceBuilder("t")
        assert len(builder) == 0
        builder.nop()
        builder.alu(0)
        assert len(builder) == 2

    def test_metadata_carried_to_trace(self):
        builder = TraceBuilder("t", metadata={"k": "v"})
        trace = builder.build()
        assert trace.metadata["k"] == "v"

    def test_extend(self):
        builder = TraceBuilder("t")
        builder.extend([Instruction(op=OpClass.NOP)] * 3)
        assert len(builder) == 3

    def test_independent_block_uses_its_op(self):
        builder = TraceBuilder("t")
        builder.independent_block(4, [0, 1], op=OpClass.FP_MUL)
        trace = builder.build()
        assert [inst.op for inst in trace] == [OpClass.FP_MUL] * 4
        assert [inst.dsts for inst in trace] == [(0,), (1,), (0,), (1,)]


_registers = st.lists(st.integers(0, 63), max_size=3)
_compute_ops = st.sampled_from(
    [op for op in OpClass if op not in (OpClass.LOAD, OpClass.STORE, OpClass.TCA)]
)
_DESCRIPTOR = TCADescriptor(
    name="acc", compute_latency=5, reads=(MemRequest(0, 8),), replaced_instructions=3
)


class TestBuilderRecords:
    """The helpers build records without the constructor; same records."""

    @settings(max_examples=200, deadline=None)
    @given(
        helper=st.sampled_from(["alu", "load", "store", "branch", "nop", "tca"]),
        dst=st.integers(0, 63),
        srcs=_registers,
        op=_compute_ops,
        latency=st.one_of(st.none(), st.integers(0, 50)),
        addr=st.integers(0, 1 << 40),
        size=st.integers(1, 128),
        flags=st.tuples(st.booleans(), st.booleans()),
    )
    def test_helpers_match_the_constructor(
        self, helper, dst, srcs, op, latency, addr, size, flags
    ):
        builder = TraceBuilder("t")
        if helper == "alu":
            got = builder.alu(dst, srcs, op=op, latency=latency)
            want = Instruction(op=op, srcs=tuple(srcs), dsts=(dst,), latency=latency)
        elif helper == "load":
            got = builder.load(dst, addr, size, srcs=srcs)
            want = Instruction(
                op=OpClass.LOAD, srcs=tuple(srcs), dsts=(dst,), addr=addr, size=size
            )
        elif helper == "store":
            got = builder.store(dst, addr, size)
            want = Instruction(op=OpClass.STORE, srcs=(dst,), addr=addr, size=size)
        elif helper == "branch":
            got = builder.branch(srcs, mispredicted=flags[0], low_confidence=flags[1])
            want = Instruction(
                op=OpClass.BRANCH, srcs=tuple(srcs),
                mispredicted=flags[0], low_confidence=flags[1],
            )
        elif helper == "nop":
            got = builder.nop()
            want = Instruction(op=OpClass.NOP)
        else:
            got = builder.tca(_DESCRIPTOR, srcs=srcs, dsts=[dst])
            want = Instruction(
                op=OpClass.TCA, srcs=tuple(srcs), dsts=(dst,), tca=_DESCRIPTOR
            )
        assert type(got) is Instruction
        assert got == want
        assert repr(got) == repr(want)
        assert builder.build().instructions == (want,)

    @pytest.mark.parametrize(
        "emit, construct",
        [
            (
                lambda b: b.alu(1, (), op=OpClass.LOAD),
                lambda: Instruction(op=OpClass.LOAD, dsts=(1,)),
            ),
            (
                lambda b: b.alu(1, (), op=OpClass.STORE),
                lambda: Instruction(op=OpClass.STORE, dsts=(1,)),
            ),
            (
                lambda b: b.alu(1, (), op=OpClass.TCA),
                lambda: Instruction(op=OpClass.TCA, dsts=(1,)),
            ),
            (
                lambda b: b.alu(1, (), latency=-1),
                lambda: Instruction(op=OpClass.INT_ALU, dsts=(1,), latency=-1),
            ),
            (
                lambda b: b.load(1, 64, size=0),
                lambda: Instruction(op=OpClass.LOAD, dsts=(1,), addr=64, size=0),
            ),
            (
                lambda b: b.load(1, 64, size=-8),
                lambda: Instruction(op=OpClass.LOAD, dsts=(1,), addr=64, size=-8),
            ),
            (
                lambda b: b.store(1, 64, size=0),
                lambda: Instruction(op=OpClass.STORE, srcs=(1,), addr=64, size=0),
            ),
            (
                lambda b: b.store(1, 64, size=-1),
                lambda: Instruction(op=OpClass.STORE, srcs=(1,), addr=64, size=-1),
            ),
            (
                lambda b: b.tca(None),
                lambda: Instruction(op=OpClass.TCA),
            ),
        ],
    )
    def test_helpers_reject_what_the_constructor_rejects(self, emit, construct):
        with pytest.raises(ValueError) as expected:
            construct()
        builder = TraceBuilder("t")
        with pytest.raises(ValueError) as got:
            emit(builder)
        assert str(got.value) == str(expected.value)
        assert len(builder) == 0


#: Trace.fingerprint() of each generator's default program.  These key
#: the serve disk cache and the shared-memory trace store, so a change
#: to the instruction records or the generators must not move them.
GOLDEN_FINGERPRINTS = {
    "heap": (
        "bf11e46225ad0a729db3ca52e946f432b821a8222beb78bf2657cf347ec6d62f",
        "d75ae1bfc0d1763171ba207b4d47d572af9550d96f4c2eb46b1fcf2c2f33d0ea",
    ),
    "hashmap": (
        "9f28eee4fd9376340e02c1cde03f00721419a55406ff4b4e762bd9050f4db26d",
        "30ed0d716ef9af0b0843504ec4d8d5cea4c1976008cfdd0daabe12e816c4a262",
    ),
    "regex": (
        "a7b0f28714895ceffe3e78ba8d2f447ff772df79335e4423e4d8abe9f40b8634",
        "a0b44c9886d7b0cf4fc75f2c835566f704c944f1977d7c19fdf66fdfc0a70c78",
    ),
    "strings": (
        "d4e227350a1b967e1f1488a923a1ff87271dd5d52bd287c9ecbed5c7f0d5bbcc",
        "c914e7ed3d89e6526d7bb2258fb54417a74a1087a98f34e7a5e948069c364477",
    ),
    "synthetic": (
        "b86d1e2a4a88596a2eb85ee360f9bc839d3a6d0202575cc1b00959f7a77a04b4",
        "fe5ab79c08acf30c6b93d0e1cadce889a94b1ece99937f181c4eb3764c782e0b",
    ),
}


@pytest.mark.parametrize("generator", sorted(GOLDEN_FINGERPRINTS))
def test_default_program_fingerprints_are_pinned(generator):
    from repro import workloads

    spec, generate = {
        "heap": (workloads.HeapWorkloadSpec, workloads.generate_heap_program),
        "hashmap": (workloads.HashMapWorkloadSpec, workloads.generate_hashmap_program),
        "regex": (workloads.RegexWorkloadSpec, workloads.generate_regex_program),
        "strings": (workloads.StringWorkloadSpec, workloads.generate_string_program),
        "synthetic": (workloads.SyntheticSpec, workloads.generate_synthetic_program),
    }[generator]
    program = generate(spec())
    assert (
        program.baseline.fingerprint(),
        program.accelerated().fingerprint(),
    ) == GOLDEN_FINGERPRINTS[generator]
