"""Unit tests for the instruction/micro-op vocabulary."""

import pickle

import pytest

from repro.isa.instructions import (
    CACHE_LINE_BYTES,
    MAX_TCA_CHUNK_BYTES,
    Instruction,
    MemRequest,
    OpClass,
    TCADescriptor,
    chunk_memory_range,
)


class TestOpClass:
    def test_memory_classification(self):
        assert OpClass.LOAD.is_memory
        assert OpClass.STORE.is_memory
        assert not OpClass.INT_ALU.is_memory
        assert not OpClass.TCA.is_memory

    def test_compute_classification(self):
        assert OpClass.INT_ALU.is_compute
        assert OpClass.FP_MUL.is_compute
        assert OpClass.INT_DIV.is_compute
        assert not OpClass.LOAD.is_compute
        assert not OpClass.BRANCH.is_compute
        assert not OpClass.TCA.is_compute

    def test_line_constant_matches_chunk_limit(self):
        assert CACHE_LINE_BYTES == MAX_TCA_CHUNK_BYTES == 64


class TestMemRequest:
    def test_basic_properties(self):
        req = MemRequest(addr=100, size=8)
        assert req.end == 108
        assert not req.is_write

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError, match="size"):
            MemRequest(addr=0, size=0)

    def test_rejects_oversized(self):
        with pytest.raises(ValueError, match="64"):
            MemRequest(addr=0, size=65)

    def test_rejects_negative_addr(self):
        with pytest.raises(ValueError, match="addr"):
            MemRequest(addr=-8, size=8)

    def test_overlap_detection(self):
        a = MemRequest(0, 16)
        b = MemRequest(8, 16)
        c = MemRequest(16, 8)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)  # [0,16) vs [16,24): adjacent, no overlap

    def test_overlaps_range(self):
        req = MemRequest(64, 32)
        assert req.overlaps_range(90, 8)
        assert not req.overlaps_range(96, 8)
        assert not req.overlaps_range(0, 64)
        assert req.overlaps_range(0, 65)


class TestChunkMemoryRange:
    def test_small_range_single_chunk(self):
        chunks = chunk_memory_range(0, 32)
        assert chunks == (MemRequest(0, 32),)

    def test_zero_size_yields_nothing(self):
        assert chunk_memory_range(100, 0) == ()

    def test_exact_coverage(self):
        chunks = chunk_memory_range(10, 200)
        assert chunks[0].addr == 10
        assert sum(c.size for c in chunks) == 200
        assert chunks[-1].end == 210
        # chunks are contiguous
        for left, right in zip(chunks, chunks[1:]):
            assert left.end == right.addr

    def test_alignment_splits_at_64(self):
        chunks = chunk_memory_range(60, 16)
        assert [(c.addr, c.size) for c in chunks] == [(60, 4), (64, 12)]

    def test_every_chunk_within_limit(self):
        for chunk in chunk_memory_range(3, 1000):
            assert 1 <= chunk.size <= MAX_TCA_CHUNK_BYTES

    def test_chunks_do_not_cross_lines(self):
        for chunk in chunk_memory_range(17, 500):
            assert chunk.addr // 64 == (chunk.end - 1) // 64

    def test_write_flag_propagates(self):
        chunks = chunk_memory_range(0, 128, is_write=True)
        assert all(c.is_write for c in chunks)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_memory_range(0, -1)

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError):
            chunk_memory_range(0, 10, chunk=0)
        with pytest.raises(ValueError):
            chunk_memory_range(0, 10, chunk=128)


class TestTCADescriptor:
    def test_byte_accounting(self):
        descriptor = TCADescriptor(
            name="t",
            compute_latency=4,
            reads=chunk_memory_range(0, 96),
            writes=chunk_memory_range(256, 32, is_write=True),
        )
        assert descriptor.read_bytes == 96
        assert descriptor.write_bytes == 32

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            TCADescriptor(name="t", compute_latency=-1)

    def test_rejects_miscategorized_requests(self):
        with pytest.raises(ValueError, match="read request"):
            TCADescriptor(
                name="t", compute_latency=1, reads=(MemRequest(0, 8, is_write=True),)
            )
        with pytest.raises(ValueError, match="write request"):
            TCADescriptor(
                name="t", compute_latency=1, writes=(MemRequest(0, 8, is_write=False),)
            )

    def test_overlap_queries(self):
        descriptor = TCADescriptor(
            name="t",
            compute_latency=1,
            reads=(MemRequest(0, 64),),
            writes=(MemRequest(128, 64, is_write=True),),
        )
        assert descriptor.reads_overlap_range(32, 8)
        assert not descriptor.reads_overlap_range(64, 8)
        assert descriptor.writes_overlap_range(128, 1)
        assert not descriptor.writes_overlap_range(0, 128)

    def test_rejects_negative_replaced(self):
        with pytest.raises(ValueError):
            TCADescriptor(name="t", compute_latency=1, replaced_instructions=-1)


class TestInstruction:
    def test_memory_requires_addr(self):
        with pytest.raises(ValueError, match="addr"):
            Instruction(op=OpClass.LOAD)

    def test_tca_requires_descriptor(self):
        with pytest.raises(ValueError, match="TCADescriptor"):
            Instruction(op=OpClass.TCA)

    def test_non_tca_rejects_descriptor(self):
        descriptor = TCADescriptor(name="t", compute_latency=1)
        with pytest.raises(ValueError, match="non-TCA"):
            Instruction(op=OpClass.INT_ALU, tca=descriptor)

    def test_mispredict_only_on_branches(self):
        with pytest.raises(ValueError, match="BRANCH"):
            Instruction(op=OpClass.INT_ALU, mispredicted=True)
        inst = Instruction(op=OpClass.BRANCH, mispredicted=True)
        assert inst.mispredicted

    def test_is_tca(self):
        descriptor = TCADescriptor(name="t", compute_latency=1)
        assert Instruction(op=OpClass.TCA, tca=descriptor).is_tca
        assert not Instruction(op=OpClass.NOP).is_tca

    def test_zero_size_memory_rejected(self):
        with pytest.raises(ValueError, match="size"):
            Instruction(op=OpClass.STORE, srcs=(1,), addr=0, size=0)

    def test_negative_latency_override_rejected(self):
        with pytest.raises(ValueError, match="latency"):
            Instruction(op=OpClass.INT_ALU, latency=-2)


class TestInstructionRecord:
    def test_fields_defaults_and_repr(self):
        inst = Instruction(op=OpClass.LOAD, srcs=(1,), dsts=(2,), addr=64, size=4)
        assert Instruction._fields == (
            "op", "srcs", "dsts", "addr", "size",
            "mispredicted", "low_confidence", "tca", "latency",
        )
        assert Instruction(OpClass.NOP) == (
            OpClass.NOP, (), (), None, 8, False, False, None, None
        )
        assert repr(inst) == (
            "Instruction(op=<OpClass.LOAD: 'load'>, srcs=(1,), dsts=(2,), "
            "addr=64, size=4, mispredicted=False, low_confidence=False, "
            "tca=None, latency=None)"
        )

    def test_attributes_cannot_be_set(self):
        inst = Instruction(op=OpClass.INT_ALU, dsts=(1,))
        with pytest.raises(AttributeError):
            inst.latency = 3
        with pytest.raises(AttributeError):
            inst.extra = 1

    def test_pickle_round_trip(self):
        descriptor = TCADescriptor(
            name="t", compute_latency=4, reads=chunk_memory_range(0, 96)
        )
        for inst in (
            Instruction(op=OpClass.TCA, srcs=(1,), dsts=(2,), tca=descriptor),
            Instruction(op=OpClass.BRANCH, mispredicted=True, low_confidence=True),
            Instruction(op=OpClass.STORE, srcs=(3,), addr=128, size=16),
        ):
            clone = pickle.loads(pickle.dumps(inst))
            assert type(clone) is Instruction
            assert clone == inst
            assert clone.is_tca == inst.is_tca
