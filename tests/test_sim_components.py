"""Unit tests for the seed engine's structural components."""

import pytest

from repro.isa.instructions import Instruction, OpClass
from repro.sim.config import SimConfig
from seed_engine import (
    DynInst,
    FUPool,
    IssueQueue,
    LoadStoreQueue,
    RedirectUnit,
    RenameTable,
    ReorderBuffer,
)


def dyn(seq: int, op: OpClass = OpClass.INT_ALU, **kwargs) -> DynInst:
    return DynInst(Instruction(op=op, **kwargs), seq)


class TestReorderBuffer:
    def test_fifo_order(self):
        rob = ReorderBuffer(4)
        a, b = dyn(0), dyn(1)
        rob.push(a)
        rob.push(b)
        assert rob.head() is a
        assert rob.pop_head() is a
        assert rob.head() is b

    def test_capacity(self):
        rob = ReorderBuffer(2)
        rob.push(dyn(0))
        rob.push(dyn(1))
        assert rob.full
        with pytest.raises(RuntimeError):
            rob.push(dyn(2))

    def test_empty(self):
        rob = ReorderBuffer(2)
        assert rob.empty
        assert rob.head() is None
        assert len(rob) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestIssueQueue:
    def test_capacity_tracking(self):
        iq = IssueQueue(2)
        iq.allocate()
        iq.allocate()
        assert iq.full
        iq.release()
        assert not iq.full
        assert iq.occupancy == 1

    def test_over_release_guarded(self):
        iq = IssueQueue(2)
        with pytest.raises(RuntimeError):
            iq.release()

    def test_ready_age_order(self):
        iq = IssueQueue(8)
        young, old = dyn(5), dyn(1)
        iq.mark_ready(young, ready_cycle=0)
        iq.mark_ready(old, ready_cycle=0)
        assert iq.pop_ready(0) is old
        assert iq.pop_ready(0) is young

    def test_ready_cycle_respected(self):
        iq = IssueQueue(8)
        iq.mark_ready(dyn(0), ready_cycle=5)
        assert iq.pop_ready(4) is None
        assert iq.next_ready_cycle() == 5
        assert iq.pop_ready(5) is not None

    def test_peek_ready_seq(self):
        iq = IssueQueue(8)
        assert iq.peek_ready_seq(0) is None
        iq.mark_ready(dyn(3), 0)
        assert iq.peek_ready_seq(0) == 3
        assert iq.has_ready(0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            IssueQueue(-1)


class TestLoadStoreQueue:
    def test_capacity(self):
        lsq = LoadStoreQueue(1, 1)
        lsq.allocate_load()
        assert lsq.lq_full
        lsq.release_load()
        assert not lsq.lq_full
        lsq.allocate_store()
        assert lsq.sq_full

    def test_over_release_guarded(self):
        lsq = LoadStoreQueue(1, 1)
        with pytest.raises(RuntimeError):
            lsq.release_load()
        with pytest.raises(RuntimeError):
            lsq.release_store()

    def test_conflicting_writer_youngest_older(self):
        lsq = LoadStoreQueue(8, 8)
        s1 = dyn(1, OpClass.STORE, srcs=(0,), addr=0x100, size=8)
        s2 = dyn(3, OpClass.STORE, srcs=(0,), addr=0x100, size=8)
        lsq.register_writer(s1, ((0x100, 8),))
        lsq.register_writer(s2, ((0x100, 8),))
        # load at seq 5 sees the *youngest* older conflicting writer: s2
        assert lsq.youngest_conflicting_writer(5, 0x100, 8) is s2
        # load at seq 2 only sees s1
        assert lsq.youngest_conflicting_writer(2, 0x100, 8) is s1

    def test_completed_writers_ignored(self):
        lsq = LoadStoreQueue(8, 8)
        store = dyn(1, OpClass.STORE, srcs=(0,), addr=0x100, size=8)
        lsq.register_writer(store, ((0x100, 8),))
        store.completed = True
        assert lsq.youngest_conflicting_writer(5, 0x100, 8) is None

    def test_non_overlapping_ranges_ignored(self):
        lsq = LoadStoreQueue(8, 8)
        store = dyn(1, OpClass.STORE, srcs=(0,), addr=0x100, size=8)
        lsq.register_writer(store, ((0x100, 8),))
        assert lsq.youngest_conflicting_writer(5, 0x108, 8) is None
        assert lsq.youngest_conflicting_writer(5, 0x0F9, 8) is not None

    def test_deregister(self):
        lsq = LoadStoreQueue(8, 8)
        store = dyn(1, OpClass.STORE, srcs=(0,), addr=0x100, size=8)
        lsq.register_writer(store, ((0x100, 8),))
        lsq.deregister_writer(store)
        assert lsq.youngest_conflicting_writer(5, 0x100, 8) is None


class TestRenameTable:
    def test_producer_tracking(self):
        table = RenameTable()
        producer = dyn(0, dsts=(3,))
        table.set_producer(3, producer)
        assert table.producer_of(3) is producer

    def test_completed_producer_cleared_lazily(self):
        table = RenameTable()
        producer = dyn(0, dsts=(3,))
        table.set_producer(3, producer)
        producer.completed = True
        assert table.producer_of(3) is None
        assert table.producer_of(3) is None  # stays cleared

    def test_clear_if_producer(self):
        table = RenameTable()
        old, new = dyn(0, dsts=(3,)), dyn(1, dsts=(3,))
        table.set_producer(3, old)
        table.set_producer(3, new)
        table.clear_if_producer(3, old)  # old is no longer youngest: no-op
        assert table.producer_of(3) is new

    def test_unknown_register_ready(self):
        assert RenameTable().producer_of(7) is None


class TestFUPool:
    def test_port_budget_per_cycle(self):
        pool = FUPool(SimConfig())
        pool.new_cycle(0)
        ports = 0
        while pool.try_issue(OpClass.INT_ALU) is not None:
            ports += 1
        assert ports == 4  # default 4-wide ALU complement
        pool.new_cycle(1)
        assert pool.try_issue(OpClass.INT_ALU) is not None

    def test_latency_returned(self):
        pool = FUPool(SimConfig())
        pool.new_cycle(0)
        assert pool.try_issue(OpClass.FP_MUL) == 4

    def test_latency_override(self):
        pool = FUPool(SimConfig())
        pool.new_cycle(0)
        assert pool.try_issue(OpClass.INT_ALU, latency_override=7) == 7

    def test_non_pipelined_divider_blocks(self):
        pool = FUPool(SimConfig())
        pool.new_cycle(0)
        latency = pool.try_issue(OpClass.INT_DIV)
        assert latency == 12
        pool.new_cycle(1)
        assert pool.try_issue(OpClass.INT_DIV) is None  # busy until cycle 12
        pool.new_cycle(12)
        assert pool.try_issue(OpClass.INT_DIV) is not None


class TestRedirectUnit:
    def test_blocks_until_resolution_plus_penalty(self):
        unit = RedirectUnit(penalty=5)
        branch = dyn(0, OpClass.BRANCH, mispredicted=True)
        unit.block_on(branch)
        assert unit.active
        assert unit.resume_cycle() is None  # branch unresolved
        assert not unit.try_release(100)
        branch.complete_cycle = 10
        assert unit.resume_cycle() == 15
        assert not unit.try_release(14)
        assert unit.try_release(15)
        assert not unit.active
