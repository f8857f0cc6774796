"""Unit tests for the compile-once trace pipeline (:mod:`repro.sim.compile`)."""

import json
import pickle
import shutil

import pytest

from repro.core.modes import TCAMode
from repro.isa.trace import TraceBuilder
from repro.sim.compile import CompiledTrace, compile_trace, warm_lines
from repro.sim.config import HIGH_PERF_SIM
from repro.sim.core import CoreSim
from repro.sim.simulator import simulate, simulate_modes
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program

HAS_CC = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


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
        assert compiled.source is trace


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

    @pytest.mark.skipif(not HAS_CC, reason="no C compiler on this host")
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
