"""Tests of the simulator's engine choice and C kernel (:mod:`repro.sim.backend`).

Three layers: engine selection (the kernel whenever it builds, the
Python loop when pinned as the oracle, when the kernel cannot build, or
when a tracer is attached), the construction bounds that make every run
representable in the kernel's int64 packing (each input the kernel once
handed back to the Python loop is now refused before a run starts), and
byte-identical equivalence of the compiled C kernel against the
pure-Python hot loop.  The ``c`` tests run whenever the kernel builds.
"""

import ctypes
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.modes import TCAMode
from repro.isa.instructions import MAX_LATENCY, Instruction, OpClass, TCADescriptor
from repro.isa.trace import Trace, TraceBuilder
from repro.obs.tracer import PipelineTracer
from repro.sim import backend, compile as sim_compile, sample
from repro.sim.cache import CacheConfig, CacheHierarchy
from repro.sim.compile import compile_trace
from repro.sim.config import (
    HIGH_PERF_SIM,
    LOW_PERF_SIM,
    MAX_CYCLES,
    FunctionalUnitConfig,
)
from repro.sim.core import CoreSim, CycleLimitError, DeadlockError
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program
from repro.workloads.synthetic import SyntheticSpec, generate_synthetic_program
from cache_residency import residency, snapshot_residency

#: Whether the C kernel builds here (a ``cc`` binary alone is not enough).
HAS_KERNEL = backend.effective_backend() == "c"
needs_kernel = pytest.mark.skipif(
    not HAS_KERNEL, reason="the C kernel does not build here"
)

MODES = TCAMode.all_modes()


@pytest.fixture(autouse=True)
def _restore_backend_selection():
    """Leave the module-level backend selection exactly as we found it."""
    previous = backend._requested
    yield
    backend.set_backend(previous)


def _cases():
    heap = generate_heap_program(
        HeapWorkloadSpec(slots=48, call_probability=0.3, seed=7)
    )
    synth = generate_synthetic_program(
        SyntheticSpec(total_instructions=900, num_invocations=3)
    )
    return [
        ("heap-base", heap.baseline, heap.baseline.metadata.get("warm_ranges")),
        ("heap-accel", heap.accelerated(), heap.baseline.metadata.get("warm_ranges")),
        ("synth-accel", synth.accelerated(), None),
    ]


CASES = _cases()


def _dump(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=False)


def _run(backend_name, config, trace, warm_ranges=None):
    with backend.use_backend(backend_name):
        return CoreSim(config, trace, warm_ranges=warm_ranges).run()


# =================================================================== selection


class TestSelection:
    def test_set_backend_rejects_unknown_names(self):
        # Includes the retired auto/numba/interpreted/cython selectors.
        for name in ("auto", "fortran", "numba", "interpreted", "cython", "C"):
            with pytest.raises(ValueError, match="unknown sim backend"):
                backend.set_backend(name)

    def test_environment_does_not_select_the_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
        backend.set_backend(None)
        assert backend.effective_backend() == ("c" if HAS_KERNEL else "python")

    def test_use_backend_restores_on_exit(self):
        backend.set_backend("python")
        with backend.use_backend(None):
            assert backend.effective_backend() == ("c" if HAS_KERNEL else "python")
        assert backend.effective_backend() == "python"

    def test_python_backend_resolves_to_no_impl(self):
        backend.set_backend("python")
        assert backend.effective_backend() == "python"

    def test_auto_prefers_a_native_backend_when_available(self):
        backend.set_backend(None)
        assert backend.effective_backend() == ("c" if HAS_KERNEL else "python")

    @needs_kernel
    def test_c_backend_resolves_when_compiler_present(self):
        backend.set_backend("c")
        assert backend.effective_backend() == "c"

    def test_no_compiler_selects_the_python_loop(self, monkeypatch, tmp_path):
        # A host whose compiler fails (CC=false) and whose kernel cache is
        # empty: pinning "c" raises, and the default is the Python loop.
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(backend, "_C_FUNC", None)
        with pytest.raises(RuntimeError, match="C kernel build failed"):
            backend.set_backend("c")
        backend.set_backend(None)
        assert backend.effective_backend() == "python"
        assert backend.try_run_native(CoreSim(HIGH_PERF_SIM, CASES[0][1])) is None

    def test_tracer_runs_the_python_loop(self, monkeypatch):
        def refuse(sim):
            raise AssertionError("a traced run reached the kernel")

        monkeypatch.setattr(backend, "try_run_native", refuse)
        tracer = PipelineTracer()
        stats = CoreSim(HIGH_PERF_SIM, CASES[2][1], tracer=tracer).run()
        assert stats.instructions == len(CASES[2][1])
        assert tracer.instruction_events()

    def test_packed_trace_is_memoized_on_the_compiled_trace(self):
        compiled = compile_trace(CASES[0][1])
        assert backend.get_packed(compiled) is backend.get_packed(compiled)


# ====================================================== representability guards


class TestNativeGuards:
    """Inputs the kernel once handed back to the Python loop are refused
    at construction, so ``try_run_native`` never declines a run."""

    def test_python_backend_never_runs_native(self):
        backend.set_backend("python")
        assert backend.try_run_native(CoreSim(HIGH_PERF_SIM, CASES[0][1])) is None

    def test_when_packing_bound_is_refused_at_construction(self):
        replace = dataclasses.replace
        replace(HIGH_PERF_SIM, max_cycles=MAX_CYCLES, mem_latency=MAX_LATENCY)
        for overrides in (
            {"max_cycles": MAX_CYCLES + 1},
            {"mem_latency": MAX_LATENCY + 1},
            {"l1d_latency": MAX_LATENCY + 1},
            {"redirect_penalty": MAX_LATENCY + 1},
        ):
            with pytest.raises(ValueError, match=next(iter(overrides))):
                replace(HIGH_PERF_SIM, **overrides)
        with pytest.raises(ValueError, match="latency"):
            FunctionalUnitConfig(ports=1, latency=MAX_LATENCY + 1)
        with pytest.raises(ValueError, match="latency override"):
            Instruction(OpClass.INT_ALU, latency=MAX_LATENCY + 1)
        with pytest.raises(ValueError, match="latency override"):
            TraceBuilder("t").alu(1, latency=MAX_LATENCY + 1)
        with pytest.raises(ValueError, match="compute_latency"):
            TCADescriptor("acc", compute_latency=MAX_LATENCY + 1)

    def test_trace_length_bound_is_refused_at_construction(self, monkeypatch):
        monkeypatch.setattr(sim_compile, "MAX_TRACE_LENGTH", 8)
        compile_trace(Trace([Instruction(OpClass.NOP)] * 7), cache=False)
        with pytest.raises(ValueError, match="exceeds the 7 limit"):
            compile_trace(Trace([Instruction(OpClass.NOP)] * 8), cache=False)

    def test_malformed_cache_snapshot_is_refused(self):
        # The kernel indexes residency by each level's block: one whose
        # shape or dtype differs, or whose set count exceeds the ways,
        # is refused before a run starts.
        trace = CASES[0][1]
        l1, l2 = CoreSim(HIGH_PERF_SIM, trace).cache.snapshot()
        over_full = l2.copy()
        over_full[-1] = HIGH_PERF_SIM.l2_assoc + 1
        for cache_state, match in (
            ((l1[:-1], l2), "shape"),
            ((l1, l2.astype(np.int32)), "int64"),
            ((l1, over_full), "set count"),
        ):
            with pytest.raises(ValueError, match=match):
                CoreSim(HIGH_PERF_SIM, trace, cache_state=cache_state)
        CoreSim(HIGH_PERF_SIM, trace, cache_state=(l1, l2)).run()

    @needs_kernel
    def test_capacity_abort_raises_naming_the_array(self, monkeypatch):
        # The real kernel runs (dirtying its state block), then reports a
        # ready-array overflow: a sizing bug that must surface, not be
        # answered by another engine, and the dirty block is not pooled.
        # The kernel takes array addresses; its stats array comes last.
        compiled = compile_trace(CASES[1][1], cache=False)
        backend.set_backend("c")
        kernel = backend._C_FUNC

        def run_then_abort(*pointers):
            assert kernel(*pointers) == backend.RC_OK
            stats = (ctypes.c_int64 * backend.ST_LEN).from_address(pointers[-1])
            stats[backend.ST_ERR_ARRAY] = 2
            return backend.RC_CAPACITY

        monkeypatch.setattr(backend, "_C_FUNC", run_then_abort)
        with pytest.raises(RuntimeError, match="'ready' scratch array"):
            CoreSim(HIGH_PERF_SIM, compiled).run()
        assert backend.get_packed(compiled)._pool == []

    def test_watchdog_maps_to_deadlock_error(self):
        config = dataclasses.replace(HIGH_PERF_SIM, max_cycles=40)
        engines = ["python", "c"] if HAS_KERNEL else ["python"]
        for engine in engines:
            with pytest.raises(CycleLimitError, match="max_cycles=40"):
                _run(engine, config, CASES[0][1])
        assert issubclass(CycleLimitError, DeadlockError)

    @needs_kernel
    def test_extreme_bounds_match_the_python_loop(self):
        # Every latency at MAX_LATENCY and the largest max_cycles: the
        # kernel's packing must still order events like the Python loop.
        builder = TraceBuilder("extreme")
        builder.load(1, 0x1000)
        builder.alu(2, (1,), latency=MAX_LATENCY)
        builder.tca_over_range(
            "acc", MAX_LATENCY, read_ranges=[(0x2000, 64)], srcs=(2,)
        )
        builder.branch((2,), mispredicted=True)
        builder.alu(3, (2,))
        config = dataclasses.replace(
            LOW_PERF_SIM,
            max_cycles=MAX_CYCLES,
            l1d_latency=MAX_LATENCY,
            l2_latency=MAX_LATENCY,
            mem_latency=MAX_LATENCY,
            redirect_penalty=MAX_LATENCY,
            commit_latency=MAX_LATENCY,
            forward_latency=MAX_LATENCY,
        )
        trace = builder.build()
        expected = _run("python", config, trace)
        assert expected.cycles > 4 * MAX_LATENCY
        assert _dump(_run("c", config, trace)) == _dump(expected)


# ================================================================ kernel warming


def _hierarchy(l1_geometry, l2_geometry):
    """A hierarchy of the given (sets, ways) per level, 64-byte lines,
    with non-zero counters that warming must leave untouched."""
    (l1_sets, l1_ways), (l2_sets, l2_ways) = l1_geometry, l2_geometry
    cache = CacheHierarchy(
        CacheConfig(l1_sets * l1_ways * 64, l1_ways, 2),
        CacheConfig(l2_sets * l2_ways * 64, l2_ways, 8),
        50,
    )
    cache.l1.stats.accesses, cache.l1.stats.misses = 7, 3
    cache.l2.stats.accesses, cache.l2.stats.misses = 3, 1
    return cache


def _counters(cache):
    return (
        cache.l1.stats.accesses, cache.l1.stats.misses,
        cache.l2.stats.accesses, cache.l2.stats.misses, cache.prefetches,
    )


_GEOMETRY = st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]))


@needs_kernel
@settings(max_examples=80, deadline=None)
@given(
    l1=_GEOMETRY,
    l2=st.tuples(st.sampled_from([1, 4]), st.sampled_from([1, 2, 8])),
    # Few distinct tags: sets collide and evict constantly.  Negative
    # tags come from warm ranges below address 0.
    slices=st.lists(
        st.lists(st.integers(-6, 40), max_size=60), min_size=1, max_size=3
    ),
    snapshot=st.none() | st.lists(st.integers(0, 40), max_size=40),
)
def test_kernel_warming_equals_python_warm_lines(l1, l2, slices, snapshot):
    python, kernel = _hierarchy(l1, l2), _hierarchy(l1, l2)
    if snapshot is not None:
        seed = _hierarchy(l1, l2)
        seed.warm_lines([tag * 64 for tag in snapshot])
        python.adopt(seed.snapshot())
        kernel.adopt(seed.snapshot())
    for tags in slices:  # consecutive warms, as between sampled boundaries
        lines = [tag * 64 for tag in tags]
        python.warm_lines(lines)
        with backend.use_backend("c"):
            backend.warm(kernel, np.array(lines, dtype=np.int64))
        assert residency(kernel) == residency(python)
    assert kernel.l1._sets is None and kernel.l2._sets is None  # no lists built
    assert _counters(kernel) == _counters(python) == (7, 3, 3, 1, 0)
    # The list form built from the kernel's arrays behaves identically.
    for tag in range(-6, 41):
        assert kernel.l1.contains(tag * 64) == python.l1.contains(tag * 64)


@needs_kernel
def test_copies_of_a_kernel_warmed_hierarchy_own_their_residency():
    # A copy must not share (or point at) the original's kernel arrays.
    import copy
    import pickle

    cache = _hierarchy((4, 2), (4, 2))
    with backend.use_backend("c"):
        backend.warm(cache, np.arange(0, 64 * 20, 64, dtype=np.int64))
        state = residency(cache)
        for clone in (copy.deepcopy(cache), pickle.loads(pickle.dumps(cache))):
            assert residency(clone) == state
            backend.warm(clone, np.arange(64 * 40, 64 * 60, 64, dtype=np.int64))
            assert residency(clone) != state
            assert residency(cache) == state


@pytest.mark.parametrize("case", CASES, ids=[label for label, _, _ in CASES])
def test_program_order_lines_follow_the_oracle_tables(case):
    # Per instruction: load lines, each TCA read's lines, commit writes.
    compiled = compile_trace(case[1])
    tables = compiled.oracle
    expected, starts = [], [0]
    for i in range(compiled.length):
        expected += tables.mem_lines[i] or ()
        for read in tables.tca_read_lines[i] or ():
            expected += read
        expected += tables.commit_write_lines[i] or ()
        starts.append(len(expected))
    lines, line_starts = sample._program_order_lines(compiled)
    assert lines.tolist() == expected
    assert line_starts.tolist() == starts


@needs_kernel
@pytest.mark.parametrize("case", CASES, ids=[label for label, _, _ in CASES])
def test_boundary_snapshots_match_on_both_engines(case):
    _, trace, warm_ranges = case
    compiled = compile_trace(trace)
    n = compiled.length
    boundaries = [0, n // 5, n // 5, n // 2, n]
    snapshots = {}
    for engine in ("python", "c"):
        with backend.use_backend(engine):
            snapshots[engine] = [
                snapshot_residency(snapshot, LOW_PERF_SIM)
                for snapshot in sample._boundary_cache_states(
                    compiled, LOW_PERF_SIM, boundaries, warm_ranges
                )
            ]
    assert len(snapshots["c"]) == len(boundaries)
    assert snapshots["c"] == snapshots["python"]


@needs_kernel
def test_kernel_segment_runs_adopt_a_snapshot_without_lists():
    # A segment run adopts the snapshot's blocks as the kernel's arrays:
    # no per-set list is built, and the kernel writes a private copy, so
    # runs sharing one snapshot leave it byte-unchanged.
    _, trace, warm_ranges = CASES[0]
    compiled = compile_trace(trace)
    n = compiled.length
    (snapshot,) = sample._boundary_cache_states(
        compiled, LOW_PERF_SIM, [n // 2], warm_ranges
    )
    before = [block.tobytes() for block in snapshot]
    left = []
    with backend.use_backend("c"):
        for stop in (n, n // 2 + 1):
            sim = CoreSim(
                LOW_PERF_SIM, compiled, start=n // 2, stop=stop, cache_state=snapshot
            )
            assert sim.cache.l1._sets is None and sim.cache.l2._sets is None
            sim.run()
            assert sim.cache.l1._sets is None and sim.cache.l2._sets is None
            left.append(residency(sim.cache))
    assert left[0] != snapshot_residency(snapshot, LOW_PERF_SIM)  # it wrote its copy
    assert [block.tobytes() for block in snapshot] == before


# ================================================================= equivalence


@needs_kernel
class TestCEquivalence:
    """Full matrix on the compiled C kernel (fast enough to afford it)."""

    @pytest.mark.parametrize("config_name", ["high", "low"])
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize("case", CASES, ids=[label for label, _, _ in CASES])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_matches_python(self, config_name, mode, case, warm):
        label, trace, warm_ranges = case
        if warm and not warm_ranges:
            pytest.skip(f"{label} has no warm ranges")
        base = HIGH_PERF_SIM if config_name == "high" else LOW_PERF_SIM
        config = dataclasses.replace(base, tca_mode=mode)
        ranges = warm_ranges if warm else None
        expected = _run("python", config, trace, ranges)
        actual = _run("c", config, trace, ranges)
        assert _dump(actual) == _dump(expected), label

    def test_repeated_runs_reuse_pooled_state(self):
        _, trace, _ = CASES[0]
        compiled = compile_trace(trace)
        with backend.use_backend("c"):
            first = CoreSim(HIGH_PERF_SIM, compiled).run()
            second = CoreSim(HIGH_PERF_SIM, compiled).run()
        assert _dump(first) == _dump(second)
        assert backend.get_packed(compiled)._pool  # state block returned


# ============================================================ row layout


def _repeated_row():
    """One load record, 20k times: a one-row table read through ``row``."""
    from repro.isa.trace import load_record

    builder = TraceBuilder("one-row")
    builder.repeat((load_record(1, 0x4000, 8, (1,)),), 20_000)
    return builder.build()


def _loaded(trace):
    """``trace`` written and read back through ``trace_io`` (identity rows)."""
    import io

    from repro.isa.trace_io import dump_trace, load_trace_stream

    text = io.StringIO()
    dump_trace(trace, text)
    text.seek(0)
    return load_trace_stream(text)


@needs_kernel
class TestRowLayoutOnTheKernel:
    """The kernel reads row facts through ``row[k]``; every row layout
    must simulate exactly as the Python loop does."""

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_one_row_repeated(self, mode):
        trace = _repeated_row()
        assert len(trace.rows.table) == 1
        config = dataclasses.replace(HIGH_PERF_SIM, tca_mode=mode)
        assert _dump(_run("c", config, trace)) == _dump(_run("python", config, trace))

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_identity_rows_from_trace_io(self, mode):
        _, trace, warm_ranges = CASES[1]
        loaded = _loaded(trace)
        assert len(loaded.rows.table) == len(loaded)
        config = dataclasses.replace(LOW_PERF_SIM, tca_mode=mode)
        got = _run("c", config, loaded, warm_ranges)
        assert _dump(got) == _dump(_run("python", config, loaded, warm_ranges))
        assert _dump(got) == _dump(_run("c", config, trace, warm_ranges))

    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    def test_regions_sharing_one_tca_row(self, mode):
        heap = generate_heap_program(HeapWorkloadSpec(slots=120, call_probability=0.4, seed=4))
        trace = heap.accelerated()
        tca_rows = [r for r in trace.rows.table if r.op is OpClass.TCA]
        assert len(tca_rows) <= 2 < heap.num_invocations
        warm_ranges = heap.baseline.metadata["warm_ranges"]
        config = dataclasses.replace(HIGH_PERF_SIM, tca_mode=mode)
        got = _run("c", config, trace, warm_ranges)
        assert _dump(got) == _dump(_run("python", config, trace, warm_ranges))

    def test_windows_starting_mid_template(self):
        # The synthetic mix is one 4,760-instruction template repeated;
        # windows start inside a repetition and cut through it.
        trace = generate_synthetic_program(
            SyntheticSpec(total_instructions=12_000, num_invocations=4, region_size=100)
        ).baseline
        assert len(trace.rows.compact().table) < len(trace) // 2
        windows = [(7, 611), (4_700, 5_300), (9_600, 12_000)]
        runs = {}
        for engine in ("python", "c"):
            with backend.use_backend(engine):
                runs[engine] = [
                    _dump(stats)
                    for stats in sample.simulate_segments(trace, LOW_PERF_SIM, windows)
                ]
        assert runs["c"] == runs["python"]
