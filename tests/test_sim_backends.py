"""Tests of the simulator's engine choice and C kernel (:mod:`repro.sim.backend`).

Three layers: engine selection (the kernel whenever it builds, the
Python loop when pinned as the oracle, when the kernel cannot build, or
when a tracer is attached), the construction bounds that make every run
representable in the kernel's int64 packing (each input the kernel once
handed back to the Python loop is now refused before a run starts), and
byte-identical equivalence of the compiled C kernel against the
pure-Python hot loop.  The ``c`` tests run whenever the kernel builds.
"""

import dataclasses
import json

import pytest

from repro.core.modes import TCAMode
from repro.isa.instructions import MAX_LATENCY, Instruction, OpClass, TCADescriptor
from repro.isa.trace import Trace, TraceBuilder
from repro.obs.tracer import PipelineTracer
from repro.sim import backend, compile as sim_compile
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
        sim = CoreSim(HIGH_PERF_SIM, CASES[0][1])
        level = sim.cache.l1
        sets, assoc = level.config.num_sets, level.config.assoc
        level.load_state({"3": [3 + sets, 3]})  # JSON-style index, two ways
        for snapshot, match in (
            ({sets: [sets]}, "outside"),
            ({0: [sets * i for i in range(assoc + 1)]}, "ways"),
            ({0: [sets, sets]}, "repeats"),
            ({0: [1]}, "foreign"),
            ({0: [-sets]}, "foreign"),
        ):
            with pytest.raises(ValueError, match=match):
                level.load_state(snapshot)
        with pytest.raises(ValueError, match="ways"):
            CoreSim(
                HIGH_PERF_SIM,
                CASES[0][1],
                cache_state={"l2": {0: list(range(0, 9 * 1024, 1024))}},
            )

    @needs_kernel
    def test_capacity_abort_raises_naming_the_array(self, monkeypatch):
        # The real kernel runs (dirtying its state block), then reports a
        # ready-array overflow: a sizing bug that must surface, not be
        # answered by another engine, and the dirty block is not pooled.
        compiled = compile_trace(CASES[1][1], cache=False)
        kernel = backend._call_c

        def run_then_abort(args):
            assert kernel(args) == backend.RC_OK
            args[-1][backend.ST_ERR_ARRAY] = 2
            return backend.RC_CAPACITY

        backend.set_backend("c")
        monkeypatch.setattr(backend, "_call_c", run_then_abort)
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
