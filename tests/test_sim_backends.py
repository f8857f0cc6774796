"""Tests of the selectable sim backends (:mod:`repro.sim.backend`).

Three layers: selection semantics (environment parsing, programmatic
overrides, the availability-fallback chain), the representability
guards that route unsupported runs back to the Python oracle, and
byte-identical equivalence of the compiled C kernel against the
pure-Python hot loop.  The ``c`` tests run whenever a system C compiler
is present.
"""

import dataclasses
import json
import shutil

import pytest

from repro.core.modes import TCAMode
from repro.sim import backend
from repro.sim.compile import compile_trace
from repro.sim.config import HIGH_PERF_SIM, LOW_PERF_SIM
from repro.sim.core import CoreSim, DeadlockError
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program
from repro.workloads.synthetic import SyntheticSpec, generate_synthetic_program

HAS_CC = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))

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
    def test_env_request_parses_valid_values(self, monkeypatch):
        for name in backend.VALID_BACKENDS:
            monkeypatch.setenv("REPRO_SIM_BACKEND", name.upper() + " ")
            assert backend._env_request() == name

    def test_unknown_env_value_warns_and_uses_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "fortran")
        backend.set_backend(None)
        with pytest.warns(RuntimeWarning, match="unknown REPRO_SIM_BACKEND"):
            assert backend.requested_backend() == "auto"

    def test_set_backend_rejects_unknown_names(self):
        # Includes the retired numba/interpreted/cython selectors.
        for name in ("fortran", "numba", "interpreted", "cython"):
            with pytest.raises(ValueError, match="unknown sim backend"):
                backend.set_backend(name)

    def test_override_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "python")
        backend.set_backend("c")
        assert backend.requested_backend() == "c"
        backend.set_backend(None)
        assert backend.requested_backend() == "python"

    def test_use_backend_restores_on_exit(self):
        backend.set_backend("python")
        with backend.use_backend("c"):
            assert backend.requested_backend() == "c"
        assert backend.requested_backend() == "python"

    def test_python_backend_resolves_to_no_impl(self):
        backend.set_backend("python")
        assert backend.effective_backend() == "python"
        assert backend._impl() is None

    def test_auto_prefers_a_native_backend_when_available(self):
        backend.set_backend("auto")
        assert backend.effective_backend() == ("c" if HAS_CC else "python")

    @pytest.mark.skipif(not HAS_CC, reason="no C compiler on this host")
    def test_c_backend_resolves_when_compiler_present(self):
        backend.set_backend("c")
        assert backend.effective_backend() == "c"

    def test_packed_trace_is_memoized_on_the_compiled_trace(self):
        compiled = compile_trace(CASES[0][1])
        assert backend.get_packed(compiled) is backend.get_packed(compiled)


# ====================================================== representability guards


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on this host")
class TestNativeGuards:
    def _sim(self, **config_overrides):
        config = dataclasses.replace(HIGH_PERF_SIM, **config_overrides)
        return CoreSim(config, CASES[0][1])

    def test_python_backend_never_runs_native(self):
        backend.set_backend("python")
        assert backend.try_run_native(self._sim()) is None

    def test_when_packing_bound_routes_to_the_oracle(self):
        backend.set_backend("c")
        sim = self._sim(max_cycles=backend._WHEN_LIMIT)
        assert backend.try_run_native(sim) is None

    def test_oversized_cache_snapshot_routes_to_the_oracle(self):
        # A loaded residency snapshot wider than the configured ways
        # cannot live in the kernel's fixed-way arrays.
        backend.set_backend("c")
        sim = self._sim()
        assoc = sim.cache.l1.config.assoc
        sim.cache.l1._sets[0] = list(range(assoc + 1))
        assert backend.try_run_native(sim) is None

    def test_guard_fallback_leaves_the_run_exact(self):
        # A run that trips a guard must produce stats identical to an
        # unguarded python run: the fallback path is the same oracle.
        trace = CASES[0][1]
        config = dataclasses.replace(HIGH_PERF_SIM, max_cycles=backend._WHEN_LIMIT)
        expected = _run("python", config, trace)
        actual = _run("c", config, trace)
        assert _dump(actual) == _dump(expected)

    def test_capacity_abort_falls_back_to_an_exact_python_run(self, monkeypatch):
        # The real kernel runs (dirtying its state block) and then reports
        # a scratch overflow: try_run_native must drop that block and leave
        # the cache hierarchy untouched so the Python loop runs exactly.
        # Cold caches: a leaked write-back would turn later misses into hits.
        label, trace, _ = CASES[1]
        config = dataclasses.replace(HIGH_PERF_SIM, prefetch_next_line=True)
        compiled = compile_trace(trace, cache=False)
        with backend.use_backend("python"):
            expected = CoreSim(config, compiled)
            expected_stats = expected.run()

        backend.set_backend("c")
        kernel = backend._impl()

        def run_then_abort(args):
            assert kernel(args) == backend.RC_OK
            return backend.RC_CAPACITY

        monkeypatch.setattr(backend, "_impl", lambda: run_then_abort)
        sim = CoreSim(config, compiled)
        stats = sim.run()

        assert _dump(stats) == _dump(expected_stats), label
        assert sim.cache.export_state() == expected.cache.export_state()
        for level in ("l1", "l2"):
            assert getattr(sim.cache, level).stats == getattr(
                expected.cache, level
            ).stats
        assert sim.cache.prefetches == expected.cache.prefetches
        assert backend.get_packed(compiled)._pool == []

    def test_watchdog_maps_to_deadlock_error(self):
        config = dataclasses.replace(HIGH_PERF_SIM, max_cycles=40)
        with pytest.raises(DeadlockError):
            _run("python", config, CASES[0][1])
        with pytest.raises(DeadlockError, match="max_cycles"):
            _run("c", config, CASES[0][1])


# ================================================================= equivalence


@pytest.mark.skipif(not HAS_CC, reason="no C compiler on this host")
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
