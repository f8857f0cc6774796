"""Byte-identical equivalence of the compiled hot loop vs the seed engine.

The compile-once pipeline (:mod:`repro.sim.compile` +
:class:`repro.sim.core.CoreSim`) guarantees that ``SimStats.to_dict()``
is byte-identical to the seed simulator (the cycle-stepped
:class:`seed_engine.ReferenceCoreSim` test oracle).  This suite enforces
the guarantee across three workload generators, all four TCA integration
modes, warm and cold caches, and both bundled configuration extremes —
the acceptance matrix of the compiled-trace optimization — plus
multi-context TCAs (``tca_units=2``) with partial speculation, a TCA
burst and a trace gated by low-confidence branches.
"""

import dataclasses
import json

import pytest

from repro.core.modes import TCAMode
from repro.sim.compile import compile_trace
from repro.sim.config import HIGH_PERF_SIM, LOW_PERF_SIM
from repro.sim.core import CoreSim
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program
from repro.workloads.matmul import (
    MatmulSpec,
    generate_accelerated_trace,
    generate_baseline_trace,
)
from repro.workloads.synthetic import SyntheticSpec, generate_synthetic_program
from seed_engine import ReferenceCoreSim
from test_sim_extensions import branchy_trace, burst_trace


#: Config overrides of the extension cases: two TCA contexts, and NL
#: modes gated on low-confidence branches instead of a full ROB drain.
EXTENSIONS = {"tca_units": 2, "partial_speculation": True}


def _cases():
    """(label, trace, warm_ranges, config overrides) spanning three
    generators, every accelerated case again with :data:`EXTENSIONS`,
    and two traces aimed at the extensions."""
    cases = []
    heap = generate_heap_program(
        HeapWorkloadSpec(slots=80, call_probability=0.3, seed=4)
    )
    heap_warm = heap.baseline.metadata.get("warm_ranges")
    cases.append(("heap-base", heap.baseline, heap_warm, {}))
    cases.append(("heap-accel", heap.accelerated(), heap_warm, {}))
    synth = generate_synthetic_program(
        SyntheticSpec(total_instructions=2500, num_invocations=5)
    )
    cases.append(("synth-base", synth.baseline, None, {}))
    cases.append(("synth-accel", synth.accelerated(), None, {}))
    spec = MatmulSpec(n=8, block=8, accel_sizes=(4,))
    cases.append(
        ("matmul-base", generate_baseline_trace(spec), spec.warm_ranges(), {})
    )
    cases.append(
        ("matmul-accel", generate_accelerated_trace(spec, 4), spec.warm_ranges(), {})
    )
    cases += [
        (f"{label}-ext", trace, warm, EXTENSIONS)
        for label, trace, warm, _ in cases
        if label.endswith("-accel")
    ]
    for label, trace in (
        ("burst", burst_trace(10, latency=30)),
        ("branchy-lowconf", branchy_trace(low_confidence=True)),
    ):
        cases.append((label, trace, None, {}))
        cases.append((f"{label}-ext", trace, None, EXTENSIONS))
    return cases


CASES = _cases()
MODES = TCAMode.all_modes()


def _dump(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=False)


class TestByteIdenticalStats:
    @pytest.mark.parametrize("config_name", ["high", "low"])
    @pytest.mark.parametrize("mode", MODES, ids=[m.value for m in MODES])
    @pytest.mark.parametrize(
        "case", CASES, ids=[case[0] for case in CASES]
    )
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_matches_reference(self, config_name, mode, case, warm):
        label, trace, warm_ranges, overrides = case
        if warm and not warm_ranges:
            pytest.skip(f"{label} has no warm ranges")
        base = HIGH_PERF_SIM if config_name == "high" else LOW_PERF_SIM
        config = dataclasses.replace(base, tca_mode=mode, **overrides)
        ranges = warm_ranges if warm else None
        expected = ReferenceCoreSim(config, trace, warm_ranges=ranges).run()
        actual = CoreSim(config, trace, warm_ranges=ranges).run()
        assert _dump(actual) == _dump(expected)

    def test_precompiled_trace_matches_reference(self):
        # Running from an explicitly precompiled trace (the reuse path of
        # simulate_modes / the serving LRU) changes nothing observable.
        label, trace, warm_ranges, _ = CASES[1]  # heap accelerated
        compiled = compile_trace(trace, cache=False)
        for mode in MODES:
            config = dataclasses.replace(HIGH_PERF_SIM, tca_mode=mode)
            expected = ReferenceCoreSim(
                config, trace, warm_ranges=warm_ranges
            ).run()
            actual = CoreSim(config, compiled, warm_ranges=warm_ranges).run()
            assert _dump(actual) == _dump(expected)

    def test_repeated_runs_from_one_compiled_trace_are_deterministic(self):
        # The pooled per-run state block must leave no residue: N runs
        # from the same CompiledTrace produce identical stats.
        _, trace, warm_ranges, _ = CASES[0]
        compiled = compile_trace(trace, cache=False)
        config = dataclasses.replace(LOW_PERF_SIM, tca_mode=TCAMode.NL_NT)
        dumps = {
            _dump(CoreSim(config, compiled, warm_ranges=warm_ranges).run())
            for _ in range(3)
        }
        assert len(dumps) == 1

    def test_empty_trace(self):
        from repro.isa.trace import Trace

        trace = Trace([], name="empty")
        expected = ReferenceCoreSim(HIGH_PERF_SIM, trace).run()
        actual = CoreSim(HIGH_PERF_SIM, trace).run()
        assert _dump(actual) == _dump(expected)
