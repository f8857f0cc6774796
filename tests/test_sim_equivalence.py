"""Byte-identical equivalence of the compiled hot loop vs the seed engine.

The compile-once pipeline (:mod:`repro.sim.compile` +
:class:`repro.sim.core.CoreSim`) guarantees that ``SimStats.to_dict()``
is byte-identical to the seed simulator (the cycle-stepped
:class:`seed_engine.ReferenceCoreSim` test oracle).  This suite enforces
the guarantee across three workload generators, all four TCA integration
modes, warm and cold caches, and both bundled configuration extremes —
the acceptance matrix of the compiled-trace optimization — plus
multi-context TCAs (``tca_units=2``) with partial speculation, a TCA
burst and a trace gated by low-confidence branches.  Small-structure
configurations (:data:`SMALL_STRUCTURES`) run every case on the seed
engine, the Python loop and the C kernel: tight queues, MSHRs, ports
and TCA contexts put the most pressure on the kernel's scratch arrays.
"""

import dataclasses
import json
import random

import pytest

from repro.core.modes import TCAMode
from repro.sim import backend
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


def _small_structures():
    """The all-minimum and all-maximum corners plus four seeded draws
    from rob 2-24, iq 1-12, lq/sq 1-8, mshrs 1-4, tca_units 1-4 and
    1-3 load/store ports."""
    ranges = {
        "rob_size": (2, 24), "iq_size": (1, 12), "lq_size": (1, 8),
        "sq_size": (1, 8), "mshrs": (1, 4), "tca_units": (1, 4),
        "load_ports": (1, 3), "store_ports": (1, 3),
    }
    rng = random.Random(21)
    configs = [
        {name: low for name, (low, _) in ranges.items()},
        {name: high for name, (_, high) in ranges.items()},
    ]
    configs += [
        {name: rng.randint(low, high) for name, (low, high) in ranges.items()}
        for _ in range(4)
    ]
    for config in configs:
        config["dispatch_width"] = min(2, config["rob_size"])
    return configs


SMALL_STRUCTURES = _small_structures()

#: The engines CoreSim can run here: the kernel only where it builds.
ENGINES = ["python", "c"] if backend.effective_backend() == "c" else ["python"]


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

    @pytest.mark.parametrize(
        "small",
        SMALL_STRUCTURES,
        ids=["rob{rob_size}-iq{iq_size}-mshr{mshrs}-tca{tca_units}".format(**c)
             for c in SMALL_STRUCTURES],
    )
    @pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
    def test_small_structures_match_on_every_engine(self, small, case):
        label, trace, warm_ranges, overrides = case
        base = dataclasses.replace(LOW_PERF_SIM, **{**overrides, **small})
        for mode in MODES:
            config = base.with_mode(mode)
            expected = _dump(
                ReferenceCoreSim(config, trace, warm_ranges=warm_ranges).run()
            )
            for engine in ENGINES:
                with backend.use_backend(engine):
                    actual = CoreSim(config, trace, warm_ranges=warm_ranges).run()
                assert _dump(actual) == expected, (engine, mode.value)

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
