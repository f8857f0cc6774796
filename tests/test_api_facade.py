"""Tests of the `repro.api` façade and the documented public surface.

Three contracts: the façade's results are correct and round-trip through
their dict forms; every documented name is importable (and `docs/API.md`
matches the packages' ``__all__`` exactly); the pre-façade spellings
import from their home modules without a :class:`DeprecationWarning`.
"""

import importlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.core.model import TCAModel
from repro.core.modes import TCAMode
from repro.core.parameters import (
    ARM_A72,
    AcceleratorParameters,
    WorkloadParameters,
)
from repro.isa.instructions import TCADescriptor
from repro.isa.trace import TraceBuilder
from repro.sim.config import ARM_A72_SIM
from repro.sim.stats import SimStats, StallReason

ACCEL = AcceleratorParameters(name="t", acceleration=3.0)
WORKLOAD = WorkloadParameters.from_granularity(53, acceleratable_fraction=0.3)

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def _traces():
    builder = TraceBuilder("facade-base")
    builder.independent_block(60, [0, 1, 2, 3])
    baseline = builder.build()
    builder = TraceBuilder("facade-accel")
    builder.independent_block(20, [0, 1, 2, 3])
    builder.tca(
        TCADescriptor(name="t", compute_latency=8, replaced_instructions=40)
    )
    builder.independent_block(20, [4, 5, 6, 7])
    return baseline, builder.build()


class TestEvaluate:
    def test_matches_scalar_model(self):
        result = api.evaluate(ARM_A72, ACCEL, WORKLOAD)
        model = TCAModel(ARM_A72, ACCEL, WORKLOAD)
        for mode in TCAMode.all_modes():
            assert result.speedups[mode] == pytest.approx(
                model.speedup(mode), abs=1e-9
            )

    def test_mode_subset(self):
        result = api.evaluate(ARM_A72, ACCEL, WORKLOAD, modes=TCAMode.L_T)
        assert set(result.speedups) == {TCAMode.L_T}
        with pytest.raises(ValueError):
            api.evaluate(ARM_A72, ACCEL, WORKLOAD, modes=[])

    def test_round_trip(self):
        result = api.evaluate(ARM_A72, ACCEL, WORKLOAD)
        payload = json.loads(json.dumps(result.to_dict()))
        back = api.EvaluationResult.from_dict(payload)
        assert dict(back.speedups) == dict(result.speedups)
        assert back.core == ARM_A72
        assert back.workload == WORKLOAD
        assert back.best_mode == result.best_mode

    def test_cache_flag(self):
        cache = repro.EvaluationCache()
        assert not api.evaluate(ARM_A72, ACCEL, WORKLOAD, cache=cache).cached
        assert api.evaluate(ARM_A72, ACCEL, WORKLOAD, cache=cache).cached


class TestSweep:
    def test_matches_core_sweep_and_round_trips(self):
        xs = np.logspace(0, 3, 8)
        result = api.sweep(
            "granularity", ARM_A72, ACCEL, xs, acceleratable_fraction=0.3
        )
        from repro.core.sweep import granularity_sweep

        reference = granularity_sweep(
            ARM_A72, ACCEL, 0.3, xs, None, TCAMode.all_modes()
        )
        for mode in TCAMode.all_modes():
            assert result.speedups[mode] == pytest.approx(
                tuple(reference.speedups[mode]), abs=1e-9
            )
        back = api.SweepResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert back == result

    def test_rows_align_with_axis(self):
        result = api.sweep(
            "fraction", ARM_A72, ACCEL, [0.1, 0.5, 0.9], granularity=100
        )
        rows = result.rows()
        assert [row[result.x_label] for row in rows] == [0.1, 0.5, 0.9]

    def test_unknown_kind_and_missing_axis(self):
        with pytest.raises(ValueError, match="unknown sweep kind"):
            api.sweep("bogus", ARM_A72, ACCEL, [1.0])
        with pytest.raises(ValueError, match="acceleratable_fraction"):
            api.sweep("granularity", ARM_A72, ACCEL, [1.0])


class TestParetoSweep:
    def test_matches_scalar_oracle_and_round_trips(self):
        from repro.core.pareto import ParetoSweepSpec, sweep_pareto_scalar

        fractions = np.linspace(0.0, 1.0, 9)
        frequencies = np.geomspace(1e-3, 1.0, 5)
        result = api.pareto_sweep(
            ARM_A72, ACCEL, fractions, frequencies, tech="finfet-hp-20"
        )
        oracle = sweep_pareto_scalar(
            ParetoSweepSpec(
                cores=(ARM_A72,),
                accelerator=ACCEL,
                fractions=tuple(fractions),
                frequencies=tuple(frequencies),
                tech=("finfet-hp-20",),
            )
        )
        assert [p.to_dict() for p in result.frontier] == oracle
        assert result.total_points == 4 * 9 * 5

        back = api.ParetoSweepResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert back == result

    def test_jobs_do_not_change_the_frontier(self):
        axis = np.linspace(0.05, 1.0, 6)
        one = api.pareto_sweep(ARM_A72, ACCEL, axis, axis, jobs=1)
        two = api.pareto_sweep(ARM_A72, ACCEL, axis, axis, jobs=2)
        assert one == two

    def test_single_mode_and_default_tech(self):
        result = api.pareto_sweep(
            ARM_A72, ACCEL, [0.5], [0.1], modes=TCAMode.L_T
        )
        assert result.points_seen == 1
        assert all(p.mode is TCAMode.L_T for p in result.frontier)
        assert all(p.tech == "cmos-hp-45" for p in result.frontier)


class TestSimulateAndCompare:
    def test_simulate_matches_simulator_and_caches(self):
        baseline, _ = _traces()
        from repro.sim.simulator import simulate as sim_simulate

        raw = sim_simulate(baseline, ARM_A72_SIM)
        cache = repro.EvaluationCache()
        first = api.simulate(baseline, ARM_A72_SIM, cache=cache)
        second = api.simulate(baseline, ARM_A72_SIM, cache=cache)
        assert first.cycles == raw.cycles
        assert not first.cached and second.cached
        assert second.stats == first.stats
        back = api.SimulationResult.from_dict(
            json.loads(json.dumps(first.to_dict()))
        )
        assert back.stats == first.stats
        assert back.mode == first.mode

    def test_facade_and_engine_share_result_types(self):
        import repro.sim
        from repro.sim.simulator import ModeComparison

        assert api.SimulationResult is repro.sim.SimulationResult
        assert api.ComparisonResult is ModeComparison
        baseline, _ = _traces()
        result = api.simulate(baseline, ARM_A72_SIM)
        assert type(result) is repro.sim.SimulationResult
        assert result.cached is False
        assert result.to_dict()["cached"] is False

    def test_compare_matches_simulate_modes(self):
        baseline, accelerated = _traces()
        from repro.sim.simulator import simulate_modes

        reference = simulate_modes(baseline, accelerated, ARM_A72_SIM)
        result = api.compare(baseline, accelerated, ARM_A72_SIM)
        assert result.speedups() == reference.speedups()
        back = api.ComparisonResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert back.speedups() == result.speedups()


class TestSimStatsRoundTrip:
    """Regression: stall maps must serialize stably and round-trip exactly."""

    def test_insertion_order_does_not_change_serialization(self):
        a = SimStats(cycles=100, instructions=50)
        a.add_stall(StallReason.ROB_FULL, 7)
        a.add_stall(StallReason.FRONTEND_FILL, 3)
        b = SimStats(cycles=100, instructions=50)
        b.add_stall(StallReason.FRONTEND_FILL, 3)
        b.add_stall(StallReason.ROB_FULL, 7)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_round_trip_is_byte_exact(self):
        stats = SimStats(cycles=123, instructions=45, dispatched=47, loads=9)
        stats.add_stall(StallReason.TRACE_DRAINED, 2)
        stats.add_stall(StallReason.IQ_FULL, 5)
        payload = json.dumps(stats.to_dict())
        back = SimStats.from_dict(json.loads(payload))
        assert back == stats
        assert json.dumps(back.to_dict()) == payload

    def test_simulated_stats_round_trip(self):
        baseline, _ = _traces()
        stats = api.simulate(baseline, ARM_A72_SIM).stats
        back = SimStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        assert back == stats


class TestDeprecatedSpellings:
    def test_home_module_spellings_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import predict_speedups  # noqa: F401
            from repro.sim import simulate_modes  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing


def _documented_exports(module_name: str) -> set[str]:
    """The backticked bullet names under a module's heading in API.md."""
    text = API_DOC.read_text(encoding="utf-8")
    match = re.search(
        rf"^### `{re.escape(module_name)}`\n(.*?)(?=^### |\Z)",
        text,
        re.MULTILINE | re.DOTALL,
    )
    assert match, f"docs/API.md lacks a section for {module_name}"
    return set(re.findall(r"^- `([^`]+)`", match.group(1), re.MULTILINE))


class TestDocumentedSurface:
    @pytest.mark.parametrize(
        "module_name", ["repro.core", "repro.sim", "repro.workloads"]
    )
    def test_api_md_matches_module_all(self, module_name):
        module = importlib.import_module(module_name)
        documented = _documented_exports(module_name)
        exported = set(module.__all__)
        assert documented == exported, (
            f"docs/API.md and {module_name}.__all__ disagree: "
            f"only-in-docs={sorted(documented - exported)}, "
            f"only-in-code={sorted(exported - documented)}"
        )

    @pytest.mark.parametrize(
        "module_name", ["repro", "repro.core", "repro.sim", "repro.workloads"]
    )
    def test_every_export_is_importable(self, module_name):
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert getattr(module, name) is not None

    def test_quickstart_import_shape(self):
        """The README's one-liner must keep working."""
        from repro import evaluate  # noqa: F401

        assert callable(evaluate)
