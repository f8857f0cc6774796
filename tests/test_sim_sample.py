"""Tests for sampled simulation and segment runs.

The exact engine (:class:`~repro.sim.core.CoreSim`) stays the oracle
throughout: every estimator here is judged against a full exact run of
the same trace.  The long-trace acceptance test builds a trace two
orders of magnitude past the seed workloads' per-request length and
requires the sampled estimate to land within a 2% mean-error budget.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro.workloads as workloads
from repro.isa.trace import Trace
from repro.sim import backend
from repro.sim.cache import CacheHierarchy
from repro.sim.compile import compile_trace
from repro.sim.config import ARM_A72_SIM
from repro.sim.core import CoreSim
from repro.sim.sample import (
    SEGMENT_COST_INSTRUCTIONS,
    SamplingConfig,
    ambient_sampling,
    canonical_sampling,
    coerce_sampling,
    forced_exact_reason,
    merge_stats,
    parse_sampling_spec,
    plan_cost,
    plan_windows,
    sampling_scope,
    simulate_sampled,
    simulate_segments,
    static_counts,
)
from repro.sim.simulator import simulate
from repro.sim.stats import SimStats, StallReason


def _heap_trace(slots=100, seed=7):
    program = workloads.generate_heap_program(
        workloads.HeapWorkloadSpec(slots=slots, seed=seed)
    )
    return program.baseline


def _long_trace(repeats, slots=100, seed=7):
    """The heap trace repeated ``repeats`` times as one flat trace."""
    unit = _heap_trace(slots=slots, seed=seed)
    return Trace(
        unit.instructions * repeats, name=f"heap-x{repeats}"
    )


def _rel_err(estimate, truth):
    return abs(estimate - truth) / truth if truth else abs(estimate - truth)


# ------------------------------------------------------------- config


class TestSamplingConfig:
    def test_defaults_are_valid(self):
        config = SamplingConfig()
        assert config.mode == "sampled"
        assert config.interval >= 1 and config.period >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"interval": 0},
            {"period": 0},
            {"warmup": -1},
            {"head": -1},
            {"min_instructions": -1},
            {"min_windows": 0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SamplingConfig(**kwargs)

    def test_round_trips_through_dict(self):
        config = SamplingConfig(interval=500, period=7, warmup=100, head=900)
        assert SamplingConfig.from_dict(config.to_canonical_dict()) == config

    @pytest.mark.parametrize("value", [1.9, float("inf"), True, None, [3]])
    def test_from_dict_takes_only_integers(self, value):
        with pytest.raises(ValueError, match="interval must be an integer"):
            SamplingConfig.from_dict({"interval": value})
        assert SamplingConfig.from_dict({"interval": "7"}).interval == 7

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown sampling keys"):
            SamplingConfig.from_dict({"interval": 10, "bogus": 1})

    def test_parse_spec_words_and_pairs(self):
        assert parse_sampling_spec("exact").mode == "exact"
        assert parse_sampling_spec("sampled") == SamplingConfig()
        config = parse_sampling_spec("interval=200,period=4,warmup=50")
        assert (config.interval, config.period, config.warmup) == (200, 4, 50)

    def test_parse_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_sampling_spec("interval=abc")
        with pytest.raises(ValueError):
            parse_sampling_spec("bogus=1")

    def test_coerce_accepts_none_config_str_and_mapping(self):
        config = SamplingConfig(interval=128)
        assert coerce_sampling(None) is None
        assert coerce_sampling(config) is config
        assert coerce_sampling("exact").mode == "exact"
        assert coerce_sampling({"interval": 128}) == config
        with pytest.raises(TypeError):
            coerce_sampling(123)

    def test_exact_mode_normalizes_to_no_sampling_key(self):
        # Exact results are byte-identical whether sampling was requested
        # or not, so both must share one cache key.
        assert canonical_sampling(None) is None
        assert canonical_sampling(SamplingConfig(mode="exact")) is None
        assert canonical_sampling(SamplingConfig()) is not None

    def test_sampling_scope_is_ambient_and_restored(self):
        config = SamplingConfig(interval=64)
        assert ambient_sampling() is None
        with sampling_scope(config):
            assert ambient_sampling() is config
        assert ambient_sampling() is None


# ------------------------------------------------------ plan / fallback


class TestPlanning:
    def test_windows_start_after_head_plus_warmup(self):
        config = SamplingConfig(interval=100, period=5, warmup=50, head=400)
        windows = plan_windows(10_000, config)
        assert windows[0] == (450, 550)
        strides = [b[0] - a[0] for a, b in zip(windows, windows[1:])]
        assert set(strides) == {100 * 5}
        assert all(e <= 10_000 for _, e in windows)

    def test_final_window_truncated_at_trace_end(self):
        config = SamplingConfig(interval=100, period=1, warmup=0, head=0)
        windows = plan_windows(250, config)
        assert windows[-1] == (200, 250)

    def test_forced_exact_reasons(self):
        sampled = SamplingConfig(interval=100, period=5, min_instructions=1000)
        assert forced_exact_reason(10_000, SamplingConfig(mode="exact")) == (
            "requested"
        )
        assert forced_exact_reason(500, sampled) == "short_trace"
        # Long enough overall but the head swallows the whole trace.
        tiny = SamplingConfig(
            interval=100,
            period=5,
            head=9_000,
            warmup=900,
            min_instructions=1000,
            min_windows=2,
        )
        assert forced_exact_reason(9_500, tiny) == "too_few_windows"
        # Every 500 instructions, a 100-instruction window and its
        # 200-instruction warmup twice: the plan simulates the whole
        # trace in detail, so the exact run is no dearer.
        assert forced_exact_reason(100_000, sampled) == "costlier_than_exact"
        assert forced_exact_reason(100_000, dataclasses.replace(sampled, period=50)) is None

    def test_plan_cost_counts_detailed_instructions_and_segments(self):
        # head 400, then windows [500, 700), [1300, 1500), ... each run
        # with its 100-instruction warmup twice: 400 detailed + 1 segment
        # for the head, 400 detailed + 2 segments per window.
        config = SamplingConfig(interval=200, period=4, warmup=100, head=400)
        windows = plan_windows(4_460, config)
        assert len(windows) == 5
        cost = plan_cost(4_460, config)
        assert cost == 400 + 5 * 400 + (1 + 2 * 5) * SEGMENT_COST_INSTRUCTIONS
        assert cost < 4_460
        assert forced_exact_reason(4_460, dataclasses.replace(config, min_instructions=0)) is None

    def test_a_plan_costlier_than_the_exact_run_falls_back(self):
        # One-instruction windows: as many segments as instructions.
        every = SamplingConfig(
            interval=1, period=1, warmup=0, head=0, min_instructions=0
        )
        assert plan_cost(26_760, every) == 26_760 * (1 + SEGMENT_COST_INSTRUCTIONS)
        assert forced_exact_reason(26_760, every) == "costlier_than_exact"
        stats, report = simulate_sampled(_heap_trace(), ARM_A72_SIM, every)
        exact = CoreSim(ARM_A72_SIM, compile_trace(_heap_trace())).run()
        assert report["forced_exact"] == "costlier_than_exact"
        assert stats.to_dict() == exact.to_dict()


# ------------------------------------------------------------ sampling


class TestSimulateSampled:
    def test_forced_exact_is_byte_identical_to_oracle(self):
        trace = _heap_trace()
        exact = CoreSim(ARM_A72_SIM, compile_trace(trace)).run()
        stats, report = simulate_sampled(
            trace, ARM_A72_SIM, SamplingConfig(mode="exact")
        )
        assert stats.to_dict() == exact.to_dict()
        assert report["mode"] == "exact"
        assert report["forced_exact"] == "requested"

    def test_short_trace_falls_back_to_exact(self):
        trace = _heap_trace()
        config = SamplingConfig(min_instructions=10 * len(trace))
        stats, report = simulate_sampled(trace, ARM_A72_SIM, config)
        exact = CoreSim(ARM_A72_SIM, compile_trace(trace)).run()
        assert stats.to_dict() == exact.to_dict()
        assert report["forced_exact"] == "short_trace"
        assert report["requested"] == config.to_canonical_dict()

    def test_count_stats_are_exact(self):
        trace = _long_trace(20)
        compiled = compile_trace(trace)
        exact = CoreSim(ARM_A72_SIM, compiled).run()
        config = SamplingConfig(interval=500, period=10, warmup=250)
        stats, report = simulate_sampled(compiled, ARM_A72_SIM, config)
        assert report["mode"] == "sampled"
        counts = static_counts(compiled)
        for name, value in counts.items():
            assert getattr(stats, name) == value == getattr(exact, name)

    def test_report_shape_and_coverage(self):
        trace = _long_trace(20)
        config = SamplingConfig(interval=500, period=10, warmup=250)
        stats, report = simulate_sampled(trace, ARM_A72_SIM, config)
        assert report["total_instructions"] == len(trace)
        assert 0.0 < report["coverage"] < 1.0
        assert report["windows"] == len(plan_windows(len(trace), config))
        assert report["speedup_estimate"] > 1.0
        for key in ("cycles", "ipc"):
            block = report["confidence"][key]
            assert block["estimate"] > 0
            assert block["ci95"] >= 0
        # The estimate must be a plausible cycle count: IPC of an OoO
        # core lies strictly between 0 and the dispatch width.
        assert 0 < stats.instructions / stats.cycles <= 8

    def test_report_bytes_do_not_follow_the_hash_seed(self):
        """Two server processes must encode one sampled run identically."""
        program = textwrap.dedent(
            """
            import json
            import repro.workloads as workloads
            from repro.sim.config import ARM_A72_SIM
            from repro.sim.sample import SamplingConfig, simulate_sampled
            trace = workloads.generate_heap_program(
                workloads.HeapWorkloadSpec(slots=100, seed=7)
            ).baseline
            config = SamplingConfig(
                interval=200, period=4, warmup=100, head=400,
                min_instructions=1000,
            )
            _, report = simulate_sampled(trace, ARM_A72_SIM, config)
            print(json.dumps(report))
            """
        )
        reports = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(proc.stdout)
        assert len(json.loads(reports[0])["confidence"]) > 2
        assert reports[0] == reports[1]

    def test_rob_samples_matches_cycles_invariant(self):
        # Every main-loop iteration adds equally to both; the estimator
        # must preserve the invariant or mean-occupancy math breaks.
        trace = _long_trace(20)
        stats, _ = simulate_sampled(
            trace, ARM_A72_SIM, SamplingConfig(interval=500, period=10)
        )
        assert stats.rob_samples == stats.cycles

    def test_hundredfold_trace_under_two_percent_error(self):
        """The issue's acceptance bar: >=100x trace at <2% mean error.

        The seed heap workload serves ~2.9k-instruction traces per
        request; 120 repeats puts this trace at ~349k instructions,
        two orders of magnitude longer.  Sampled timing estimates for
        cycles and IPC must average under 2% relative error vs the
        exact oracle, while simulating well under half the trace in
        detail.
        """
        unit = _heap_trace()
        trace = _long_trace(120)
        assert len(trace) >= 100 * len(unit)
        exact = CoreSim(ARM_A72_SIM, compile_trace(trace)).run()
        # head covers one full unit of the repeating workload so the
        # cold-start transient is measured exactly, never extrapolated.
        config = SamplingConfig(
            interval=1000, period=100, warmup=500, head=len(unit)
        )
        stats, report = simulate_sampled(trace, ARM_A72_SIM, config)
        assert report["mode"] == "sampled"
        exact_ipc = exact.instructions / exact.cycles
        est_ipc = stats.instructions / stats.cycles
        errors = [
            _rel_err(stats.cycles, exact.cycles),
            _rel_err(est_ipc, exact_ipc),
        ]
        assert sum(errors) / len(errors) < 0.02, (errors, report)
        assert report["detailed_instructions"] < len(trace) // 2

    def test_simulate_facade_reports_mode_and_keeps_exact_default(self):
        trace = _long_trace(20)
        default = simulate(trace, ARM_A72_SIM)
        assert default.sim_mode == "exact"
        assert default.sampling is None
        sampled = simulate(
            trace,
            ARM_A72_SIM,
            sampling=SamplingConfig(interval=500, period=10),
        )
        assert sampled.sim_mode == "sampled"
        assert sampled.sampling["windows"] > 0
        # default path is byte-identical to the plain engine
        oracle = CoreSim(ARM_A72_SIM, compile_trace(trace)).run()
        assert default.stats.to_dict() == oracle.to_dict()

    def test_simulate_facade_honours_ambient_scope(self):
        trace = _long_trace(20)
        with sampling_scope(SamplingConfig(interval=500, period=10)):
            result = simulate(trace, ARM_A72_SIM)
        assert result.sim_mode == "sampled"


# -------------------------------------------------------- merge / parts


class TestMergeStats:
    def test_sums_counts_and_maxes_rob(self):
        a, b = SimStats(), SimStats()
        a.instructions, b.instructions = 10, 20
        a.cycles, b.cycles = 7, 9
        a.max_rob_occupancy, b.max_rob_occupancy = 40, 12
        a.stall_cycles = {StallReason.ROB_FULL: 3}
        b.stall_cycles = {StallReason.ROB_FULL: 4, StallReason.IQ_FULL: 1}
        merged = merge_stats([a, b])
        assert merged.instructions == 30
        assert merged.cycles == 16
        assert merged.max_rob_occupancy == 40
        assert merged.stall_cycles[StallReason.ROB_FULL] == 7
        assert merged.stall_cycles[StallReason.IQ_FULL] == 1
        # keys come back in StallReason definition order, as the
        # engine's own to_dict serialization expects
        assert list(merged.stall_cycles) == [
            StallReason.ROB_FULL,
            StallReason.IQ_FULL,
        ]

    def test_empty_merge_is_zero_stats(self):
        assert merge_stats([]).to_dict() == SimStats().to_dict()


# ------------------------------------------------------------ segments


class TestSharding:
    def test_slice_compile_equals_segment_run(self):
        # The parallel-segment correctness keystone: compiling a slice as
        # a fresh trace and running it equals a segment run over the full
        # compiled trace (both drop cross-boundary register deps and
        # keep disambiguation run-local).
        trace = _long_trace(4)
        compiled = compile_trace(trace)
        lo, hi = len(trace) // 3, 2 * len(trace) // 3
        segment = CoreSim(ARM_A72_SIM, compiled, start=lo, stop=hi).run()
        sliced = CoreSim(
            ARM_A72_SIM,
            compile_trace(Trace(trace.instructions[lo:hi], name="slice")),
        ).run()
        assert segment.to_dict() == sliced.to_dict()

    def test_sharded_counts_exact_and_jobs_invariant(self):
        trace = _long_trace(10)
        exact = CoreSim(ARM_A72_SIM, compile_trace(trace)).run()
        n = len(trace)
        shards = [(n * i // 4, n * (i + 1) // 4) for i in range(4)]
        parts1 = simulate_segments(trace, ARM_A72_SIM, shards)
        parts4 = simulate_segments(trace, ARM_A72_SIM, shards, jobs=4)
        assert [p.to_dict() for p in parts1] == [p.to_dict() for p in parts4]
        stats = merge_stats(parts1)
        for name in static_counts(compile_trace(trace)):
            assert getattr(stats, name) == getattr(exact, name)
        assert _rel_err(stats.cycles, exact.cycles) < 0.02

    def test_single_shard_matches_full_run(self):
        trace = _heap_trace()
        exact = CoreSim(ARM_A72_SIM, compile_trace(trace)).run()
        (stats,) = simulate_segments(trace, ARM_A72_SIM, [(0, len(trace))])
        assert stats.to_dict() == exact.to_dict()


class TestSegments:
    def test_sequential_partition_counts_exact_and_cycles_close(self):
        trace = _long_trace(10)
        exact = CoreSim(ARM_A72_SIM, compile_trace(trace)).run()
        n = len(trace)
        bounds = list(range(0, n, 7_000)) + [n]
        assert len(bounds) > 3  # the partition genuinely cuts mid-trace
        stats = merge_stats(
            simulate_segments(trace, ARM_A72_SIM, zip(bounds, bounds[1:]))
        )
        for name in static_counts(compile_trace(trace)):
            assert getattr(stats, name) == getattr(exact, name)
        # Per-segment pipeline fill/drain at the seams bounds the drift.
        assert _rel_err(stats.cycles, exact.cycles) < 0.02

    @pytest.mark.parametrize("engine", ["python", "c"])
    def test_segment_at_zero_with_warm_ranges_equals_warm_run(self, engine):
        # The sampler's head segment relies on this: the warming pass's
        # snapshot at 0 is exactly the residency warm_ranges install.
        if engine == "c" and backend.effective_backend() != "c":
            pytest.skip("the C kernel does not build here")
        trace = _heap_trace()
        warm = trace.metadata["warm_ranges"]
        n = len(trace)
        with backend.use_backend(engine):
            full, head = simulate_segments(
                trace, ARM_A72_SIM, [(0, n), (0, n // 2)], warm_ranges=warm
            )
            plain = CoreSim(ARM_A72_SIM, trace, warm_ranges=warm).run()
            plain_head = CoreSim(
                ARM_A72_SIM, trace, warm_ranges=warm, stop=n // 2
            ).run()
        assert full.to_dict() == plain.to_dict()
        assert head.to_dict() == plain_head.to_dict()

    def test_exports_and_segment_runs_interleave(self, monkeypatch):
        # A sequential run holds one snapshot at a time: each start's
        # snapshot is exported only after the previous start's segments
        # have run.  Results still come back in the order asked for.
        calls = []
        export, run = CacheHierarchy.snapshot, CoreSim.run

        def logged_export(self):
            calls.append("export")
            return export(self)

        def logged_run(self):
            calls.append(f"run@{self._start}")
            return run(self)

        monkeypatch.setattr(CacheHierarchy, "snapshot", logged_export)
        monkeypatch.setattr(CoreSim, "run", logged_run)
        parts = simulate_segments(
            _heap_trace(), ARM_A72_SIM, [(100, 300), (0, 100), (100, 150)]
        )
        assert calls == ["export", "run@0", "export", "run@100", "run@100"]
        assert [p.instructions for p in parts] == [200, 100, 50]

    def test_rejects_bad_segment(self):
        for segment in [(-1, 5), (5, 3), (0, 10**6)]:
            with pytest.raises(ValueError, match="invalid segment"):
                simulate_segments(_heap_trace(), ARM_A72_SIM, [segment])
