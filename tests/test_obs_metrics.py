"""Unit tests for the metrics registry (counters, gauges, timers)."""

import json
import time

import pytest

from repro.obs.metrics import MetricsRegistry, get_registry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        assert counter.value == 0
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc()
        assert registry.counter("x").value == 2

    def test_distinct_names_independent(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        assert registry.counter("b").value == 0


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("throughput")
        gauge.set(10.0)
        gauge.set(3.5)
        assert gauge.value == 3.5


class TestTimer:
    def test_record_accumulates(self):
        registry = MetricsRegistry()
        timer = registry.timer("stage")
        timer.record(0.5)
        timer.record(1.5)
        assert timer.count == 2
        assert timer.total == 2.0
        assert timer.mean == 1.0
        assert timer.min == 0.5
        assert timer.max == 1.5

    def test_context_manager_measures_wall_time(self):
        registry = MetricsRegistry()
        timer = registry.timer("sleep")
        with timer.time():
            time.sleep(0.01)
        assert timer.count == 1
        assert timer.total >= 0.005

    def test_unsampled_timer_is_safe(self):
        timer = MetricsRegistry().timer("never")
        assert timer.mean == 0.0
        assert timer.as_dict()["min_s"] == 0.0


class TestRegistry:
    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.25)
        registry.timer("t").record(0.1)
        registry.set_info("run", {"nested": [1, 2, {"deep": True}]})
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["counters"]["c"] == 3
        assert snapshot["gauges"]["g"] == 1.25
        assert snapshot["timers"]["t"]["count"] == 1
        assert snapshot["info"]["run"]["nested"][2]["deep"] is True

    def test_render_table_lists_instruments(self):
        registry = MetricsRegistry()
        registry.counter("model.evaluations").inc(7)
        registry.timer("experiment.fig5").record(2.0)
        table = registry.render_table()
        assert "model.evaluations" in table
        assert "experiment.fig5" in table
        assert "7" in table

    def test_render_table_empty(self):
        assert "no metrics recorded" in MetricsRegistry().render_table()

    def test_reset_zeroes_but_keeps_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(9)
        timer = registry.timer("t")
        timer.record(1.0)
        registry.set_info("k", "v")
        registry.reset()
        assert counter.value == 0
        assert timer.count == 0 and timer.total == 0.0
        assert registry.snapshot()["info"] == {}
        assert registry.counter("c") is counter

    def test_default_registry_is_a_singleton(self):
        assert get_registry() is get_registry()
        assert isinstance(get_registry(), MetricsRegistry)


class TestMerge:
    def test_counters_add(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(3)
        child = MetricsRegistry()
        child.counter("c").inc(4)
        child.counter("only_child").inc(2)
        parent.merge(child)
        assert parent.counter("c").value == 7
        assert parent.counter("only_child").value == 2

    def test_accepts_snapshot_dict(self):
        parent = MetricsRegistry()
        child = MetricsRegistry()
        child.counter("c").inc(5)
        snapshot = json.loads(json.dumps(child.snapshot()))  # wire form
        parent.merge(snapshot)
        assert parent.counter("c").value == 5

    def test_timers_add_totals_and_widen_bounds(self):
        parent = MetricsRegistry()
        parent.timer("t").record(1.0)
        child = MetricsRegistry()
        child.timer("t").record(0.25)
        child.timer("t").record(3.0)
        parent.merge(child)
        timer = parent.timer("t")
        assert timer.count == 3
        assert timer.total == pytest.approx(4.25)
        assert timer.min == 0.25
        assert timer.max == 3.0

    def test_unsampled_timer_does_not_corrupt_min(self):
        parent = MetricsRegistry()
        parent.timer("t").record(1.0)
        child = MetricsRegistry()
        child.timer("t")  # created but never sampled (min is +inf in child)
        parent.merge(child)
        assert parent.timer("t").min == 1.0
        assert parent.timer("t").count == 1

    def test_gauges_last_write_wins_but_zero_skipped(self):
        parent = MetricsRegistry()
        parent.gauge("g").set(5.0)
        child = MetricsRegistry()
        child.gauge("g").set(2.5)
        child.gauge("never_set")
        parent.merge(child)
        assert parent.gauge("g").value == 2.5
        assert parent.gauge("never_set").value == 0.0
        parent2 = MetricsRegistry()
        parent2.gauge("g").set(5.0)
        zeroed = MetricsRegistry()
        zeroed.gauge("g")  # default 0.0 must not clobber the parent
        parent2.merge(zeroed)
        assert parent2.gauge("g").value == 5.0

    def test_info_overwrites(self):
        parent = MetricsRegistry()
        parent.set_info("run", {"id": 1})
        child = MetricsRegistry()
        child.set_info("run", {"id": 2})
        parent.merge(child)
        assert parent.snapshot()["info"]["run"] == {"id": 2}

    def test_merge_then_snapshot_roundtrips(self):
        parent = MetricsRegistry()
        child = MetricsRegistry()
        child.counter("c").inc()
        child.timer("t").record(0.5)
        parent.merge(child.snapshot())
        assert json.loads(json.dumps(parent.snapshot()))["counters"]["c"] == 1

    def test_merge_empty_registry_is_noop(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(3)
        parent.timer("t").record(1.0)
        parent.histogram("h").observe(0.5)
        before = json.dumps(parent.snapshot())
        parent.merge(MetricsRegistry())
        parent.merge({})  # empty snapshot dict, same contract
        assert json.dumps(parent.snapshot()) == before

    def test_merge_into_empty_registry(self):
        parent = MetricsRegistry()
        child = MetricsRegistry()
        child.counter("c").inc(2)
        child.histogram("h").observe(0.25)
        parent.merge(child)
        assert parent.counter("c").value == 2
        assert parent.histogram("h").count == 1

    def test_merge_ignores_unknown_metric_kinds(self):
        # a snapshot from a newer schema must merge what is understood
        # and skip what is not — never guess
        parent = MetricsRegistry()
        parent.merge(
            {
                "counters": {"c": 4},
                "exemplars": {"c": {"trace_id": "abc"}},
                "sketches": [1, 2, 3],
            }
        )
        snapshot = parent.snapshot()
        assert snapshot["counters"]["c"] == 4
        assert "exemplars" not in snapshot
        assert "sketches" not in snapshot

    def test_histograms_merge_exactly(self):
        parent = MetricsRegistry()
        parent.histogram("h").observe(0.001)
        child = MetricsRegistry()
        child.histogram("h").observe(1.0)
        child.histogram("h").observe(4.0)
        parent.merge(child.snapshot())
        merged = parent.histogram("h")
        assert merged.count == 3
        assert merged.min == 0.001
        assert merged.max == 4.0

    def test_mismatched_histogram_layouts_raise(self):
        parent = MetricsRegistry()
        parent.histogram("h", bounds=(1.0, 10.0)).observe(2.0)
        child = MetricsRegistry()
        child.histogram("h", bounds=(1.0, 10.0, 100.0)).observe(2.0)
        with pytest.raises(ValueError):
            parent.merge(child.snapshot())


class TestHistogramAccessor:
    def test_created_on_first_use_with_layout(self):
        registry = MetricsRegistry()
        h = registry.histogram("h", bounds=(1.0, 10.0))
        assert registry.histogram("h") is h  # later calls may omit bounds
        assert registry.histogram("h", bounds=(1.0, 10.0)) is h

    def test_conflicting_layout_request_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 10.0))
        with pytest.raises(ValueError, match="different"):
            registry.histogram("h", bounds=(2.0, 20.0))

    def test_histogram_summaries_filters_by_prefix(self):
        registry = MetricsRegistry()
        registry.histogram("serve.latency.evaluate").observe(0.1)
        registry.histogram("serve.latency.simulate").observe(0.2)
        registry.histogram("sim.instructions_per_run").observe(100)
        summaries = registry.histogram_summaries("serve.latency.")
        assert sorted(summaries) == [
            "serve.latency.evaluate",
            "serve.latency.simulate",
        ]
        assert summaries["serve.latency.evaluate"]["count"] == 1

    def test_reset_includes_histograms(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        h.observe(0.5)
        registry.reset()
        assert h.count == 0
        assert registry.histogram("h") is h


class TestDeterministicOrder:
    def test_snapshot_sections_sorted_by_name(self):
        registry = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.counter(name).inc()
            registry.gauge(name).set(1.0)
            registry.timer(name).record(0.1)
            registry.histogram(name).observe(0.1)
        snapshot = registry.snapshot()
        for section in ("counters", "gauges", "timers", "histograms"):
            assert list(snapshot[section]) == ["alpha", "mid", "zeta"]

    def test_snapshot_byte_identical_across_creation_order(self):
        a = MetricsRegistry()
        a.counter("x").inc(1)
        a.counter("b").inc(2)
        b = MetricsRegistry()
        b.counter("b").inc(2)
        b.counter("x").inc(1)
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())

    def test_render_table_rows_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        registry.timer("z.t").record(0.1)
        registry.timer("a.t").record(0.1)
        registry.histogram("z.h").observe(0.1)
        registry.histogram("a.h").observe(0.1)
        table = registry.render_table()
        assert table.index("a.first") < table.index("z.last")
        assert table.index("a.t") < table.index("z.t")
        assert table.index("a.h") < table.index("z.h")

    def test_render_table_includes_histogram_percentiles(self):
        registry = MetricsRegistry()
        registry.histogram("serve.latency.evaluate").observe(0.1)
        table = registry.render_table()
        assert "histogram" in table
        assert "serve.latency.evaluate" in table
        assert "p99" in table


class TestHeatmapCellAccounting:
    def test_counts_only_evaluated_cells_and_tracks_skips(self):
        # Regression: the heatmap counter used to report
        # len(fractions) * len(frequencies) even though infeasible cells
        # (a < v, v <= 0, a <= 0) are skipped and never evaluated.
        import numpy as np

        from repro.core.modes import TCAMode
        from repro.core.parameters import HIGH_PERF, AcceleratorParameters
        from repro.core.sweep import speedup_heatmap

        registry = get_registry()
        fractions = np.linspace(0.1, 1.0, 5)
        frequencies = np.logspace(-4, -0.2, 7)
        evaluated_before = registry.counter("model.heatmap_cells").value
        skipped_before = registry.counter("model.heatmap_cells_skipped").value
        heat = speedup_heatmap(
            HIGH_PERF,
            AcceleratorParameters(acceleration=3.0),
            TCAMode.L_T,
            fractions,
            frequencies,
        )
        feasible = int((~np.isnan(heat.speedup)).sum())
        assert 0 < feasible < heat.speedup.size  # the grid has both kinds
        assert (
            registry.counter("model.heatmap_cells").value - evaluated_before
            == feasible
        )
        assert (
            registry.counter("model.heatmap_cells_skipped").value - skipped_before
            == heat.speedup.size - feasible
        )


class TestSimulatorIntegration:
    def test_simulate_records_throughput(self, tiny_sim_config, alu_trace):
        from repro.sim.simulator import simulate

        registry = get_registry()
        runs_before = registry.counter("sim.runs").value
        cycles_before = registry.counter("sim.cycles").value
        result = simulate(alu_trace, tiny_sim_config)
        assert registry.counter("sim.runs").value == runs_before + 1
        assert (
            registry.counter("sim.cycles").value
            == cycles_before + result.stats.cycles
        )
        last = registry.snapshot()["info"]["sim.last_run"]
        assert last["trace"] == alu_trace.name
        assert last["stats"]["cycles"] == result.stats.cycles

    def test_last_run_info_built_only_when_read(
        self, tiny_sim_config, alu_trace, monkeypatch
    ):
        from repro.sim.simulator import simulate
        from repro.sim.stats import SimStats

        calls = []
        to_dict = SimStats.to_dict
        monkeypatch.setattr(
            SimStats, "to_dict", lambda self: calls.append(1) or to_dict(self)
        )
        result = simulate(alu_trace, tiny_sim_config)
        assert calls == []
        last = get_registry().snapshot()["info"]["sim.last_run"]
        assert calls == [1]
        assert last["stats"] == to_dict(result.stats)
        assert last["config"] == tiny_sim_config.name
        assert last["mode"] == tiny_sim_config.tca_mode.value

    def test_model_evaluations_counted(self, small_core, simple_accelerator,
                                       simple_workload):
        from repro.core.model import TCAModel
        from repro.core.modes import TCAMode

        counter = get_registry().counter("model.evaluations")
        before = counter.value
        TCAModel(small_core, simple_accelerator, simple_workload).speedup(
            TCAMode.L_T
        )
        assert counter.value == before + 1
