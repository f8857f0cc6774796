"""Unit tests for the chunked multiprocessing sweep backend."""

import numpy as np
import pytest

from repro.core.modes import TCAMode
from repro.core.parallel import chunked, parallel_imap, parallel_map
from repro.core.parameters import HIGH_PERF, LOW_PERF, AcceleratorParameters
from repro.core.sweep import speedup_heatmap
from repro.obs.metrics import get_registry


def _square(x):
    return x * x


def _count_and_square(x):
    get_registry().counter("parallel.test_items").inc()
    return x * x


def _heatmap_panel(task):
    core, mode = task
    return speedup_heatmap(
        core,
        AcceleratorParameters(acceleration=1.5),
        mode,
        np.linspace(0.05, 1.0, 8),
        np.logspace(-4, -0.5, 9),
    )


class TestChunked:
    def test_splits_in_order(self):
        assert chunked([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_single_chunk(self):
        assert chunked([1, 2], 10) == [[1, 2]]

    def test_empty(self):
        assert chunked([], 3) == []

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            chunked([1], 0)


class TestParallelMap:
    def test_jobs_one_runs_inline(self):
        assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_preserves_order_across_workers(self):
        items = list(range(23))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_callable_from_secondary_thread(self):
        # Serving workers fan out from handler threads; forking a
        # multi-threaded process can deadlock the child on an inherited
        # lock, so parallel_map must switch to the spawn start method
        # there.  This call hangs (flakily) without that switch.
        import threading

        result: list = []
        errors: list = []

        def run():
            try:
                result.extend(parallel_map(_square, list(range(8)), jobs=2))
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "parallel_map deadlocked in a thread"
        assert not errors
        assert result == [x * x for x in range(8)]

    def test_imap_jobs_one_evaluates_on_demand(self):
        seen = []

        def record(x):
            seen.append(x)
            return x * x

        results = parallel_imap(record, [1, 2, 3], jobs=1)
        assert seen == []
        assert next(results) == 1
        assert seen == [1]
        assert list(results) == [4, 9]
        assert seen == [1, 2, 3]

    def test_imap_preserves_order_and_merges_counters(self):
        counter = get_registry().counter("parallel.test_items")
        before = counter.value
        out = list(parallel_imap(_count_and_square, range(11), jobs=2))
        assert out == [x * x for x in range(11)]
        assert counter.value == before + 11

    def test_imap_closed_early_stops_cleanly(self):
        results = parallel_imap(_square, range(40), jobs=2, chunk_size=2)
        assert [next(results) for _ in range(3)] == [0, 1, 4]
        results.close()  # leaves the pool block; must not hang

    def test_explicit_chunk_size(self):
        items = list(range(10))
        out = parallel_map(_square, items, jobs=2, chunk_size=3)
        assert out == [x * x for x in items]

    def test_worker_counters_merge_exactly(self):
        counter = get_registry().counter("parallel.test_items")
        before = counter.value
        parallel_map(_count_and_square, list(range(17)), jobs=2)
        assert counter.value == before + 17

    def test_model_metrics_match_serial_run(self):
        """The headline contract: sweep counters are identical with and
        without worker processes."""
        registry = get_registry()
        tasks = [
            (core, mode)
            for core in (HIGH_PERF, LOW_PERF)
            for mode in TCAMode.all_modes()
        ]

        cells_before = registry.counter("model.heatmap_cells").value
        skipped_before = registry.counter("model.heatmap_cells_skipped").value
        serial = parallel_map(_heatmap_panel, tasks, jobs=1)
        serial_cells = registry.counter("model.heatmap_cells").value - cells_before
        serial_skipped = (
            registry.counter("model.heatmap_cells_skipped").value - skipped_before
        )

        cells_before = registry.counter("model.heatmap_cells").value
        skipped_before = registry.counter("model.heatmap_cells_skipped").value
        parallel = parallel_map(_heatmap_panel, tasks, jobs=2)
        assert (
            registry.counter("model.heatmap_cells").value - cells_before
            == serial_cells
        )
        assert (
            registry.counter("model.heatmap_cells_skipped").value - skipped_before
            == serial_skipped
        )
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s.speedup, p.speedup)

    def test_timer_samples_merge(self):
        registry = get_registry()
        timer = registry.timer("model.heatmap")
        count_before = timer.count
        tasks = [(HIGH_PERF, mode) for mode in TCAMode.all_modes()]
        parallel_map(_heatmap_panel, tasks, jobs=2)
        assert timer.count == count_before + len(tasks)
