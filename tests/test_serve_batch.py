"""Tests of the batch evaluation engine.

The engine's contract: results match the scalar model to 1e-9, arrive in
request order, coalesce into few vectorized calls, and short-circuit
through the cache.
"""

import random

import numpy as np
import pytest

from repro.core.drain import (
    BalancedWindowDrain,
    DrainEstimator,
    ExplicitDrain,
    PowerLawDrain,
)
from repro.core.model import TCAModel, speedup_grid, speedup_rows
from repro.core.modes import TCAMode
from repro.core.parameters import (
    ARM_A72,
    HIGH_PERF,
    LOW_PERF,
    AcceleratorParameters,
    WorkloadParameters,
)
from repro.obs.metrics import get_registry
from repro.serve.batch import EvaluationQuery, evaluate_batch
from repro.serve.cache import EvaluationCache

CORES = (ARM_A72, HIGH_PERF, LOW_PERF)
ACCELS = (
    AcceleratorParameters(name="x3", acceleration=3.0),
    AcceleratorParameters(name="lat", latency=25.0),
)
DRAINS = (None, ExplicitDrain(40.0), BalancedWindowDrain())


def _random_queries(n: int, seed: int = 7) -> list[EvaluationQuery]:
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        workload = WorkloadParameters.from_granularity(
            rng.uniform(2.0, 5000.0),
            acceleratable_fraction=rng.uniform(0.05, 0.95),
            drain_time=rng.choice((None, rng.uniform(0.0, 60.0))),
        )
        queries.append(
            EvaluationQuery(
                core=rng.choice(CORES),
                accelerator=rng.choice(ACCELS),
                workload=workload,
                mode=rng.choice(TCAMode.all_modes()),
                drain_estimator=rng.choice(DRAINS),
            )
        )
    return queries


class TestCorrectness:
    def test_matches_scalar_model_to_1e9_on_10k_heterogeneous_queries(self):
        queries = _random_queries(10_000)
        entries = evaluate_batch(queries)
        assert len(entries) == len(queries)
        for query, entry in zip(queries, entries):
            expected = TCAModel(
                query.core,
                query.accelerator,
                query.workload,
                drain_estimator=query.drain_estimator,
            ).speedup(query.mode)
            assert entry.speedup == pytest.approx(expected, abs=1e-9)

    def test_results_arrive_in_request_order(self):
        queries = _random_queries(64, seed=11)
        entries = evaluate_batch(queries)
        # keys are injective over distinct queries: order-check via keys
        expected_keys = [
            evaluate_batch([q])[0].key for q in queries
        ]
        assert [e.key for e in entries] == expected_keys

    def test_single_query_matches_model(self):
        query = EvaluationQuery(
            ARM_A72,
            ACCELS[0],
            WorkloadParameters.from_granularity(53, acceleratable_fraction=0.3),
            TCAMode.NL_T,
        )
        [entry] = evaluate_batch([query])
        expected = TCAModel(ARM_A72, ACCELS[0], query.workload).speedup(
            TCAMode.NL_T
        )
        assert entry.speedup == pytest.approx(expected, abs=1e-9)
        assert not entry.cached

    def test_empty_batch(self):
        assert evaluate_batch([]) == []


class TestCoalescing:
    def test_homogeneous_batch_is_one_group(self):
        registry = get_registry()
        before = registry.counter("serve.batch.groups").value
        queries = [
            EvaluationQuery(
                ARM_A72,
                ACCELS[0],
                WorkloadParameters.from_granularity(
                    g, acceleratable_fraction=0.3
                ),
                TCAMode.L_T,
            )
            for g in range(10, 200, 10)
        ]
        evaluate_batch(queries)
        assert registry.counter("serve.batch.groups").value == before + 1

    def test_mixed_modes_split_groups(self):
        registry = get_registry()
        before = registry.counter("serve.batch.groups").value
        workload = WorkloadParameters.from_granularity(
            53, acceleratable_fraction=0.3
        )
        queries = [
            EvaluationQuery(ARM_A72, ACCELS[0], workload, mode)
            for mode in TCAMode.all_modes()
        ]
        evaluate_batch(queries)
        assert registry.counter("serve.batch.groups").value == before + 4


class TestCacheIntegration:
    def test_cached_entries_short_circuit(self):
        cache = EvaluationCache()
        queries = _random_queries(100, seed=3)
        first = evaluate_batch(queries, cache=cache)
        assert not any(e.cached for e in first)
        second = evaluate_batch(queries, cache=cache)
        assert all(e.cached for e in second)
        for a, b in zip(first, second):
            assert a.speedup == b.speedup
            assert a.key == b.key

    def test_partial_hits_fill_only_the_gaps(self):
        cache = EvaluationCache()
        queries = _random_queries(50, seed=5)
        evaluate_batch(queries[:25], cache=cache)
        registry = get_registry()
        before = registry.counter("serve.batch.evaluated").value
        entries = evaluate_batch(queries, cache=cache)
        evaluated = registry.counter("serve.batch.evaluated").value - before
        assert evaluated == 25
        assert all(e.cached for e in entries[:25])
        assert not any(e.cached for e in entries[25:])


class CellDrain(DrainEstimator):
    """A custom estimator whose estimate differs cell by cell."""

    def estimate(self, core, workload):
        return float(
            self.estimate_grid(
                core,
                np.asarray(workload.acceleratable_fraction),
                np.asarray(workload.invocation_frequency),
            )
        )

    def estimate_grid(self, core, a, v):
        return 3.0 + 50.0 * a + 1000.0 * v / core.ipc


ALL_DRAINS = (
    None,
    PowerLawDrain(),
    ExplicitDrain(40.0),
    BalancedWindowDrain(),
    CellDrain(),
)


def _matrix_queries():
    """Every core × accelerator form × drain × drain_time × mode."""
    rng = random.Random(19)
    workloads = []
    for drain_time in (None, 12.5):
        workloads += [
            WorkloadParameters.from_granularity(
                rng.uniform(2.0, 5000.0),
                acceleratable_fraction=rng.uniform(0.05, 0.95),
                drain_time=drain_time,
            )
            for _ in range(6)
        ]
        workloads.append(WorkloadParameters(0.0, 0.0, drain_time=drain_time))
    return [
        EvaluationQuery(core, accelerator, workload, mode, drain)
        for core in CORES
        for accelerator in (
            *ACCELS,
            AcceleratorParameters(name="x7", acceleration=7.3),
        )
        for drain in ALL_DRAINS
        for workload in workloads
        for mode in TCAMode.all_modes()
    ]


def _one_cell(query):
    """The per-query ``speedup_grid`` answer the batch must equal."""
    workload = query.workload
    return float(
        speedup_grid(
            query.core,
            query.accelerator,
            workload.acceleratable_fraction,
            workload.invocation_frequency,
            query.mode,
            query.drain_estimator,
            drain_time=workload.drain_time,
        )
    )


class TestRowPass:
    """One pass per mode equals one ``speedup_grid`` call per query."""

    @pytest.mark.parametrize("single_mode", [False, True])
    def test_speedup_rows_equals_per_query_grid_bit_for_bit(self, single_mode):
        queries = _matrix_queries()
        random.Random(5).shuffle(queries)
        batches = [queries]
        if single_mode:
            batches = [
                [q for q in queries if q.mode is mode]
                for mode in TCAMode.all_modes()
            ]
        for rows in batches:
            got = speedup_rows(
                [q.core for q in rows],
                [q.accelerator for q in rows],
                [q.workload for q in rows],
                [q.mode for q in rows],
                [q.drain_estimator for q in rows],
            )
            assert got.tolist() == [_one_cell(q) for q in rows]

    @pytest.mark.parametrize("cached", [False, True])
    def test_batch_equals_per_query_grid_bit_for_bit(self, cached):
        queries = _matrix_queries()
        random.Random(3).shuffle(queries)
        registry = get_registry()
        before = registry.counter("serve.batch.groups").value
        entries = evaluate_batch(
            queries, cache=EvaluationCache() if cached else None
        )
        assert registry.counter("serve.batch.groups").value == before + 4
        assert [e.speedup for e in entries] == [_one_cell(q) for q in queries]
