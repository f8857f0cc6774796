"""Tests for the streaming Pareto engine (mask, accumulator, sweeps)."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pareto
from repro.core.energy import EnergyParameters, energy_grid
from repro.core.model import speedup_grid
from repro.core.modes import MODE_COSTS, TCAMode
from repro.core.parameters import ARM_A72, HIGH_PERF, AcceleratorParameters
from repro.core.pareto import (
    PARETO_COLUMNS,
    PARETO_MAXIMIZE,
    ParetoAccumulator,
    ParetoSweepSpec,
    _reduce_chunk_state,
    efficiency_values,
    evaluate_pareto_chunk,
    non_dominated_mask,
    sweep_pareto,
    sweep_pareto_scalar,
)
from repro.core.tech import get_tech_node
from repro.obs.metrics import get_registry


def _oracle_mask(values, maximize):
    """Quadratic pairwise-dominance reference for non_dominated_mask."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    mask = np.zeros(n, dtype=bool)

    def dominates(p, q):
        if any(math.isnan(x) for x in p) or any(math.isnan(x) for x in q):
            return False
        at_least = all(
            (pv >= qv if m else pv <= qv)
            for pv, qv, m in zip(p, q, maximize)
        )
        strict = any(
            (pv > qv if m else pv < qv)
            for pv, qv, m in zip(p, q, maximize)
        )
        return at_least and strict

    for i in range(n):
        row = values[i]
        if any(math.isnan(x) for x in row):
            continue
        mask[i] = not any(
            dominates(values[j], row) for j in range(n) if j != i
        )
    return mask


_objective = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),  # forces ties
    st.floats(
        min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
    ),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)


_objective_or_zero = st.one_of(
    _objective, st.sampled_from([0.0, -0.0])
)


@st.composite
def _constant_column_rows(draw):
    """Rows with 1-3 objectives of which 1-3 are constant (signed zeros
    and ±inf included), plus NaN rows and duplicated rows."""
    k = draw(st.integers(min_value=1, max_value=3))
    constant = draw(
        st.sets(st.integers(min_value=0, max_value=k - 1), min_size=1)
    )
    n = draw(st.integers(min_value=0, max_value=20))
    values = np.empty((n, k))
    for c in range(k):
        if c in constant:
            level = draw(
                st.sampled_from([0.0, 2.5, -1.0, math.inf, -math.inf])
            )
            pool = [0.0, -0.0] if level == 0.0 else [level]
            column = draw(
                st.lists(st.sampled_from(pool), min_size=n, max_size=n)
            )
        else:
            column = draw(
                st.lists(_objective_or_zero, min_size=n, max_size=n)
            )
        values[:, c] = column
    if n:
        for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            values[row, draw(st.integers(0, k - 1))] = math.nan
        copies = draw(st.lists(st.integers(0, n - 1), max_size=5))
        values = np.concatenate([values, values[copies]])
    maximize = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    return values, maximize


class TestNonDominatedMask:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(_objective, _objective, _objective),
            min_size=0,
            max_size=25,
        ),
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
    )
    def test_matches_quadratic_oracle(self, rows, maximize):
        values = np.asarray(rows, dtype=float).reshape(len(rows), 3)
        fast = non_dominated_mask(values, maximize)
        assert np.array_equal(fast, _oracle_mask(values, maximize))

    @settings(max_examples=200, deadline=None)
    @given(_constant_column_rows())
    def test_constant_columns_match_quadratic_oracle(self, case):
        values, maximize = case
        fast = non_dominated_mask(values, maximize)
        assert np.array_equal(fast, _oracle_mask(values, maximize))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(_objective, _objective, _objective),
            min_size=0,
            max_size=25,
        ),
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
        st.integers(min_value=1, max_value=40),
    )
    def test_multi_pass_loop_matches_quadratic_oracle(
        self, rows, maximize, budget
    ):
        # A small comparison budget makes the three-objective loop take
        # one or a few references per pass instead of all of them.
        values = np.asarray(rows, dtype=float).reshape(len(rows), 3)
        with mock.patch.object(pareto, "_COMPARISONS_PER_PASS", budget):
            fast = non_dominated_mask(values, maximize)
        assert np.array_equal(fast, _oracle_mask(values, maximize))

    def test_minus_inf_alone_in_its_group_stays(self):
        # The first x group has no rival; its best y is -inf.
        values = np.array([[2.0, -np.inf], [1.0, 0.0], [2.0, -np.inf]])
        mask = non_dominated_mask(values, (True, True))
        assert mask.tolist() == [True, True, True]

    def test_exact_ties_all_kept(self):
        values = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 3.0]])
        mask = non_dominated_mask(values, (True, True))
        assert mask.tolist() == [True, True, True]

    def test_dominated_tie_group_removed_together(self):
        values = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        mask = non_dominated_mask(values, (True, True))
        assert mask.tolist() == [False, False, True]

    def test_nan_rows_never_on_frontier(self):
        values = np.array([[np.nan, 9.0], [1.0, 1.0]])
        mask = non_dominated_mask(values, (True, True))
        assert mask.tolist() == [False, True]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            non_dominated_mask(np.zeros(3), (True,))
        with pytest.raises(ValueError):
            non_dominated_mask(np.zeros((3, 2)), (True,))


_SORTED = get_registry().counter("model.pareto_frontier_sorted")


_staircase_value = st.one_of(
    st.integers(min_value=-3, max_value=3).map(float),  # forces ties
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
    st.floats(
        min_value=-5, max_value=5, allow_nan=False, allow_infinity=False
    ),
)


@st.composite
def _staircase_points(draw):
    """``(n, 2)`` NaN-free points: a staircase, points under it (some
    sharing a stair's ``x`` or ``y``), free points, and duplicates."""
    stairs = sorted(
        draw(st.lists(_staircase_value, min_size=1, max_size=6, unique=True))
    )
    heights = sorted(
        draw(
            st.lists(
                _staircase_value,
                min_size=len(stairs),
                max_size=len(stairs),
                unique=True,
            )
        ),
        reverse=True,
    )
    points = list(zip(stairs, heights))
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        x, y = draw(st.sampled_from(points[: len(stairs)]))
        points.append(
            draw(
                st.sampled_from(
                    [
                        (x, y),  # equal to a stair
                        (x, y - 1.0),  # straight below
                        (x - 1.0, y),  # straight left
                        (x - 1.0, y - 1.0),
                        (
                            draw(_staircase_value),
                            draw(_staircase_value),
                        ),
                    ]
                )
            )
        )
    order = draw(st.permutations(range(len(points))))
    return np.asarray([points[i] for i in order], dtype=float)


def _expected_sorted(values):
    """Rows the 2-objective kernel sorts after its prefilter: all of them
    below the size threshold or when the sample's frontier is over a
    quarter of the sample, else those no sample-frontier point dominates.
    """
    n = len(values)
    if n < pareto._PREFILTER_MIN_POINTS:
        return n
    sample = values[:: pareto._PREFILTER_STRIDE]
    pivots = sample[_oracle_mask(sample, (True, True))]
    if 4 * len(pivots) > len(sample):
        return n
    below = (pivots[:, None, :] >= values[None, :, :]).all(axis=2)
    above = (pivots[:, None, :] > values[None, :, :]).any(axis=2)
    return int(np.count_nonzero(~(below & above).any(axis=0)))


class TestStaircasePrefilter:
    """The 2-objective kernel with its size threshold patched down, so
    small inputs take the sampled-staircase prefilter."""

    @settings(max_examples=300, deadline=None)
    @given(
        _staircase_points(),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([1, 2, 3, 5]),
        st.booleans(),
    )
    def test_frontier_2d_matches_oracle_and_sorts_survivors_only(
        self, values, threshold, stride, one_objective
    ):
        if one_objective:
            values = np.column_stack([values[:, 0], np.zeros(len(values))])
        z = np.ascontiguousarray(values.T[:1] if one_objective else values.T)
        with mock.patch.multiple(
            pareto, _PREFILTER_MIN_POINTS=threshold, _PREFILTER_STRIDE=stride
        ):
            before = _SORTED.value
            fast = pareto._frontier_2d(z)
            sorted_rows = _SORTED.value - before
            expected = _expected_sorted(values)
        assert np.array_equal(fast, _oracle_mask(values, (True, True)))
        assert sorted_rows == expected

    @settings(max_examples=200, deadline=None)
    @given(
        _staircase_points(),
        st.integers(min_value=1, max_value=12),
        st.sampled_from([1, 2, 3, 5]),
        st.lists(st.integers(min_value=0, max_value=40), max_size=3),
        st.tuples(st.booleans(), st.booleans()),
        st.sampled_from([None, 0.0, -0.0, 2.5, math.inf]),
    )
    def test_mask_matches_quadratic_oracle(
        self, values, threshold, stride, nan_rows, maximize, constant
    ):
        # NaN rows are dropped and a constant third objective is dropped
        # before the kernel runs; the senses flip the staircase.
        values = values.copy()
        for row in nan_rows:
            if row < len(values):
                values[row, row % 2] = math.nan
        senses = maximize
        if constant is not None:
            values = np.column_stack([values, np.full(len(values), constant)])
            senses = maximize + (False,)
        with mock.patch.multiple(
            pareto, _PREFILTER_MIN_POINTS=threshold, _PREFILTER_STRIDE=stride
        ):
            fast = non_dominated_mask(values, senses)
        assert np.array_equal(fast, _oracle_mask(values, senses))

    def test_point_equal_to_a_pivot_survives(self):
        # Stride 2 samples the even rows: two stairs and six dominated
        # fillers, so the two pivots pass the quarter-of-the-sample test.
        # Of the odd rows, the stairs' copies meet an equal pivot and
        # survive, as do the points no stair dominates; the points
        # straight below or left of a stair are dropped.
        sampled = [[0.0, 3.0], [1.0, 2.0]] + [[-5.0, -5.0]] * 6
        others = [
            [0.0, 3.0], [1.0, 2.0],  # copies of the stairs
            [-np.inf, np.inf], [2.0, 0.0],  # on the frontier
            [1.0, 1.5], [0.5, 2.0], [1.0, -np.inf], [-np.inf, -np.inf],
        ]
        values = np.empty((16, 2))
        values[::2] = sampled
        values[1::2] = others
        with mock.patch.multiple(
            pareto, _PREFILTER_MIN_POINTS=2, _PREFILTER_STRIDE=2
        ):
            before = _SORTED.value
            mask = pareto._frontier_2d(np.ascontiguousarray(values.T))
            assert _SORTED.value - before == 6
        assert np.flatnonzero(mask).tolist() == [0, 1, 2, 3, 5, 7]
        assert np.array_equal(mask, _oracle_mask(values, (True, True)))

    def test_all_equal_input_is_all_frontier(self):
        values = np.full((4096, 2), -0.0)
        values[::3] = 0.0  # signed zeros compare equal
        before = _SORTED.value
        # Objectives equal on every row are dropped before any sort.
        assert non_dominated_mask(values, (True, False)).all()
        assert _SORTED.value == before
        # Given to the kernel as they are, all rows are one point: the
        # sample's frontier is the whole sample, so the prefilter bails
        # out and every row is sorted.
        assert pareto._frontier_2d(np.ascontiguousarray(values.T)).all()
        assert _SORTED.value - before == len(values)

    def test_all_on_frontier_bails_out_to_the_plain_sort(self):
        x = np.arange(39_960, dtype=float)
        under = x[::999]  # a few points straight below the diagonal
        values = np.concatenate(
            [np.column_stack([x, -x]), np.column_stack([under, -under - 1])]
        )
        values = values[np.random.default_rng(5).permutation(len(values))]
        before = _SORTED.value
        mask = non_dominated_mask(values, (True, True))
        assert _SORTED.value - before == len(values) == 40_000
        assert np.array_equal(values[~mask][:, 1], -values[~mask][:, 0] - 1)
        assert np.count_nonzero(~mask) == len(under)

    def test_dominated_bulk_never_reaches_the_sort(self):
        rng = np.random.default_rng(6)
        values = rng.random((40_000, 2))
        before = _SORTED.value
        mask = non_dominated_mask(values, (True, True))
        assert _SORTED.value - before < len(values) // 10
        assert np.array_equal(
            mask, pareto._sorted_frontier(values[:, 0], values[:, 1])
        )


class TestEfficiencyValues:
    def test_edge_cases_are_nan_not_errors(self):
        speedup = np.array([2.0, 2.0, np.nan, np.inf, 2.0])
        cost = np.array([1.0, 0.0, 1.0, 2.0, np.nan])
        out = efficiency_values(speedup, cost)
        assert out[0] == pytest.approx(2.0)
        assert math.isnan(out[1])  # zero cost
        assert math.isnan(out[2])  # NaN speedup
        assert out[3] == float("inf")  # infinite speedup stays infinite
        assert math.isnan(out[4])  # NaN cost

    def test_negative_cost_is_nan(self):
        assert math.isnan(float(efficiency_values(2.0, -1.0)))


def _random_points(rng, n):
    values = np.column_stack(
        [
            rng.integers(0, 5, n).astype(float),  # ties likely
            rng.random(n).round(1),
            rng.random(n).round(1),
        ]
    )
    columns = {
        name: np.asarray([f"{name}{i % 3}" for i in range(n)], dtype=object)
        for name in PARETO_COLUMNS
    }
    return values, columns


def _filled(values, columns):
    acc = ParetoAccumulator()
    acc.add(values, columns)
    return acc


class TestParetoAccumulator:
    def test_blocking_is_invariant(self):
        rng = np.random.default_rng(7)
        values, columns = _random_points(rng, 200)
        whole = _filled(values, columns)
        chunked = ParetoAccumulator()
        for lo in range(0, 200, 17):
            hi = min(lo + 17, 200)
            chunked.add(
                values[lo:hi],
                {name: col[lo:hi] for name, col in columns.items()},
            )
        assert chunked.points_seen == whole.points_seen == 200
        assert chunked.points() == whole.points()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 7))
    def test_merge_is_partition_invariant(self, seed, parts):
        rng = np.random.default_rng(seed)
        values, columns = _random_points(rng, 60)
        whole = _filled(values, columns)
        merged = ParetoAccumulator()
        bounds = np.linspace(0, 60, parts + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            merged.merge(
                _filled(
                    values[lo:hi],
                    {name: col[lo:hi] for name, col in columns.items()},
                )
            )
        assert merged.points() == whole.points()
        assert merged.points_seen == whole.points_seen

    def test_state_round_trips_through_json(self):
        rng = np.random.default_rng(3)
        values, columns = _random_points(rng, 50)
        acc = _filled(values, columns)
        state = json.loads(json.dumps(acc.state(), allow_nan=True))
        restored = ParetoAccumulator.from_state(state)
        assert restored.points() == acc.points()
        assert restored.points_seen == acc.points_seen
        # JSON-round-tripped partial states merge like live accumulators
        # (this is the multi-worker path: each worker ships a state dict).
        halves = ParetoAccumulator()
        for lo, hi in ((0, 25), (25, 50)):
            part = _filled(
                values[lo:hi],
                {name: col[lo:hi] for name, col in columns.items()},
            )
            halves.merge(json.loads(json.dumps(part.state(), allow_nan=True)))
        assert halves.points() == acc.points()
        assert halves.points_seen == acc.points_seen

    def test_memory_stays_bounded_by_block_plus_frontier(self):
        acc = ParetoAccumulator(
            objectives=("x", "y"), maximize=(True, True), columns=()
        )
        rng = np.random.default_rng(11)
        for _ in range(20):
            block = rng.random((1000, 2))
            acc.add(block, {})
        # Internal storage holds only the frontier, never the stream.
        assert acc.points_seen == 20_000
        assert acc.size < 1000
        assert acc._values.shape[0] == acc.size

    def test_schema_mismatch_rejected(self):
        a = ParetoAccumulator(objectives=("x",), maximize=(True,), columns=())
        b = ParetoAccumulator(objectives=("y",), maximize=(True,), columns=())
        with pytest.raises(ValueError, match="schema"):
            a.merge(b)

    def test_add_validates_columns(self):
        acc = ParetoAccumulator(
            objectives=("x",), maximize=(True,), columns=("tag",)
        )
        with pytest.raises(ValueError, match="columns"):
            acc.add(np.zeros((2, 1)), {})
        with pytest.raises(ValueError, match="shape"):
            acc.add(np.zeros((2, 1)), {"tag": np.zeros(3)})


@pytest.fixture
def small_spec():
    return ParetoSweepSpec(
        cores=(ARM_A72, HIGH_PERF),
        accelerator=AcceleratorParameters(name="t", acceleration=8.0),
        fractions=tuple(np.linspace(0.0, 1.0, 11)),
        frequencies=tuple(np.geomspace(1e-4, 1.0, 7)),
        tech=("cmos-hp-45", "finfet-hp-20"),
        block_size=30,
    )


def _reference_chunk_state(chunk):
    """A chunk's partial frontier built the long way: full speedup and
    energy grids, then one dominance mask over the stacked objectives
    of every feasible cell."""
    node = get_tech_node(chunk.tech)
    a = np.asarray(chunk.fractions, dtype=float)[:, None]
    v = np.asarray(chunk.frequencies, dtype=float)[None, :]
    speedup = speedup_grid(
        chunk.core, chunk.accelerator, a, v, chunk.mode, chunk.drain_estimator
    )
    energy = energy_grid(
        chunk.core,
        chunk.accelerator,
        node.scale_energy(chunk.energy),
        a,
        v,
        chunk.mode,
        chunk.drain_estimator,
    )
    a, v = np.broadcast_arrays(a, v)
    feasible = (a > 0) & (a <= 1) & (v > 0) & (v <= 1) & (a >= v)
    n = int(feasible.sum())
    area = float(node.scale_area(MODE_COSTS[chunk.mode].total))
    values = np.column_stack(
        [speedup[feasible], energy.ratio[feasible], np.full(n, area)]
    )
    rows = np.flatnonzero(non_dominated_mask(values, PARETO_MAXIMIZE))
    acc = ParetoAccumulator()
    acc.add(
        values[rows],
        {
            "core": np.full(len(rows), chunk.core.name, dtype=object),
            "mode": np.full(len(rows), chunk.mode.value, dtype=object),
            "tech": np.full(len(rows), chunk.tech, dtype=object),
            "acceleratable_fraction": a[feasible][rows],
            "invocation_frequency": v[feasible][rows],
            "efficiency": efficiency_values(values[rows, 0], area),
        },
    )
    acc.points_seen = n
    return acc.state()


def _chunk_json(state):
    return json.dumps(state, allow_nan=True)


class TestChunkMatchesFullGridReference:
    """Every chunk state is byte-identical to the full-grid reference."""

    @pytest.mark.parametrize(
        "case",
        [
            {"energy": EnergyParameters(0.0, 0.0, 0.0, 0.0)},  # NaN ratios
            {"accelerator": AcceleratorParameters(name="l", latency=40.0)},
            {"tech": ("cmos-hp-45", "finfet-hp-20")},
            {"fractions": (0.3,)},  # one row
            {"fractions": (0.3,), "frequencies": (0.01,)},  # one cell
            {"fractions": (0.001,), "frequencies": (0.01,)},  # a < v only
            {},
        ],
        ids=[
            "zero-energy",
            "latency",
            "two-tech",
            "one-row",
            "one-cell",
            "infeasible-cell",
            "default",
        ],
    )
    def test_chunk_state_is_byte_identical(self, case):
        spec = ParetoSweepSpec(
            **{
                "cores": (ARM_A72, HIGH_PERF),
                "accelerator": AcceleratorParameters(
                    name="t", acceleration=6.0
                ),
                # Low fractions against high frequencies give a < v cells.
                "fractions": tuple(np.linspace(0.0, 0.9, 70)),
                "frequencies": tuple(np.geomspace(1e-5, 0.8, 60)),
                "block_size": 1500,
                **case,
            }
        )
        chunks = list(spec.chunks())
        assert len({c.tech for c in chunks}) == len(spec.tech)
        for chunk in chunks:
            assert _chunk_json(_reduce_chunk_state(chunk)) == _chunk_json(
                _reference_chunk_state(chunk)
            )
        if "energy" in case:
            assert all(evaluate_pareto_chunk(c).size == 0 for c in chunks)
            assert sum(evaluate_pareto_chunk(c).points_seen for c in chunks)


class TestParetoSweep:
    def test_chunks_respect_block_size(self, small_spec):
        chunks = list(small_spec.chunks())
        assert all(c.lattice_points <= small_spec.block_size for c in chunks)
        assert (
            sum(c.lattice_points for c in chunks) == small_spec.total_points
        )
        assert [c.index for c in chunks] == list(range(len(chunks)))

    def test_matches_scalar_oracle_exactly(self, small_spec):
        frontier = sweep_pareto(small_spec).points()
        assert frontier == sweep_pareto_scalar(small_spec)

    def test_jobs_and_block_size_invariant(self, small_spec):
        import dataclasses

        base = sweep_pareto(small_spec, jobs=1)
        parallel = sweep_pareto(small_spec, jobs=2)
        rechunked = sweep_pareto(
            dataclasses.replace(small_spec, block_size=7)
        )
        assert parallel.points() == base.points()
        assert rechunked.points() == base.points()
        assert parallel.points_seen == base.points_seen

    def test_frontier_points_carry_annotations(self, small_spec):
        for point in sweep_pareto(small_spec).points():
            assert point["mode"] in {m.value for m in TCAMode.all_modes()}
            assert point["tech"] in small_spec.tech
            assert point["core"] in {c.name for c in small_spec.cores}
            assert point["acceleratable_fraction"] >= point[
                "invocation_frequency"
            ]
            assert point["efficiency"] == pytest.approx(
                point["speedup"] / point["area"]
            )

    def test_chunk_evaluation_counts_feasible_points_only(self, small_spec):
        chunk = next(small_spec.chunks())
        acc = evaluate_pareto_chunk(chunk)
        a = np.asarray(chunk.fractions)[:, None]
        v = np.asarray(chunk.frequencies)[None, :]
        feasible = (a > 0) & (a <= 1) & (v > 0) & (v <= 1) & (a >= v)
        assert acc.points_seen == int(feasible.sum())

    def test_points_seen_counts_every_feasible_cell(self, small_spec):
        # The frontier keeps a handful of rows; points_seen still counts
        # every feasible candidate of every chunk, and a chunk with no
        # feasible cell (a == 0) yields an empty, zero-count partial.
        total = 0
        for chunk in small_spec.chunks():
            acc = evaluate_pareto_chunk(chunk)
            a = np.asarray(chunk.fractions)[:, None]
            v = np.asarray(chunk.frequencies)[None, :]
            feasible = int(((a > 0) & (a <= 1) & (v > 0) & (v <= 1) & (a >= v)).sum())
            assert acc.points_seen == feasible
            assert acc.size <= feasible
            assert all(len(col) == acc.size for col in acc._columns.values())
            total += feasible
        assert sweep_pareto(small_spec).points_seen == total
        first = next(small_spec.chunks())
        assert first.fractions[0] == 0.0
        empty = evaluate_pareto_chunk(
            dataclasses.replace(first, fractions=(0.0,), a_stop=1)
        )
        assert (empty.points_seen, empty.size) == (0, 0)

    @pytest.mark.parametrize("acceleration", [1.5, 8.0, 40.0])
    def test_two_tech_nodes_match_scalar_oracle(self, acceleration):
        # Two tech nodes give every mode two areas, so the cross-panel
        # merges compare three varying objectives.
        spec = ParetoSweepSpec(
            cores=(HIGH_PERF,),
            accelerator=AcceleratorParameters(
                name="t", acceleration=acceleration
            ),
            fractions=tuple(np.linspace(0.05, 1.0, 13)),
            frequencies=tuple(np.geomspace(1e-3, 0.5, 9)),
            tech=("cmos-hp-45", "finfet-hp-20"),
        )
        assert len({c.tech for c in spec.chunks()}) == 2
        assert sweep_pareto(spec).points() == sweep_pareto_scalar(spec)

    def test_spec_validation(self):
        accel = AcceleratorParameters(name="t", acceleration=2.0)
        with pytest.raises(ValueError, match="fractions"):
            ParetoSweepSpec(
                cores=(ARM_A72,),
                accelerator=accel,
                fractions=(),
                frequencies=(0.1,),
            )
        with pytest.raises(ValueError, match="block_size"):
            ParetoSweepSpec(
                cores=(ARM_A72,),
                accelerator=accel,
                fractions=(0.5,),
                frequencies=(0.1,),
                block_size=0,
            )
        with pytest.raises(ValueError, match="unknown tech node"):
            ParetoSweepSpec(
                cores=(ARM_A72,),
                accelerator=accel,
                fractions=(0.5,),
                frequencies=(0.1,),
                tech=("not-a-node",),
            )

    def test_objective_senses(self):
        assert PARETO_MAXIMIZE == (True, False, False)
