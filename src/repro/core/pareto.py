"""Streaming multi-objective Pareto-frontier extraction at sweep scale.

The paper's future-work pareto analysis (four ``DesignPoint``\\ s per
workload) generalizes here to the regime the ROADMAP asks for: millions
of ``(core, mode, tech, a, v)`` design points scored on three objectives
— **speedup** (maximize), **energy ratio** (minimize), and **area**
(minimize) — with the frontier extracted *while streaming*, so memory
stays bounded by the block size plus the frontier, never the point
count.

Three layers:

- :func:`non_dominated_mask` — the vectorized dominance kernel: one
  boolean mask over a block of candidate points, keeping exact ties
  (the same semantics as :func:`repro.core.design_space.pareto_frontier`);
- :class:`ParetoAccumulator` — a streaming frontier: feed it blocks of
  ~100k points, it reduces each block against the running frontier in
  O(block + frontier) memory; partial accumulators **merge**, and the
  merge is independent of how the points were partitioned, so
  :func:`~repro.core.parallel.parallel_map` workers can each reduce a
  shard and the supervisor combines the shards;
- :class:`ParetoSweepSpec` / :func:`sweep_pareto` — the TCA sweep
  engine: a cross product of cores × modes × tech nodes × an ``(a, v)``
  lattice, chunked so no intermediate grid exceeds ``block_size`` cells,
  evaluated with the arithmetic of :func:`~repro.core.model.speedup_grid`
  and :func:`~repro.core.energy.energy_grid` over one shared time grid
  per chunk, with per-node scaling from :mod:`repro.core.tech`.

:func:`sweep_pareto_scalar` is the oracle: per-point
:class:`~repro.core.model.TCAModel` / :class:`~repro.core.energy.EnergyModel`
evaluation and a quadratic dominance pass — slow, obviously correct, and
what the vectorized engine is tested against point for point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core.drain import DrainEstimator, PowerLawDrain
from repro.core.energy import (
    _ENERGY_CELLS,
    EnergyModel,
    EnergyParameters,
    _energy_values,
)
from repro.core.model import (
    _EVALUATIONS,
    TCAModel,
    _grid_cells,
    _speedup_values,
    mode_time_grid,
)
from repro.core.modes import MODE_COSTS, TCAMode
from repro.core.parallel import parallel_map
from repro.core.parameters import (
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)
from repro.core.tech import DEFAULT_TECH, get_tech_node
from repro.obs.metrics import get_registry

#: Default cells per streamed evaluation block (~100k points keeps the
#: working set a few MB regardless of total sweep size).
DEFAULT_BLOCK_SIZE = 100_000

#: The TCA sweep's objectives, in column order, and their senses.
PARETO_OBJECTIVES = ("speedup", "energy_ratio", "area")
PARETO_MAXIMIZE = (True, False, False)

#: Per-point annotation columns the TCA sweep carries to the frontier.
PARETO_COLUMNS = (
    "core",
    "mode",
    "tech",
    "acceleratable_fraction",
    "invocation_frequency",
    "efficiency",
)

_PARETO_POINTS = get_registry().counter("model.pareto_points")
_FRONTIER_SORTED = get_registry().counter("model.pareto_frontier_sorted")

#: Budget of row-objective comparisons per pass of the 3+-objective
#: dominance loop: references per pass shrink as the candidate set
#: grows, so each pass's boolean temporaries stay under 1 MB.
_COMPARISONS_PER_PASS = 1 << 20

#: Points from which the 2-objective kernel prefilters with a sampled
#: staircase before it sorts, and the stride of that sample.  Below 128
#: points the sample holds fewer than 8, too few to tell a small
#: frontier from a large one.
_PREFILTER_MIN_POINTS = 128
_PREFILTER_STRIDE = 16


def non_dominated_mask(
    values: np.ndarray, maximize: Sequence[bool]
) -> np.ndarray:
    """Boolean mask of the non-dominated rows of ``values``.

    A row is dominated when some other row is at least as good in every
    objective and strictly better in at least one.  Exact ties — rows
    equal in *all* objectives — are all kept, matching
    :func:`repro.core.design_space.pareto_frontier`.  Rows containing
    NaN in any objective are never on the frontier (and never dominate);
    ``±inf`` objectives participate normally.

    Args:
        values: ``(n, k)`` objective matrix.
        maximize: per-column sense, length ``k`` (False = minimize).

    Returns:
        Length-``n`` boolean mask, True at frontier rows.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    n, k = values.shape
    if len(maximize) != k:
        raise ValueError(
            f"maximize has {len(maximize)} senses for {k} objectives"
        )
    signs = np.where(np.asarray(maximize, dtype=bool), 1.0, -1.0)
    # One contiguous row per objective, in maximization form.
    return _non_dominated_rows(
        np.ascontiguousarray(values.T) * signs[:, np.newaxis]
    )


def _non_dominated_rows(z: np.ndarray) -> np.ndarray:
    """Non-dominated columns of a ``(k, n)`` maximization-form matrix —
    :func:`non_dominated_mask` after its transpose."""
    n = z.shape[1]
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    ids = np.arange(n)
    low = z.min(axis=1)
    if np.isnan(low).any():
        ids = np.flatnonzero(~np.isnan(z).any(axis=0))
        if ids.size == 0:
            return mask
        z = z[:, ids]
        low = z.min(axis=1)
    # An objective equal on every candidate can neither make a row
    # better nor worse, so dominance is decided by the others.
    z = z[low != z.max(axis=1)]
    if len(z) <= 2:
        mask[ids[_frontier_2d(z)]] = True
        return mask
    # Descending sort on the first objective (ties broken by the rest)
    # lets the earliest rows, used as references a batch at a time,
    # eliminate large swaths at once: O(frontier / batch) iterations.
    order = np.lexsort(-z[::-1])
    z = z[:, order]
    ids = ids[order]
    i = 0
    while i < z.shape[1]:
        refs = z[:, i : i + max(1, _COMPARISONS_PER_PASS // z.size)]
        # dominated[r, j]: reference r is >= row j everywhere, > somewhere.
        dominated = np.ones((refs.shape[1], z.shape[1]), dtype=bool)
        better = np.zeros_like(dominated)
        for objective, ref in zip(z, refs):
            dominated &= objective <= ref[:, np.newaxis]
            better |= objective < ref[:, np.newaxis]
        keep = ~(dominated & better).any(axis=0)
        i = int(np.count_nonzero(keep[: i + refs.shape[1]]))
        z = z[:, keep]
        ids = ids[keep]
    mask[ids] = True
    return mask


def _frontier_2d(z: np.ndarray) -> np.ndarray:
    """Non-dominated columns of a ``(k <= 2, n)`` NaN-free maximization
    matrix ``[x, y]`` (a missing ``y`` is 0 everywhere).

    From :data:`_PREFILTER_MIN_POINTS` points on, the exact frontier of
    every :data:`_PREFILTER_STRIDE`-th point is a staircase of pivots:
    sorted by ``x`` ascending, their ``y`` falls.  The first pivot with
    ``x_p >= x`` has the best ``y`` of all pivots that reach ``x``, so
    one ``searchsorted`` finds, for each point, the only pivot that
    needs a look; every point it dominates is dropped.  Pivots are real
    points and dominance is transitive, so nothing dropped was on the
    frontier, and a point equal to its pivot survives.  When over a
    quarter of the sample is on its own frontier the prefilter would
    drop little, and every point goes to :func:`_sorted_frontier`.
    """
    k, n = z.shape
    if k == 0:
        return np.ones(n, dtype=bool)
    xs = z[0]
    ys = z[1] if k == 2 else np.zeros(n)
    if n >= _PREFILTER_MIN_POINTS:
        sx = xs[::_PREFILTER_STRIDE]
        sy = ys[::_PREFILTER_STRIDE]
        pivots = np.flatnonzero(_sorted_frontier(sx, sy))
        if 4 * pivots.size <= sx.size:
            order = np.argsort(sx[pivots])
            px = sx[pivots[order]]
            py = sy[pivots[order]]
            # The first pivot with x_p >= x, if any, and its point.
            at = np.searchsorted(px, xs, side="left")
            reached = at < px.size
            at = np.minimum(at, px.size - 1)
            bx = px[at]
            by = py[at]
            dropped = reached & (by >= ys) & ((bx > xs) | (by > ys))
            kept = np.flatnonzero(~dropped)
            _FRONTIER_SORTED.inc(kept.size)
            mask = np.zeros(n, dtype=bool)
            mask[kept[_sorted_frontier(xs[kept], ys[kept])]] = True
            return mask
    _FRONTIER_SORTED.inc(n)
    return _sorted_frontier(xs, ys)


def _sorted_frontier(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The frontier of points ``(xs, ys)`` by one sort and one running
    maximum.

    Points sorted by ``x`` descending form groups of equal ``x``; a
    point survives when its ``y`` is its group's best and strictly beats
    the best ``y`` of every group with a larger ``x``.  The first group
    has no such rival (``-inf`` cannot stand in for "none": a ``y`` of
    ``-inf`` there is still on the frontier).
    """
    order = np.argsort(-xs)
    xs = xs[order]
    ys = ys[order]
    opens = np.empty(xs.size, dtype=bool)
    opens[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=opens[1:])
    best = np.maximum.reduceat(ys, np.flatnonzero(opens))
    alive = np.empty(best.size, dtype=bool)
    alive[0] = True
    np.greater(best[1:], np.maximum.accumulate(best)[:-1], out=alive[1:])
    group = np.cumsum(opens) - 1
    mask = np.zeros(xs.size, dtype=bool)
    mask[order[alive[group] & (ys == best[group])]] = True
    return mask


def efficiency_values(
    speedup: np.ndarray | float, cost: np.ndarray | float
) -> np.ndarray:
    """Speedup per unit cost, NaN-masked — the grid form of
    :attr:`repro.core.design_space.DesignPoint.efficiency`.

    Zero, negative, or NaN costs and NaN speedups yield NaN (never a
    divide error or warning); infinite speedups over finite positive
    costs stay infinite.
    """
    s, c = np.broadcast_arrays(
        np.asarray(speedup, dtype=float), np.asarray(cost, dtype=float)
    )
    valid = (c > 0) & ~np.isnan(s)
    return np.where(valid, s / np.where(valid, c, 1.0), np.nan)


def _canonical_point_json(point: Mapping[str, Any]) -> str:
    """Deterministic JSON of one point dict (total-order tie-break)."""
    return json.dumps(
        point, sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def canonical_points(
    values: np.ndarray,
    columns: Mapping[str, np.ndarray],
    objectives: Sequence[str] = PARETO_OBJECTIVES,
    maximize: Sequence[bool] = PARETO_MAXIMIZE,
) -> list[dict[str, Any]]:
    """Point rows as dicts in the canonical (deterministic) order.

    The order sorts best-first by sense-adjusted objectives and breaks
    exact objective ties by the canonical JSON of the whole point, so
    the result is a pure function of the point *set* — identical no
    matter how many workers or blocks produced it.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    signs = np.where(np.asarray(maximize, dtype=bool), 1.0, -1.0)
    rows: list[tuple[tuple, dict[str, Any]]] = []
    for i in range(n):
        point: dict[str, Any] = {
            name: float(values[i, j]) for j, name in enumerate(objectives)
        }
        for name, col in columns.items():
            item = col[i]
            point[name] = item.item() if hasattr(item, "item") else item
        key = tuple(float(-signs[j] * values[i, j]) for j in range(len(objectives)))
        rows.append((key + (_canonical_point_json(point),), point))
    rows.sort(key=lambda row: row[0])
    return [point for _, point in rows]


class ParetoAccumulator:
    """A streaming, mergeable Pareto frontier.

    Feed blocks of candidate points with :meth:`add`; the accumulator
    keeps only the non-dominated subset of everything seen, so memory is
    O(block + frontier).  Partial accumulators combine with
    :meth:`merge`, and because a point survives the union exactly when
    no point anywhere dominates it, the merged frontier is independent
    of how points were partitioned into blocks or workers.

    Args:
        objectives: objective column names, in ``values`` column order.
        maximize: per-objective sense (False = minimize).
        columns: names of per-point annotation columns carried along.
    """

    def __init__(
        self,
        objectives: Sequence[str] = PARETO_OBJECTIVES,
        maximize: Sequence[bool] = PARETO_MAXIMIZE,
        columns: Sequence[str] = PARETO_COLUMNS,
    ) -> None:
        if len(objectives) != len(maximize):
            raise ValueError("objectives and maximize must align")
        self.objectives = tuple(objectives)
        self.maximize = tuple(bool(m) for m in maximize)
        self.column_names = tuple(columns)
        self._values = np.empty((0, len(self.objectives)), dtype=float)
        self._columns: dict[str, np.ndarray] = {
            name: np.empty((0,), dtype=object) for name in self.column_names
        }
        self.points_seen = 0

    @property
    def size(self) -> int:
        """Current frontier size."""
        return self._values.shape[0]

    def add(
        self,
        values: np.ndarray,
        columns: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Stream one block of candidate points into the frontier.

        Args:
            values: ``(n, k)`` objective matrix (NaN rows are counted
                but can never reach the frontier).
            columns: per-point annotation arrays, one length-``n`` entry
                per configured column name.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.objectives):
            raise ValueError(
                f"expected (n, {len(self.objectives)}) values, "
                f"got shape {values.shape}"
            )
        n = values.shape[0]
        columns = columns or {}
        if set(columns) != set(self.column_names):
            raise ValueError(
                f"columns {sorted(columns)} != expected "
                f"{sorted(self.column_names)}"
            )
        cols = {}
        for name in self.column_names:
            col = np.asarray(columns[name])
            if col.shape != (n,):
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, expected ({n},)"
                )
            cols[name] = col
        self.points_seen += n
        if n:
            self._absorb(values, cols)

    def _absorb(
        self, values: np.ndarray, columns: Mapping[str, np.ndarray]
    ) -> None:
        cand = np.concatenate([self._values, values])
        mask = non_dominated_mask(cand, self.maximize)
        self._values = cand[mask]
        self._columns = {
            name: np.concatenate(
                [
                    self._columns[name],
                    np.asarray(columns[name], dtype=object),
                ]
            )[mask]
            for name in self.column_names
        }

    def merge(self, other: "ParetoAccumulator | Mapping[str, Any]") -> None:
        """Fold another (partial) accumulator or its :meth:`state` in.

        Jobs-invariant: merging per-shard partials yields exactly the
        frontier a single accumulator over all points would hold.
        """
        if isinstance(other, Mapping):
            other = ParetoAccumulator.from_state(other)
        if (
            other.objectives != self.objectives
            or other.maximize != self.maximize
            or other.column_names != self.column_names
        ):
            raise ValueError("cannot merge accumulators with different schemas")
        self.points_seen += other.points_seen
        if other.size:
            self._absorb(other._values, other._columns)

    def state(self) -> dict[str, Any]:
        """JSON-safe snapshot: cacheable, picklable, mergeable.

        Floats round-trip exactly (Python ``repr`` semantics); ``inf``
        is permitted — states are internal artifacts, serialized with
        ``allow_nan=True`` like every cache payload.
        """
        return {
            "objectives": list(self.objectives),
            "maximize": list(self.maximize),
            "columns": {
                name: np.asarray(col).tolist()
                for name, col in self._columns.items()
            },
            "values": self._values.tolist(),
            "points_seen": int(self.points_seen),
        }

    @classmethod
    def _of_frontier(
        cls,
        values: np.ndarray,
        columns: Mapping[str, np.ndarray],
        points_seen: int,
    ) -> "ParetoAccumulator":
        """An accumulator of the default schema holding ``values`` as its
        frontier as given: the rows must be mutually non-dominated, which
        spares the dominance pass :meth:`add` would run."""
        acc = cls()
        acc._values = values
        acc._columns = {
            name: np.asarray(columns[name], dtype=object)
            for name in acc.column_names
        }
        acc.points_seen = points_seen
        return acc

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "ParetoAccumulator":
        """Rebuild from a :meth:`state` snapshot."""
        acc = cls(
            objectives=tuple(state["objectives"]),
            maximize=tuple(bool(m) for m in state["maximize"]),
            columns=tuple(state["columns"]),
        )
        values = np.asarray(state["values"], dtype=float).reshape(
            -1, len(acc.objectives)
        )
        acc._values = values
        acc._columns = {
            name: np.asarray(list(col), dtype=object)
            for name, col in state["columns"].items()
        }
        acc.points_seen = int(state["points_seen"])
        return acc

    def points(self) -> list[dict[str, Any]]:
        """The frontier as dicts in canonical, partition-independent order."""
        return canonical_points(
            self._values, self._columns, self.objectives, self.maximize
        )


# --------------------------------------------------------------- sweeps


@dataclass(frozen=True)
class ParetoSweepSpec:
    """A multi-objective TCA design-space sweep.

    The swept lattice is the cross product ``cores × modes × tech ×
    fractions × frequencies``; each feasible cell becomes one candidate
    point scored on :data:`PARETO_OBJECTIVES`.  ``block_size`` bounds
    the cells any single vectorized evaluation materializes.

    Attributes:
        cores: processor parameter sets to sweep.
        accelerator: the TCA under study.
        fractions: acceleratable-fraction axis (``a``).
        frequencies: invocation-frequency axis (``v``).
        modes: integration modes to sweep (default: all four).
        tech: technology-node names (see :mod:`repro.core.tech`).
        energy: reference-node energy parameters (tech-scaled per node).
        drain_estimator: NL-mode drain strategy (default power law).
        block_size: max grid cells per streamed evaluation block.
    """

    cores: tuple[CoreParameters, ...]
    accelerator: AcceleratorParameters
    fractions: tuple[float, ...]
    frequencies: tuple[float, ...]
    modes: tuple[TCAMode, ...] = TCAMode.all_modes()
    tech: tuple[str, ...] = (DEFAULT_TECH,)
    energy: EnergyParameters = field(default_factory=EnergyParameters)
    drain_estimator: DrainEstimator | None = None
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        for name in ("cores", "fractions", "frequencies", "modes", "tech"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        for node in self.tech:
            get_tech_node(node)  # fail fast on unknown names

    @property
    def panel_count(self) -> int:
        """Number of (core, mode, tech) grid panels."""
        return len(self.cores) * len(self.modes) * len(self.tech)

    @property
    def total_points(self) -> int:
        """Total lattice cells (feasible or not) the sweep covers."""
        return self.panel_count * len(self.fractions) * len(self.frequencies)

    def to_canonical_dict(self) -> dict[str, Any]:
        """Everything a result is a function of, as stable JSON types.

        Cache keys build on this; ``block_size`` is excluded — chunking
        changes how the frontier is computed, never what it is — but
        per-chunk keys append their own axis slice (see
        :func:`repro.serve.stream.pareto_chunk_key`).
        """
        return {
            "cores": [core.to_canonical_dict() for core in self.cores],
            "accelerator": self.accelerator.to_canonical_dict(),
            "fractions": [float(a) for a in self.fractions],
            "frequencies": [float(v) for v in self.frequencies],
            "modes": [mode.value for mode in self.modes],
            "tech": list(self.tech),
            "energy": self.energy.to_canonical_dict(),
            "drain": (self.drain_estimator or PowerLawDrain()).cache_config(),
        }

    def chunks(self) -> Iterator["ParetoChunk"]:
        """The sweep as self-contained evaluation chunks, in order.

        Each (core, mode, tech) panel's fraction axis is sliced so a
        chunk never materializes more than ``block_size`` grid cells —
        the invariant the peak-memory guarantee rests on.
        """
        rows = max(1, self.block_size // len(self.frequencies))
        index = 0
        for core in self.cores:
            for mode in self.modes:
                for tech in self.tech:
                    for start in range(0, len(self.fractions), rows):
                        stop = min(start + rows, len(self.fractions))
                        yield ParetoChunk(
                            index=index,
                            core=core,
                            accelerator=self.accelerator,
                            energy=self.energy,
                            mode=mode,
                            tech=tech,
                            fractions=self.fractions[start:stop],
                            frequencies=self.frequencies,
                            a_start=start,
                            a_stop=stop,
                            drain_estimator=self.drain_estimator,
                        )
                        index += 1


@dataclass(frozen=True)
class ParetoChunk:
    """One self-contained, picklable unit of sweep work.

    A (core, mode, tech) panel restricted to a slice of the fraction
    axis — everything :func:`evaluate_pareto_chunk` needs, so chunks
    fan out to :func:`~repro.core.parallel.parallel_map` workers
    without shared state.
    """

    index: int
    core: CoreParameters
    accelerator: AcceleratorParameters
    energy: EnergyParameters
    mode: TCAMode
    tech: str
    fractions: tuple[float, ...]
    frequencies: tuple[float, ...]
    a_start: int
    a_stop: int
    drain_estimator: DrainEstimator | None = None

    @property
    def lattice_points(self) -> int:
        """Grid cells this chunk covers (feasible or not)."""
        return len(self.fractions) * len(self.frequencies)


def _feasible_mask(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cells that form a valid, invoking workload (the design points)."""
    return (
        (a > 0.0) & (a <= 1.0) & (v > 0.0) & (v <= 1.0) & (a >= v)
    )


def evaluate_pareto_chunk(chunk: ParetoChunk) -> ParetoAccumulator:
    """Evaluate one chunk's grid and reduce it to a partial frontier.

    Vectorized end to end: one :func:`~repro.core.model.mode_time_grid`
    pass feeds both the speedup and the energy-ratio columns (the
    arithmetic of :func:`~repro.core.model.speedup_grid` and
    :func:`~repro.core.energy.energy_grid`, with the chunk's tech node
    scaling the energy parameters), then one dominance pass over the
    feasible cells, whose frontier rows become the partial frontier as
    they are; the per-point annotation columns are built for those rows
    only.
    """
    node = get_tech_node(chunk.tech)
    fractions = np.asarray(chunk.fractions, dtype=float)
    frequencies = np.asarray(chunk.frequencies, dtype=float)
    cells = _grid_cells(fractions[:, np.newaxis], frequencies[np.newaxis, :])
    # Counted as the speedup and energy grids this pass stands for.
    _EVALUATIONS.inc(cells.evaluated)
    _ENERGY_CELLS.inc(cells.evaluated)
    time = mode_time_grid(
        chunk.core,
        chunk.accelerator,
        cells.sa,
        cells.sv,
        chunk.mode,
        chunk.drain_estimator,
    )
    area = float(node.scale_area(MODE_COSTS[chunk.mode].total))
    feasible = cells.active  # the design points: valid, invoking workloads
    s = _speedup_values(chunk.core, cells.sv, time)[feasible]
    n = s.size
    _PARETO_POINTS.inc(n)
    if not n:
        return ParetoAccumulator()
    *_, ratio = _energy_values(
        chunk.core, node.scale_energy(chunk.energy), cells.sa, cells.sv, time
    )
    ratio = ratio[feasible]
    # The panel's area is constant, so speedup and the (negated) energy
    # ratio alone decide dominance.
    rows = np.flatnonzero(_non_dominated_rows(np.stack([s, -ratio])))
    kept = rows.size
    a_at, v_at = np.divmod(np.flatnonzero(feasible)[rows], frequencies.size)
    speedup = s[rows]
    return ParetoAccumulator._of_frontier(
        np.column_stack([speedup, ratio[rows], np.full(kept, area)]),
        {
            "core": np.full(kept, chunk.core.name, dtype=object),
            "mode": np.full(kept, chunk.mode.value, dtype=object),
            "tech": np.full(kept, chunk.tech, dtype=object),
            "acceleratable_fraction": fractions[a_at],
            "invocation_frequency": frequencies[v_at],
            "efficiency": efficiency_values(speedup, area),
        },
        points_seen=n,  # every feasible cell was a candidate
    )


def _reduce_chunk_state(chunk: ParetoChunk) -> dict[str, Any]:
    """Worker entry point: one chunk reduced to its frontier state."""
    return evaluate_pareto_chunk(chunk).state()


def sweep_pareto(spec: ParetoSweepSpec, jobs: int = 1) -> ParetoAccumulator:
    """Run the full sweep and return the merged streaming frontier.

    With ``jobs > 1`` chunks fan out over
    :func:`~repro.core.parallel.parallel_map` worker processes, each
    reducing its chunks to small partial-frontier states; the supervisor
    merges them in deterministic chunk order.  The result — including
    :meth:`ParetoAccumulator.points` order — is identical for every
    ``jobs`` value.
    """
    chunks = list(spec.chunks())
    states = parallel_map(_reduce_chunk_state, chunks, jobs=jobs)
    acc = ParetoAccumulator()
    for state in states:
        acc.merge(state)
    return acc


def _dominates(p: Sequence[float], q: Sequence[float], maximize: Sequence[bool]) -> bool:
    """Scalar dominance: ``p`` at least ties ``q`` everywhere, beats it once."""
    at_least_as_good = True
    strictly_better = False
    for pv, qv, bigger in zip(p, q, maximize):
        if pv != pv or qv != qv:  # NaN never dominates / is never beaten
            return False
        better = pv > qv if bigger else pv < qv
        worse = pv < qv if bigger else pv > qv
        if worse:
            at_least_as_good = False
            break
        if better:
            strictly_better = True
    return at_least_as_good and strictly_better


def sweep_pareto_scalar(spec: ParetoSweepSpec) -> list[dict[str, Any]]:
    """The scalar oracle: per-point models plus quadratic dominance.

    Evaluates every feasible lattice cell through the scalar
    :class:`~repro.core.model.TCAModel` and
    :class:`~repro.core.energy.EnergyModel`, then removes dominated
    points by exhaustive pairwise comparison.  Output format and order
    match :meth:`ParetoAccumulator.points` exactly.  O(points²) — for
    tests and benchmark cross-checks at modest scale only.
    """
    rows: list[tuple[tuple[float, float, float], dict[str, Any]]] = []
    for core in spec.cores:
        for mode in spec.modes:
            for tech in spec.tech:
                node = get_tech_node(tech)
                params = node.scale_energy(spec.energy)
                area = float(node.scale_area(MODE_COSTS[mode].total))
                for a in spec.fractions:
                    for v in spec.frequencies:
                        if not bool(
                            _feasible_mask(np.float64(a), np.float64(v))
                        ):
                            continue
                        model = TCAModel(
                            core,
                            spec.accelerator,
                            WorkloadParameters(float(a), float(v)),
                            drain_estimator=spec.drain_estimator,
                        )
                        speedup = model.speedup(mode)
                        ratio = EnergyModel(model, params).energy_ratio(mode)
                        efficiency = (
                            speedup / area if area > 0 else float("nan")
                        )
                        rows.append(
                            (
                                (speedup, ratio, area),
                                {
                                    "speedup": float(speedup),
                                    "energy_ratio": float(ratio),
                                    "area": area,
                                    "core": core.name,
                                    "mode": mode.value,
                                    "tech": tech,
                                    "acceleratable_fraction": float(a),
                                    "invocation_frequency": float(v),
                                    "efficiency": float(efficiency),
                                },
                            )
                        )
    frontier = [
        point
        for objectives, point in rows
        if not any(
            _dominates(other, objectives, PARETO_MAXIMIZE)
            for other, _ in rows
        )
    ]
    signs = [1.0 if m else -1.0 for m in PARETO_MAXIMIZE]
    frontier.sort(
        key=lambda point: tuple(
            -s * point[name] for s, name in zip(signs, PARETO_OBJECTIVES)
        )
        + (_canonical_point_json(point),)
    )
    return frontier
