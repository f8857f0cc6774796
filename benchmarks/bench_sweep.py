"""Micro-benchmark: scalar loop vs vectorized vs multi-process sweeps.

Times the Fig. 7 heatmap workload (8 panels: {HP, LP} x 4 modes) three
ways and writes the throughputs to ``BENCH_sweep.json``:

- **scalar** — the reference oracle: one ``TCAModel`` per feasible cell
  (:func:`repro.core.sweep.speedup_heatmap_scalar`);
- **vectorized** — the production path: one closed-form
  :func:`repro.core.model.speedup_grid` pass per panel;
- **jobs** — the vectorized path fanned over worker processes with
  :func:`repro.core.parallel.parallel_map` (the ``--jobs`` backend).

Run it directly (defaults to the paper's full-scale grid)::

    PYTHONPATH=src python benchmarks/bench_sweep.py
    PYTHONPATH=src python benchmarks/bench_sweep.py --scale smoke --jobs 2

"points" are evaluated (feasible) cells; points/sec is the comparable
throughput number.  The script also cross-checks that all three paths
produce identical NaN masks and values within 1e-9, so the speedup
numbers can't silently come from computing something different.

A second section benchmarks the **streaming Pareto engine**
(:func:`repro.core.pareto.sweep_pareto`): a million-cell
core × mode × tech × (a, v) lattice reduced to its
speedup/energy/area frontier in bounded memory, cross-checked for
*exact* frontier equality against the scalar per-point oracle on a
seeded reduced grid, with the tracemalloc peak asserted against a
block-size-proportional budget.  ``frontier_sorted`` is how many of the
feasible points the dominance kernel still sorted after its staircase
prefilter (the ``model.pareto_frontier_sorted`` counter over one sweep).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tracemalloc
from time import perf_counter

import numpy as np

from repro.core.modes import TCAMode
from repro.core.parallel import parallel_map
from repro.core.parameters import HIGH_PERF, LOW_PERF, AcceleratorParameters
from repro.core.pareto import (
    ParetoSweepSpec,
    sweep_pareto,
    sweep_pareto_scalar,
)
from repro.core.sweep import speedup_heatmap, speedup_heatmap_scalar
from repro.experiments.fig7_heatmap import _GRID, _MODE_ORDER, _panel
from repro.obs.manifest import bench_provenance
from repro.obs.metrics import get_registry

#: Best-of-N timing repetitions per approach.
REPEATS = 3

ACCELERATOR = AcceleratorParameters(name="bench", acceleration=1.5)

#: Pareto lattice per scale: (fractions, frequencies).  Combined with
#: 2 cores x 4 modes x 2 tech nodes, "full" covers 16 x 260 x 250 =
#: 1.04M lattice cells — the million-point target.
PARETO_GRID = {"full": (260, 250), "smoke": (16, 16)}

#: Reduced seeded grid for the scalar-oracle cross-check (the oracle is
#: O(points^2) in its dominance filter; keep it honest but affordable).
PARETO_ORACLE_GRID = {"full": (12, 12), "smoke": (8, 8)}

PARETO_TECH = ("cmos-hp-45", "finfet-hp-20")

#: tracemalloc peak budget per lattice cell of one evaluation block.
#: A block touches a few dozen float64 temporaries (speedup grid,
#: energy grid, masks, column stack); 64 doublewords/cell bounds that
#: with headroom while still catching an accidentally O(total) path.
PARETO_PEAK_BYTES_PER_CELL = 64 * 8


def _pareto_spec(scale: str, oracle: bool = False) -> ParetoSweepSpec:
    n_frac, n_freq = (PARETO_ORACLE_GRID if oracle else PARETO_GRID)[scale]
    return ParetoSweepSpec(
        cores=(HIGH_PERF, LOW_PERF),
        accelerator=ACCELERATOR,
        fractions=tuple(np.linspace(0.02, 1.0, n_frac)),
        frequencies=tuple(np.logspace(-5, -0.5, n_freq)),
        tech=PARETO_TECH,
    )


def _tasks(scale: str) -> list[tuple]:
    n_frac, n_freq = _GRID[scale]
    fractions = np.linspace(0.02, 1.0, n_frac)
    frequencies = np.logspace(-5, -0.5, n_freq)
    return [
        (core, mode, fractions, frequencies)
        for core in (HIGH_PERF, LOW_PERF)
        for mode in _MODE_ORDER
    ]


def _run_scalar(tasks) -> list:
    return [
        speedup_heatmap_scalar(core, ACCELERATOR, mode, fractions, frequencies)
        for core, mode, fractions, frequencies in tasks
    ]


def _run_vectorized(tasks) -> list:
    return [
        speedup_heatmap(core, ACCELERATOR, mode, fractions, frequencies)
        for core, mode, fractions, frequencies in tasks
    ]


def _best_of(fn, tasks, repeats: int = REPEATS) -> tuple[float, list]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = perf_counter()
        result = fn(tasks)
        best = min(best, perf_counter() - started)
    return best, result


def _verify(reference, candidates, label: str) -> float:
    """Equal NaN masks and values within 1e-9; returns max |rel diff|."""
    worst = 0.0
    for ref, got in zip(reference, candidates):
        if not np.array_equal(np.isnan(ref.speedup), np.isnan(got.speedup)):
            raise AssertionError(f"{label}: NaN feasibility mask differs")
        feasible = ~np.isnan(ref.speedup)
        rel = np.abs(got.speedup[feasible] - ref.speedup[feasible]) / np.abs(
            ref.speedup[feasible]
        )
        worst = max(worst, float(rel.max()))
        if worst > 1e-9:
            raise AssertionError(f"{label}: max rel diff {worst} > 1e-9")
    return worst


def _bench_pareto(scale: str) -> dict:
    """Time the streaming Pareto reduction and cross-check the oracle."""
    spec = _pareto_spec(scale)

    sorted_rows = get_registry().counter("model.pareto_frontier_sorted")
    sorted_before = sorted_rows.value
    vector_s = float("inf")
    accumulator = None
    for _ in range(REPEATS):
        started = perf_counter()
        accumulator = sweep_pareto(spec)
        vector_s = min(vector_s, perf_counter() - started)
    # Deterministic per sweep: the rows the 2-objective kernel sorted
    # after its staircase prefilter dropped the dominated bulk.
    frontier_sorted = (sorted_rows.value - sorted_before) // REPEATS

    # Exact frontier equality against the scalar per-point oracle on the
    # seeded reduced grid (same axes, coarser resolution).
    oracle_spec = _pareto_spec(scale, oracle=True)
    scalar_s = float("inf")
    oracle_points = None
    for _ in range(REPEATS):
        started = perf_counter()
        oracle_points = sweep_pareto_scalar(oracle_spec)
        scalar_s = min(scalar_s, perf_counter() - started)
    if sweep_pareto(oracle_spec).points() != oracle_points:
        raise AssertionError(
            "pareto: streamed frontier differs from the scalar oracle"
        )

    # Peak memory must scale with the block, never the lattice.
    tracemalloc.start()
    sweep_pareto(spec)
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    budget_bytes = spec.block_size * PARETO_PEAK_BYTES_PER_CELL
    if peak_bytes > budget_bytes:
        raise AssertionError(
            f"pareto: tracemalloc peak {peak_bytes / 1e6:.1f}MB exceeds the "
            f"block-proportional budget {budget_bytes / 1e6:.1f}MB "
            f"({spec.block_size} cells x {PARETO_PEAK_BYTES_PER_CELL}B)"
        )

    vector_pps = spec.total_points / vector_s if vector_s > 0 else float("inf")
    scalar_pps = (
        oracle_spec.total_points / scalar_s if scalar_s > 0 else float("inf")
    )
    return {
        "lattice_points": spec.total_points,
        "feasible_points": accumulator.points_seen,
        "frontier_size": accumulator.size,
        "frontier_sorted": frontier_sorted,
        "block_size": spec.block_size,
        "oracle_match": True,
        "peak_memory_mb": peak_bytes / 1e6,
        "peak_budget_mb": budget_bytes / 1e6,
        "vectorized": {
            "seconds": vector_s,
            "points_per_sec": vector_pps,
        },
        "scalar_sample": {
            "lattice_points": oracle_spec.total_points,
            "seconds": scalar_s,
            "points_per_sec": scalar_pps,
        },
        "speedup_vs_scalar": (
            vector_pps / scalar_pps if scalar_pps > 0 else float("inf")
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=tuple(_GRID),
        default="full",
        help="grid size (default: full, the paper's Fig. 7 resolution)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(4, os.cpu_count() or 1),
        metavar="N",
        help="worker processes for the parallel measurement (default: "
        "min(4, cpu_count))",
    )
    parser.add_argument(
        "--out",
        default="BENCH_sweep.json",
        help="output JSON path (default: BENCH_sweep.json)",
    )
    args = parser.parse_args(argv)

    tasks = _tasks(args.scale)
    n_frac, n_freq = _GRID[args.scale]

    scalar_s, scalar_heats = _best_of(_run_scalar, tasks)
    vector_s, vector_heats = _best_of(_run_vectorized, tasks)
    jobs_s, jobs_heats = _best_of(
        lambda ts: parallel_map(_panel, ts, jobs=args.jobs), tasks
    )

    max_rel = max(
        _verify(scalar_heats, vector_heats, "vectorized"),
        _verify(scalar_heats, jobs_heats, f"jobs={args.jobs}"),
    )
    points = sum(int((~np.isnan(h.speedup)).sum()) for h in scalar_heats)

    def entry(seconds: float, **extra) -> dict:
        return {
            "seconds": seconds,
            "points_per_sec": points / seconds if seconds > 0 else float("inf"),
            "speedup_vs_scalar": scalar_s / seconds if seconds > 0 else float("inf"),
            **extra,
        }

    pareto = _bench_pareto(args.scale)

    payload = {
        "bench": "sweep",
        "scale": args.scale,
        "grid": {
            "fractions": n_frac,
            "frequencies": n_freq,
            "panels": len(tasks),
            "evaluated_points": points,
        },
        "repeats": REPEATS,
        "max_rel_diff_vs_scalar": max_rel,
        "scalar": entry(scalar_s),
        "vectorized": entry(vector_s),
        "jobs": entry(jobs_s, n=args.jobs),
        "pareto": pareto,
        "provenance": bench_provenance(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    print(
        f"sweep bench (scale={args.scale}, {points} points over "
        f"{len(tasks)} panels, best of {REPEATS}):"
    )
    for label in ("scalar", "vectorized", "jobs"):
        row = payload[label]
        print(
            f"  {label:<12} {row['seconds']:>9.4f}s  "
            f"{row['points_per_sec']:>12.0f} points/s  "
            f"{row['speedup_vs_scalar']:>7.1f}x vs scalar"
        )
    print(f"  max rel diff vs scalar: {max_rel:.2e}")
    print(
        f"pareto bench ({pareto['lattice_points']} lattice points, "
        f"{pareto['feasible_points']} feasible, "
        f"{pareto['frontier_sorted']} sorted, frontier "
        f"{pareto['frontier_size']}):"
    )
    print(
        f"  streamed     {pareto['vectorized']['seconds']:>9.4f}s  "
        f"{pareto['vectorized']['points_per_sec']:>12.0f} points/s  "
        f"{pareto['speedup_vs_scalar']:>7.1f}x vs scalar oracle"
    )
    print(
        f"  peak memory  {pareto['peak_memory_mb']:.1f}MB "
        f"(budget {pareto['peak_budget_mb']:.1f}MB for block size "
        f"{pareto['block_size']})"
    )
    print(f"[written {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
