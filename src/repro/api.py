"""The public façade: one coherent entry point over model and simulator.

Four verbs cover the package's common questions, each returning a typed,
JSON-round-trippable result:

- :func:`evaluate` — "what does this TCA buy me?" — analytical speedups
  for one (core, accelerator, workload) point, optionally cached;
- :func:`sweep` — "how does that change across a design axis?" —
  granularity/fraction/frequency sweeps through the vectorized path;
- :func:`pareto_sweep` — "which designs are worth building?" — a
  streaming multi-objective sweep over cores × modes × tech nodes ×
  an ``(a, v)`` lattice, reduced to its speedup/energy/area Pareto
  frontier in bounded memory (:mod:`repro.core.pareto`);
- :func:`simulate` — "what does the cycle-level simulator say?" — one
  trace on one configuration, optionally cached by content;
- :func:`compare` — "model vs. silicon-stand-in" — a baseline trace plus
  an accelerated trace under each integration mode, with per-mode
  speedups.

Quick start::

    from repro import evaluate, ARM_A72, AcceleratorParameters, WorkloadParameters

    result = evaluate(
        ARM_A72,
        AcceleratorParameters(name="heap", acceleration=3.0),
        WorkloadParameters.from_granularity(53, acceleratable_fraction=0.3),
    )
    print(result.best_mode, result.speedups[result.best_mode])

Every result type provides ``to_dict``/``from_dict`` with stable string
keys (modes serialize by value), which is exactly what the HTTP service
(:mod:`repro.serve.service`) sends over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.drain import DrainEstimator
from repro.core.energy import EnergyParameters
from repro.core.modes import TCAMode
from repro.core.pareto import (
    DEFAULT_BLOCK_SIZE,
    PARETO_MAXIMIZE,
    PARETO_OBJECTIVES,
    ParetoSweepSpec,
    sweep_pareto,
)
from repro.core.tech import DEFAULT_TECH
from repro.core.parameters import (
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)
from repro.core.sweep import (
    SweepResult as _CoreSweepResult,
    fraction_sweep,
    frequency_sweep,
    granularity_sweep,
)
from repro.isa.trace import Trace
from repro.obs.span import span
from repro.obs.tracer import PipelineTracer
from repro.serve.batch import EvaluationQuery, evaluate_batch
from repro.serve.cache import MISS, EvaluationCache
from repro.serve.keys import simulation_key
from repro.sim import simulator as _simulator
from repro.sim.simulator import ModeComparison, SimulationResult
from repro.sim.compile import CompiledTrace
from repro.sim.compile import compile_trace as _compile_trace
from repro.sim.config import SimConfig
from repro.sim.sample import (
    SamplingConfig,
    ambient_sampling,
    coerce_sampling,
)
from repro.sim.stats import SimStats

__all__ = [
    "ComparisonResult",
    "EvaluationResult",
    "ParetoPoint",
    "ParetoSweepResult",
    "SimulationResult",
    "SweepResult",
    "compare",
    "evaluate",
    "pareto_sweep",
    "simulate",
    "sweep",
]

#: :func:`compare`'s result: the simulator's own comparison type under
#: its façade name.
ComparisonResult = ModeComparison

#: Sweep kinds :func:`sweep` accepts.
SWEEP_KINDS = ("granularity", "fraction", "frequency")


def _core_to_dict(core: CoreParameters) -> dict[str, Any]:
    return {"name": core.name, **core.to_canonical_dict()}


def _core_from_dict(payload: Mapping[str, Any]) -> CoreParameters:
    return CoreParameters(
        ipc=float(payload["ipc"]),
        rob_size=int(payload["rob_size"]),
        issue_width=int(payload["issue_width"]),
        commit_stall=float(payload["commit_stall"]),
        name=str(payload.get("name", "")),
    )


def _accelerator_to_dict(accelerator: AcceleratorParameters) -> dict[str, Any]:
    return {"name": accelerator.name, **accelerator.to_canonical_dict()}


def _accelerator_from_dict(payload: Mapping[str, Any]) -> AcceleratorParameters:
    acceleration = payload.get("acceleration")
    latency = payload.get("latency")
    return AcceleratorParameters(
        name=str(payload.get("name", "tca")),
        acceleration=None if acceleration is None else float(acceleration),
        latency=None if latency is None else float(latency),
    )


def _workload_to_dict(workload: WorkloadParameters) -> dict[str, Any]:
    return workload.to_canonical_dict()


def _workload_from_dict(payload: Mapping[str, Any]) -> WorkloadParameters:
    drain_time = payload.get("drain_time")
    return WorkloadParameters(
        acceleratable_fraction=float(payload["acceleratable_fraction"]),
        invocation_frequency=float(payload["invocation_frequency"]),
        drain_time=None if drain_time is None else float(drain_time),
    )


@dataclass(frozen=True)
class EvaluationResult:
    """Analytical speedups of one operating point.

    Attributes:
        core: processor parameters evaluated.
        accelerator: TCA parameters evaluated.
        workload: program parameters evaluated.
        speedups: per-mode predicted speedup over the software baseline.
        cached: whether *every* mode was answered from the cache.
    """

    core: CoreParameters
    accelerator: AcceleratorParameters
    workload: WorkloadParameters
    speedups: Mapping[TCAMode, float]
    cached: bool = False

    @property
    def best_mode(self) -> TCAMode:
        """The mode with the highest predicted speedup (L_T wins ties)."""
        return max(
            self.speedups,
            key=lambda mode: (self.speedups[mode], mode is TCAMode.L_T),
        )

    @property
    def slowdown_modes(self) -> tuple[TCAMode, ...]:
        """Modes whose predicted speedup falls below 1.0."""
        return tuple(m for m, s in self.speedups.items() if s < 1.0)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump (modes keyed by their string values)."""
        return {
            "core": _core_to_dict(self.core),
            "accelerator": _accelerator_to_dict(self.accelerator),
            "workload": _workload_to_dict(self.workload),
            "speedups": {m.value: float(s) for m, s in self.speedups.items()},
            "best_mode": self.best_mode.value,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvaluationResult":
        """Rebuild from a :meth:`to_dict` payload."""
        return cls(
            core=_core_from_dict(payload["core"]),
            accelerator=_accelerator_from_dict(payload["accelerator"]),
            workload=_workload_from_dict(payload["workload"]),
            speedups={
                TCAMode(mode): float(speedup)
                for mode, speedup in payload["speedups"].items()
            },
            cached=bool(payload.get("cached", False)),
        )


@dataclass(frozen=True)
class SweepResult:
    """A 1-D design-space sweep of per-mode speedups.

    The façade counterpart of :class:`repro.core.sweep.SweepResult`,
    carrying the same data in JSON-round-trippable form.

    Attributes:
        kind: sweep kind (``granularity``/``fraction``/``frequency``).
        x_label: meaning of the sweep axis.
        x: sweep axis values.
        speedups: per-mode speedup tuples aligned with ``x``.
        core: processor parameters used.
        accelerator: TCA parameters used.
    """

    kind: str
    x_label: str
    x: tuple[float, ...]
    speedups: Mapping[TCAMode, tuple[float, ...]]
    core: CoreParameters
    accelerator: AcceleratorParameters

    @classmethod
    def from_core_sweep(
        cls, kind: str, result: _CoreSweepResult
    ) -> "SweepResult":
        """Wrap a :class:`repro.core.sweep.SweepResult`."""
        return cls(
            kind=kind,
            x_label=result.x_label,
            x=tuple(float(x) for x in result.x),
            speedups={
                mode: tuple(float(s) for s in values)
                for mode, values in result.speedups.items()
            },
            core=result.core,
            accelerator=result.accelerator,
        )

    def rows(self) -> list[dict[str, float]]:
        """The sweep as row dicts (x plus one column per mode)."""
        out = []
        for i, x in enumerate(self.x):
            row: dict[str, float] = {self.x_label: x}
            for mode, values in self.speedups.items():
                row[mode.value] = values[i]
            out.append(row)
        return out

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump (modes keyed by their string values)."""
        return {
            "kind": self.kind,
            "x_label": self.x_label,
            "x": list(self.x),
            "speedups": {
                m.value: list(values) for m, values in self.speedups.items()
            },
            "core": _core_to_dict(self.core),
            "accelerator": _accelerator_to_dict(self.accelerator),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Rebuild from a :meth:`to_dict` payload."""
        return cls(
            kind=str(payload["kind"]),
            x_label=str(payload["x_label"]),
            x=tuple(float(x) for x in payload["x"]),
            speedups={
                TCAMode(mode): tuple(float(s) for s in values)
                for mode, values in payload["speedups"].items()
            },
            core=_core_from_dict(payload["core"]),
            accelerator=_accelerator_from_dict(payload["accelerator"]),
        )


@dataclass(frozen=True)
class ParetoPoint:
    """One frontier design from a :func:`pareto_sweep`.

    Attributes:
        core: name of the processor parameter set.
        mode: TCA integration mode.
        tech: technology-node name.
        acceleratable_fraction: workload ``a`` at this point.
        invocation_frequency: workload ``v`` at this point.
        speedup: predicted program speedup (maximized).
        energy_ratio: mode energy over baseline energy (minimized).
        area: tech-scaled relative hardware area (minimized).
        efficiency: speedup per unit area (derived; NaN-safe).
    """

    core: str
    mode: TCAMode
    tech: str
    acceleratable_fraction: float
    invocation_frequency: float
    speedup: float
    energy_ratio: float
    area: float
    efficiency: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump (mode by its string value)."""
        return {
            "core": self.core,
            "mode": self.mode.value,
            "tech": self.tech,
            "acceleratable_fraction": self.acceleratable_fraction,
            "invocation_frequency": self.invocation_frequency,
            "speedup": self.speedup,
            "energy_ratio": self.energy_ratio,
            "area": self.area,
            "efficiency": self.efficiency,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ParetoPoint":
        """Rebuild from a :meth:`to_dict` payload (or a
        :meth:`repro.core.pareto.ParetoAccumulator.points` row)."""
        return cls(
            core=str(payload["core"]),
            mode=TCAMode(payload["mode"]),
            tech=str(payload["tech"]),
            acceleratable_fraction=float(payload["acceleratable_fraction"]),
            invocation_frequency=float(payload["invocation_frequency"]),
            speedup=float(payload["speedup"]),
            energy_ratio=float(payload["energy_ratio"]),
            area=float(payload["area"]),
            efficiency=float(payload["efficiency"]),
        )


@dataclass(frozen=True)
class ParetoSweepResult:
    """The Pareto frontier of a multi-objective design-space sweep.

    Attributes:
        frontier: the non-dominated designs, in the canonical order of
            :meth:`repro.core.pareto.ParetoAccumulator.points` (best
            speedup first, ties broken deterministically).
        points_seen: feasible design points streamed through the
            reduction.
        total_points: lattice cells the sweep covered (including
            infeasible ``a < v`` cells that produce no point).
    """

    frontier: tuple[ParetoPoint, ...]
    points_seen: int
    total_points: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump."""
        return {
            "objectives": list(PARETO_OBJECTIVES),
            "maximize": list(PARETO_MAXIMIZE),
            "frontier": [point.to_dict() for point in self.frontier],
            "frontier_size": len(self.frontier),
            "points_seen": self.points_seen,
            "total_points": self.total_points,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ParetoSweepResult":
        """Rebuild from a :meth:`to_dict` payload."""
        return cls(
            frontier=tuple(
                ParetoPoint.from_dict(point) for point in payload["frontier"]
            ),
            points_seen=int(payload["points_seen"]),
            total_points=int(payload["total_points"]),
        )


def pareto_sweep(
    cores: CoreParameters | Sequence[CoreParameters],
    accelerator: AcceleratorParameters,
    fractions: Sequence[float] | np.ndarray,
    frequencies: Sequence[float] | np.ndarray,
    *,
    modes: TCAMode | Iterable[TCAMode] | None = None,
    tech: str | Sequence[str] | None = None,
    energy: EnergyParameters | None = None,
    drain_estimator: DrainEstimator | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
    jobs: int = 1,
) -> ParetoSweepResult:
    """Reduce a design-space lattice to its Pareto frontier, streaming.

    Sweeps ``cores × modes × tech × fractions × frequencies``, scoring
    every feasible cell on speedup (max), energy ratio (min), and
    tech-scaled area (min), in blocks of at most ``block_size`` cells —
    memory stays bounded no matter how many points the lattice holds.

    Args:
        cores: one or more processor parameter sets.
        accelerator: TCA parameters.
        fractions: acceleratable-fraction axis.
        frequencies: invocation-frequency axis.
        modes: one mode, an iterable, or ``None`` for all four.
        tech: technology-node name(s); default the 45nm reference.
        energy: reference-node energy parameters (default
            :class:`~repro.core.energy.EnergyParameters`).
        drain_estimator: NL-mode drain strategy (default power law).
        block_size: max grid cells per streamed evaluation block.
        jobs: worker processes for chunk fan-out (1 = in-process).

    Returns:
        A :class:`ParetoSweepResult`; identical for every ``jobs`` and
        ``block_size`` value.
    """
    if isinstance(cores, CoreParameters):
        cores = (cores,)
    if tech is None:
        tech = (DEFAULT_TECH,)
    elif isinstance(tech, str):
        tech = (tech,)
    spec = ParetoSweepSpec(
        cores=tuple(cores),
        accelerator=accelerator,
        fractions=tuple(float(a) for a in np.asarray(fractions, dtype=float)),
        frequencies=tuple(
            float(v) for v in np.asarray(frequencies, dtype=float)
        ),
        modes=_resolve_modes(modes),
        tech=tuple(tech),
        energy=energy or EnergyParameters(),
        drain_estimator=drain_estimator,
        block_size=block_size,
    )
    with span("api.sweep.pareto"):
        accumulator = sweep_pareto(spec, jobs=jobs)
    return ParetoSweepResult(
        frontier=tuple(
            ParetoPoint.from_dict(point) for point in accumulator.points()
        ),
        points_seen=accumulator.points_seen,
        total_points=spec.total_points,
    )


def _resolve_modes(
    modes: TCAMode | Iterable[TCAMode] | None,
) -> tuple[TCAMode, ...]:
    if modes is None:
        return TCAMode.all_modes()
    if isinstance(modes, TCAMode):
        return (modes,)
    resolved = tuple(modes)
    if not resolved:
        raise ValueError("modes must name at least one TCAMode")
    return resolved


def evaluate(
    core: CoreParameters,
    accelerator: AcceleratorParameters,
    workload: WorkloadParameters,
    modes: TCAMode | Iterable[TCAMode] | None = None,
    drain_estimator: DrainEstimator | None = None,
    cache: EvaluationCache | None = None,
) -> EvaluationResult:
    """Predict program speedups for one operating point.

    Args:
        core: processor parameters.
        accelerator: TCA parameters.
        workload: program parameters.
        modes: one mode, an iterable of modes, or ``None`` for all four.
        drain_estimator: NL-mode drain strategy (default power law).
        cache: optional memoization layer; hits skip evaluation entirely.

    Returns:
        An :class:`EvaluationResult`; ``result.cached`` is True only when
        every requested mode came from the cache.
    """
    requested = _resolve_modes(modes)
    queries = [
        EvaluationQuery(core, accelerator, workload, mode, drain_estimator)
        for mode in requested
    ]
    entries = evaluate_batch(queries, cache=cache)
    return EvaluationResult(
        core=core,
        accelerator=accelerator,
        workload=workload,
        speedups=MappingProxyType(
            {mode: entry.speedup for mode, entry in zip(requested, entries)}
        ),
        cached=all(entry.cached for entry in entries),
    )


def sweep(
    kind: str,
    core: CoreParameters,
    accelerator: AcceleratorParameters,
    x: Sequence[float] | np.ndarray,
    acceleratable_fraction: float | None = None,
    granularity: float | None = None,
    drain_estimator: DrainEstimator | None = None,
    modes: TCAMode | Iterable[TCAMode] | None = None,
) -> SweepResult:
    """Sweep one design axis through the vectorized evaluation path.

    Args:
        kind: ``"granularity"`` (requires ``acceleratable_fraction``),
            ``"fraction"`` (requires ``granularity``), or ``"frequency"``
            (requires ``granularity``).
        core: processor parameters.
        accelerator: TCA parameters.
        x: the axis values (granularities, fractions, or frequencies).
        acceleratable_fraction: fixed coverage for granularity sweeps.
        granularity: fixed granularity for fraction/frequency sweeps.
        drain_estimator: NL-mode drain strategy (default power law).
        modes: one mode, an iterable, or ``None`` for all four.

    Returns:
        A façade :class:`SweepResult` (JSON-round-trippable).
    """
    resolved_modes = _resolve_modes(modes)
    axis = np.asarray(x, dtype=float)
    with span(f"api.sweep.{kind}"):
        if kind == "granularity":
            if acceleratable_fraction is None:
                raise ValueError(
                    "granularity sweeps require acceleratable_fraction"
                )
            result = granularity_sweep(
                core, accelerator, acceleratable_fraction, axis,
                drain_estimator, resolved_modes,
            )
        elif kind == "fraction":
            if granularity is None:
                raise ValueError("fraction sweeps require granularity")
            result = fraction_sweep(
                core, accelerator, granularity, axis, drain_estimator,
                resolved_modes,
            )
        elif kind == "frequency":
            if granularity is None:
                raise ValueError("frequency sweeps require granularity")
            result = frequency_sweep(
                core, accelerator, granularity, axis, drain_estimator,
                resolved_modes,
            )
        else:
            raise ValueError(
                f"unknown sweep kind {kind!r}; expected one of {SWEEP_KINDS}"
            )
    return SweepResult.from_core_sweep(kind, result)


def simulate(
    trace: Trace | CompiledTrace,
    config: SimConfig,
    warm_ranges: list[tuple[int, int]] | None = None,
    tracer: PipelineTracer | None = None,
    cache: EvaluationCache | None = None,
    sampling: "SamplingConfig | dict | str | None" = None,
) -> SimulationResult:
    """Execute ``trace`` on ``config`` through the cycle-level simulator.

    Signature-compatible with :func:`repro.sim.simulator.simulate`
    (including accepting a pre-built
    :class:`~repro.sim.compile.CompiledTrace`), plus content-addressed
    memoization: with a ``cache``, a previously simulated
    ``(config, trace fingerprint, warm ranges, sampling)`` combination
    returns its recorded :class:`~repro.sim.stats.SimStats` without
    running the simulator (pipeline tracing is skipped for cached runs —
    nothing executes to trace).

    ``sampling`` opts into interval sampling (see
    :mod:`repro.sim.sample`); ``None`` falls back to the ambient config
    installed by :func:`repro.sim.sample.sampling_scope`.  Sampled and
    exact results key separately in the cache — an explicit
    ``mode="exact"`` keys identically to no sampling, since the exact
    engine produces byte-identical stats either way.
    """
    effective = coerce_sampling(sampling)
    if effective is None:
        effective = ambient_sampling()
    key = None
    if cache is not None:
        key = simulation_key(config, trace, warm_ranges, sampling=effective)
        value = cache.get(key)
        if value is not MISS:
            return SimulationResult(
                trace_name=trace.name,
                config_name=config.name,
                mode=config.tca_mode,
                stats=SimStats.from_dict(value["stats"]),
                cached=True,
                sampling=value.get("sampling"),
            )
    result = _simulator.simulate(
        trace,
        config,
        warm_ranges=warm_ranges,
        tracer=tracer,
        sampling=effective,
    )
    if key is not None:
        cache.put(
            key, {"stats": result.stats.to_dict(), "sampling": result.sampling}
        )
    return result


def compare(
    baseline: Trace | CompiledTrace,
    accelerated: Trace | CompiledTrace,
    config: SimConfig,
    modes: TCAMode | Iterable[TCAMode] | None = None,
    warm_ranges: list[tuple[int, int]] | None = None,
    tracer: PipelineTracer | None = None,
    cache: EvaluationCache | None = None,
    sampling: "SamplingConfig | dict | str | None" = None,
) -> ComparisonResult:
    """Run the paper's validation experiment shape, cache-aware.

    Simulates ``baseline`` once, then ``accelerated`` under each
    requested mode (same core otherwise), all through :func:`simulate` so
    a cache can short-circuit any leg individually.  Both traces are
    compiled at most once — the accelerated trace's analysis is shared
    by every uncached mode run.  ``sampling`` applies to every leg
    uniformly (sampled speedups divide two extrapolated cycle counts).

    Returns:
        A :class:`ComparisonResult` with per-mode speedups.
    """
    requested = _resolve_modes(modes)
    baseline = _compile_trace(baseline)
    accelerated = _compile_trace(accelerated)
    base = simulate(
        baseline,
        config,
        warm_ranges=warm_ranges,
        tracer=tracer,
        cache=cache,
        sampling=sampling,
    )
    per_mode = {
        mode: simulate(
            accelerated,
            config.with_mode(mode),
            warm_ranges=warm_ranges,
            tracer=tracer,
            cache=cache,
            sampling=sampling,
        )
        for mode in requested
    }
    return ComparisonResult(baseline=base, per_mode=per_mode)
