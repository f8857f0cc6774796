"""Top-level simulation API.

:func:`simulate` runs one trace on one configuration;
:func:`simulate_modes` runs a baseline trace plus an accelerated trace
under all four TCA integration modes and reports per-mode speedups — the
exact experiment shape of the paper's validation figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Mapping

from repro.core.modes import TCAMode
from repro.isa.trace import Trace
from repro.obs.histogram import COUNT_BOUNDS
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.span import span
from repro.obs.tracer import PipelineTracer, get_active_tracer
from repro.sim.compile import CompiledTrace, compile_trace
from repro.sim.config import SimConfig
from repro.sim.core import CoreSim
from repro.sim.sample import (
    SamplingConfig,
    ambient_sampling,
    coerce_sampling,
    simulate_sampled,
)
from repro.sim.stats import SimStats

_log = get_logger(__name__)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one cycle-level simulation.

    :func:`simulate` returns it, and so does :func:`repro.api.simulate`,
    which adds cache provenance; :meth:`to_dict` is the wire form of a
    ``/simulate`` run.

    Attributes:
        trace_name: name of the executed trace.
        config_name: name of the core configuration.
        mode: TCA integration mode in effect.
        stats: full simulation statistics.
        cached: whether the result was served from the content-addressed
            cache rather than simulated.
        sampling: sampling report when interval sampling was requested
            (``{"mode": "sampled", ...}`` or ``{"mode": "exact",
            "forced_exact": reason, ...}``; see
            :func:`repro.sim.sample.simulate_sampled`); ``None`` for a
            plain exact run.
    """

    trace_name: str
    config_name: str
    mode: TCAMode
    stats: SimStats
    cached: bool = False
    sampling: dict | None = None

    @property
    def cycles(self) -> int:
        """Total execution cycles."""
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.stats.ipc

    @property
    def sim_mode(self) -> str:
        """``"sampled"`` when stats were extrapolated, else ``"exact"``."""
        if self.sampling is not None and self.sampling.get("mode") == "sampled":
            return "sampled"
        return "exact"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump (stats via :meth:`SimStats.to_dict`)."""
        payload: dict[str, Any] = {
            "trace_name": self.trace_name,
            "config_name": self.config_name,
            "mode": self.mode.value,
            "sim_mode": self.sim_mode,
            "stats": self.stats.to_dict(),
            "cached": self.cached,
        }
        if self.sampling is not None:
            payload["sampling"] = self.sampling
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild from a :meth:`to_dict` payload."""
        sampling = payload.get("sampling")
        return cls(
            trace_name=str(payload["trace_name"]),
            config_name=str(payload["config_name"]),
            mode=TCAMode(payload["mode"]),
            stats=SimStats.from_dict(payload["stats"]),
            cached=bool(payload.get("cached", False)),
            sampling=dict(sampling) if sampling is not None else None,
        )


def simulate(
    trace: Trace | CompiledTrace,
    config: SimConfig,
    warm_ranges: list[tuple[int, int]] | None = None,
    tracer: PipelineTracer | None = None,
    sampling: "SamplingConfig | dict | str | None" = None,
) -> SimulationResult:
    """Execute ``trace`` on ``config`` and return the result.

    Wall time, simulated cycles, and committed instructions are recorded
    in the default metrics registry (``sim.*``, including the
    ``sim.instructions_per_run`` histogram), so sweeps report simulator
    throughput for free; inside a request scope the run also records a
    ``sim.run`` span.

    Args:
        trace: dynamic instruction stream — a :class:`~repro.isa.trace.Trace`
            (compiled on first use and memoized on the trace object) or a
            :class:`~repro.sim.compile.CompiledTrace` prepared earlier via
            :func:`~repro.sim.compile.compile_trace` for zero per-call
            analysis cost.
        config: core configuration (its ``tca_mode`` governs TCA semantics).
        warm_ranges: byte ranges pre-loaded into the caches.
        tracer: optional pipeline event tracer; defaults to the ambient
            tracer (see :func:`repro.obs.tracer.tracing`).  Ignored when
            sampling runs — extrapolated windows have no meaningful
            per-instruction event stream.
        sampling: opt-in interval sampling — a
            :class:`~repro.sim.sample.SamplingConfig`, a mapping/spec
            string for one, or ``None``.  ``None`` falls back to the
            ambient config installed by
            :func:`~repro.sim.sample.sampling_scope` (and runs exact if
            there is none); the result's ``sampling`` report says what
            actually happened.
    """
    compiled = compile_trace(trace)
    effective = coerce_sampling(sampling)
    if effective is None:
        effective = ambient_sampling()

    if effective is not None:
        started = perf_counter()
        with span("sim.run"):
            stats, report = simulate_sampled(
                compiled, config, effective, warm_ranges=warm_ranges
            )
        elapsed = perf_counter() - started
        return _record_run(compiled, config, stats, elapsed, report)

    active = tracer if tracer is not None else get_active_tracer()
    if active is not None and active.enabled:
        active.begin_run(compiled.name, config.name, config.tca_mode.value)
    else:
        active = None
    started = perf_counter()
    with span("sim.run"):
        sim = CoreSim(config, compiled, warm_ranges=warm_ranges, tracer=active)
        stats = sim.run()
    elapsed = perf_counter() - started
    if active is not None:
        active.end_run(stats.to_dict())
    return _record_run(compiled, config, stats, elapsed, None)


def _record_run(
    compiled: CompiledTrace,
    config: SimConfig,
    stats: SimStats,
    elapsed: float,
    sampling: dict | None,
) -> SimulationResult:

    sim_mode = (
        "sampled"
        if sampling is not None and sampling.get("mode") == "sampled"
        else "exact"
    )
    registry = get_registry()
    registry.counter("sim.runs").inc()
    registry.counter(f"sim.{sim_mode}_mode_runs").inc()
    registry.counter("sim.cycles").inc(stats.cycles)
    registry.counter("sim.instructions").inc(stats.instructions)
    registry.timer("sim.run").record(elapsed)
    registry.histogram("sim.instructions_per_run", COUNT_BOUNDS).observe(
        stats.instructions
    )
    if elapsed > 0:
        registry.gauge("sim.cycles_per_sec").set(stats.cycles / elapsed)
        registry.gauge("sim.instructions_per_sec").set(
            stats.instructions / elapsed
        )
    # The entry is built only when a snapshot reads it; the closure holds
    # names, not the compiled trace, so it keeps no trace alive.
    trace_name, config_name, mode = (
        compiled.name,
        config.name,
        config.tca_mode.value,
    )
    registry.set_info(
        "sim.last_run",
        lambda: {
            "trace": trace_name,
            "config": config_name,
            "mode": mode,
            "sim_mode": sim_mode,
            "wall_time_s": elapsed,
            "stats": stats.to_dict(),
        },
    )
    _log.debug(
        "simulated %s on %s [%s, %s]: %d cycles, %d instructions, %.3fs "
        "(%.0f cycles/s)",
        compiled.name,
        config.name,
        config.tca_mode.value,
        sim_mode,
        stats.cycles,
        stats.instructions,
        elapsed,
        stats.cycles / elapsed if elapsed > 0 else float("inf"),
    )
    return SimulationResult(
        trace_name=compiled.name,
        config_name=config.name,
        mode=config.tca_mode,
        stats=stats,
        sampling=sampling,
    )


@dataclass(frozen=True)
class ModeComparison:
    """Baseline-vs-accelerated comparison across the four TCA modes.

    :func:`simulate_modes` returns it, and :func:`repro.api.compare`
    under the name ``ComparisonResult``.

    Attributes:
        baseline: result of the software-only trace.
        per_mode: accelerated-trace result for each TCA mode.
    """

    baseline: SimulationResult
    per_mode: dict[TCAMode, SimulationResult] = field(default_factory=dict)

    def speedup(self, mode: TCAMode) -> float:
        """Program speedup of ``mode`` over the software baseline."""
        accel = self.per_mode[mode]
        if accel.cycles == 0:
            return float("inf")
        return self.baseline.cycles / accel.cycles

    def speedups(self) -> dict[TCAMode, float]:
        """Speedups for every simulated mode."""
        return {mode: self.speedup(mode) for mode in self.per_mode}

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump (modes keyed by their string values)."""
        return {
            "baseline": self.baseline.to_dict(),
            "per_mode": {
                m.value: result.to_dict() for m, result in self.per_mode.items()
            },
            "speedups": {m.value: self.speedup(m) for m in self.per_mode},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModeComparison":
        """Rebuild from a :meth:`to_dict` payload."""
        return cls(
            baseline=SimulationResult.from_dict(payload["baseline"]),
            per_mode={
                TCAMode(mode): SimulationResult.from_dict(result)
                for mode, result in payload["per_mode"].items()
            },
        )


def simulate_modes(
    baseline: Trace | CompiledTrace,
    accelerated: Trace | CompiledTrace,
    config: SimConfig,
    modes: tuple[TCAMode, ...] = TCAMode.all_modes(),
    warm_ranges: list[tuple[int, int]] | None = None,
    tracer: PipelineTracer | None = None,
) -> ModeComparison:
    """Run the paper's validation experiment shape.

    Simulates ``baseline`` once, then ``accelerated`` under each mode in
    ``modes`` (same core otherwise), returning a :class:`ModeComparison`
    with per-mode speedups.  Both traces are compiled exactly once — the
    accelerated trace's analysis is shared by all four mode runs.  With a
    ``tracer``, every run lands in the same trace file as a separate
    process row.
    """
    compiled_base = compile_trace(baseline)
    compiled_accel = compile_trace(accelerated)
    base_result = simulate(
        compiled_base, config, warm_ranges=warm_ranges, tracer=tracer
    )
    per_mode: dict[TCAMode, SimulationResult] = {}
    for mode in modes:
        per_mode[mode] = simulate(
            compiled_accel,
            config.with_mode(mode),
            warm_ranges=warm_ranges,
            tracer=tracer,
        )
    return ModeComparison(baseline=base_result, per_mode=per_mode)
