"""Composite model: programs with *several different* TCAs (extension).

The paper models one accelerator at a time; real "accelerator-rich"
designs (its reference [4]) integrate several — a heap manager, a hash
map unit, a string unit — into the same core.  Interval analysis extends
naturally: execution decomposes into per-accelerator intervals, one per
invocation, each carrying its own granularity, latency, and penalties,
plus a residual interval stream for code no accelerator covers.

For accelerator ``i`` with invocation frequency ``v_i`` and acceleratable
fraction ``a_i`` (measured over the same baseline), the composite
execution time per baseline instruction is::

    t(mode) = Σ_i v_i · t_i(mode)  +  (1 − Σ_i a_i') / IPC_leftover ...

implemented here by evaluating each accelerator's per-interval model with
its own parameters against a *shared* residual: each component model sees
the non-accelerated fraction attributable to its intervals, proportional
to its share of invocations.  The decomposition is exact for the serial
terms and keeps each MAX-based overlap term local to its own intervals —
the same first-order spirit as the paper's single-TCA model.

The simulator needs no extension at all (traces may already mix TCA
types), so :func:`validate_composite` closes the loop against simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.drain import DrainEstimator
from repro.core.model import TCAModel
from repro.core.modes import TCAMode
from repro.core.parameters import (
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)

if TYPE_CHECKING:  # pragma: no cover - break the core <-> sim import cycle
    from repro.isa.trace import Trace
    from repro.sim.config import SimConfig


@dataclass(frozen=True)
class TCAComponent:
    """One accelerator's share of a composite workload.

    Attributes:
        accelerator: the TCA's parameters.
        acceleratable_fraction: fraction of baseline instructions this
            accelerator replaces (``a_i``).
        invocation_frequency: its invocations per baseline instruction
            (``v_i``).
    """

    accelerator: AcceleratorParameters
    acceleratable_fraction: float
    invocation_frequency: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.acceleratable_fraction <= 1.0:
            raise ValueError("acceleratable_fraction must be in [0,1]")
        if self.invocation_frequency <= 0:
            raise ValueError("invocation_frequency must be positive")
        if self.acceleratable_fraction < self.invocation_frequency:
            raise ValueError("each invocation must replace >= 1 instruction")


class CompositeTCAModel:
    """Analytical model of a core hosting several different TCAs.

    Args:
        core: processor parameters.
        components: one entry per accelerator; total coverage
            ``Σ a_i`` must stay ≤ 1.
        drain_estimator: shared drain estimator for the NL modes.

    Each component is modelled with the paper's single-TCA equations over
    its own intervals; the program's non-accelerated work is divided
    among components in proportion to their invocation counts, so the
    per-component interval structure (and its MAX-based overlap) is
    preserved.
    """

    def __init__(
        self,
        core: CoreParameters,
        components: tuple[TCAComponent, ...],
        drain_estimator: DrainEstimator | None = None,
    ) -> None:
        if not components:
            raise ValueError("composite model requires at least one component")
        total_coverage = sum(c.acceleratable_fraction for c in components)
        if total_coverage > 1.0 + 1e-9:
            raise ValueError(
                f"total acceleratable fraction {total_coverage:.3f} exceeds 1"
            )
        self.core = core
        self.components = components
        self.drain_estimator = drain_estimator
        self._total_v = sum(c.invocation_frequency for c in components)
        self._total_a = total_coverage
        # Residual (non-accelerated) work is apportioned by invocation
        # share: component i's intervals contain v_i/Σv of the residual.
        self._models: list[tuple[TCAComponent, TCAModel]] = []
        self._stream_fractions: list[float] = []
        residual = 1.0 - self._total_a
        for component in components:
            share = component.invocation_frequency / self._total_v
            # Per-interval fractions within this component's sub-stream:
            # its intervals cover (a_i + share·residual) of the program.
            stream_fraction = component.acceleratable_fraction + share * residual
            local_a = component.acceleratable_fraction / stream_fraction
            local_v = component.invocation_frequency / stream_fraction
            workload = WorkloadParameters(
                acceleratable_fraction=local_a,
                invocation_frequency=min(1.0, local_v),
            )
            self._models.append(
                (
                    component,
                    TCAModel(core, component.accelerator, workload, drain_estimator),
                )
            )
            self._stream_fractions.append(stream_fraction)

    def execution_time_per_instruction(self, mode: TCAMode) -> float:
        """Cycles per baseline instruction under ``mode``.

        Component ``i`` contributes one interval per invocation, i.e.
        ``v_i`` intervals per program instruction, each of its model's
        per-interval time.  The sub-streams partition the program exactly
        (``Σ_i v_i / local_v_i = Σ_i stream_fraction_i = 1``), so the sum
        is the whole program's time.
        """
        return sum(
            component.invocation_frequency * model.execution_time(mode)
            for component, model in self._models
        )

    def baseline_time_per_instruction(self) -> float:
        """Cycles per baseline instruction without any accelerator."""
        return 1.0 / self.core.ipc

    def speedup(self, mode: TCAMode) -> float:
        """Composite program speedup for ``mode``."""
        return self.baseline_time_per_instruction() / self.execution_time_per_instruction(
            mode
        )

    def speedups(self) -> dict[TCAMode, float]:
        """Speedups for all four modes."""
        return {mode: self.speedup(mode) for mode in TCAMode.all_modes()}

    def component_speedups(self, mode: TCAMode) -> dict[str, float]:
        """Each accelerator's standalone sub-stream speedup for context."""
        return {
            component.accelerator.name: model.speedup(mode)
            for component, model in self._models
        }


@dataclass(frozen=True)
class CompositeValidationRecord:
    """Composite model vs simulation, one mode."""

    mode: TCAMode
    model_speedup: float
    sim_speedup: float

    @property
    def error(self) -> float:
        """Relative error ``(model − sim) / sim``."""
        if self.sim_speedup == 0:
            return float("inf")
        return (self.model_speedup - self.sim_speedup) / self.sim_speedup


def composite_from_trace(
    core: CoreParameters,
    accelerated: "Trace",
    latency_of: dict[str, float],
    drain_estimator: DrainEstimator | None = None,
) -> CompositeTCAModel:
    """Build a composite model from a mixed-TCA trace's statistics.

    Args:
        core: processor parameters (IPC from a baseline measurement).
        accelerated: trace containing TCA instructions of several names.
        latency_of: per-accelerator-name explicit latency (cycles).
        drain_estimator: forwarded to the component models.
    """
    per_name_invocations: dict[str, int] = {}
    per_name_replaced: dict[str, int] = {}
    non_tca = 0
    for inst in accelerated:
        if inst.is_tca:
            assert inst.tca is not None
            per_name_invocations[inst.tca.name] = (
                per_name_invocations.get(inst.tca.name, 0) + 1
            )
            per_name_replaced[inst.tca.name] = (
                per_name_replaced.get(inst.tca.name, 0)
                + inst.tca.replaced_instructions
            )
        else:
            non_tca += 1
    if not per_name_invocations:
        raise ValueError("trace contains no TCA instructions")
    baseline_instructions = non_tca + sum(per_name_replaced.values())
    components = tuple(
        TCAComponent(
            accelerator=AcceleratorParameters(
                name=name, latency=latency_of[name]
            ),
            acceleratable_fraction=per_name_replaced[name] / baseline_instructions,
            invocation_frequency=per_name_invocations[name] / baseline_instructions,
        )
        for name in sorted(per_name_invocations)
    )
    return CompositeTCAModel(core, components, drain_estimator)


def mean_latency_by_name(
    accelerated: "Trace", config: "SimConfig"
) -> dict[str, float]:
    """Per-accelerator-name mean estimated invocation latency.

    Uses :func:`repro.core.validation.estimate_tca_latency` on every TCA
    instruction and averages per name — the composite model needs one
    latency per accelerator type.
    """
    from repro.core.validation import estimate_tca_latency

    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    for inst in accelerated:
        if inst.is_tca:
            assert inst.tca is not None
            latency = estimate_tca_latency(inst.tca, config)
            totals[inst.tca.name] = totals.get(inst.tca.name, 0.0) + latency
            counts[inst.tca.name] = counts.get(inst.tca.name, 0) + 1
    if not totals:
        raise ValueError("trace contains no TCA instructions")
    return {name: totals[name] / counts[name] for name in totals}


def validate_composite(
    baseline: "Trace",
    accelerated: "Trace",
    config: "SimConfig",
    latency_of: dict[str, float],
    warm_ranges: list[tuple[int, int]] | None = None,
) -> tuple[CompositeValidationRecord, ...]:
    """Composite model vs simulation across all four modes."""
    from repro.core.validation import core_parameters_from_sim
    from repro.sim.simulator import simulate_modes

    comparison = simulate_modes(
        baseline, accelerated, config, warm_ranges=warm_ranges
    )
    core = core_parameters_from_sim(config, comparison.baseline.ipc)
    model = composite_from_trace(core, accelerated, latency_of)
    return tuple(
        CompositeValidationRecord(
            mode=mode,
            model_speedup=model.speedup(mode),
            sim_speedup=comparison.speedup(mode),
        )
        for mode in TCAMode.all_modes()
    )
