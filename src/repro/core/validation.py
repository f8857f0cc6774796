"""Model-vs-simulator validation (paper §V).

The paper validates the analytical model against gem5 by running a
software baseline and its TCA-ified variant under all four integration
modes, then comparing predicted and simulated speedups.  This module is
that harness for our simulator substrate:

1. simulate the baseline trace → measured ``IPC``;
2. derive ``a`` and ``v`` from the accelerated trace's statistics;
3. estimate or accept the accelerator's per-invocation latency;
4. build the :class:`~repro.core.model.TCAModel` with the simulated core's
   ``s_ROB``, ``w_issue``, and ``t_commit``;
5. simulate the accelerated trace per mode and compare.

Errors are relative: ``(model − sim) / sim``, matching the paper's
error-percentage plots (Figs. 4 and 5c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.model import TCAModel
from repro.core.modes import TCAMode
from repro.core.parameters import (
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)
from repro.isa.instructions import TCADescriptor
from repro.isa.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - break the core <-> sim import cycle
    from repro.sim.config import SimConfig


def core_parameters_from_sim(
    config: "SimConfig", measured_ipc: float, name: str | None = None
) -> CoreParameters:
    """Map a simulator configuration onto the model's core parameters.

    ``w_issue`` is the front-end dispatch width, ``t_commit`` the
    completion-to-commit backend latency, both straight from the
    configuration; ``IPC`` must come from a baseline measurement.
    """
    return CoreParameters(
        ipc=measured_ipc,
        rob_size=config.rob_size,
        issue_width=config.dispatch_width,
        commit_stall=float(config.commit_latency),
        name=name or config.name,
    )


def estimate_tca_latency(
    descriptor: TCADescriptor,
    config: "SimConfig",
    avg_read_latency: float | None = None,
) -> float:
    """Early-design estimate of a TCA invocation's execution latency.

    Models the accelerator issuing its read requests through the shared
    load ports (age priority, ``load_ports`` per cycle), waiting for the
    last response, then computing:

    ``latency = (n_reads − 1) // load_ports + read_latency + compute``.

    Args:
        descriptor: the accelerator invocation.
        config: the target core (load ports, L1 hit latency).
        avg_read_latency: expected response latency per request; defaults
            to the L1 hit latency (cache-resident working sets).
    """
    if not descriptor.reads:
        return float(max(1, descriptor.compute_latency))
    read_latency = (
        avg_read_latency if avg_read_latency is not None else float(config.l1d_latency)
    )
    issue_cycles = (len(descriptor.reads) - 1) // config.load_ports
    return issue_cycles + read_latency + max(1, descriptor.compute_latency)


@dataclass(frozen=True)
class ValidationRecord:
    """One mode's model-vs-simulation comparison.

    Attributes:
        mode: integration mode.
        model_speedup: analytical prediction.
        sim_speedup: simulated (measured) speedup.
    """

    mode: TCAMode
    model_speedup: float
    sim_speedup: float

    @property
    def error(self) -> float:
        """Relative error ``(model − sim) / sim``."""
        if self.sim_speedup == 0:
            return math.inf
        return (self.model_speedup - self.sim_speedup) / self.sim_speedup

    @property
    def abs_error_pct(self) -> float:
        """Absolute relative error in percent."""
        return abs(self.error) * 100.0


@dataclass(frozen=True)
class ValidationReport:
    """Full validation outcome for one workload/accelerator/core triple.

    Attributes:
        workload_name: trace name for reports.
        records: per-mode comparisons.
        baseline_ipc: measured software-only IPC.
        baseline_cycles: measured software-only cycles.
        workload: derived model workload parameters (a, v).
        accelerator: accelerator parameters fed to the model.
        core: core parameters fed to the model.
    """

    workload_name: str
    records: tuple[ValidationRecord, ...]
    baseline_ipc: float
    baseline_cycles: int
    workload: WorkloadParameters
    accelerator: AcceleratorParameters
    core: CoreParameters

    @property
    def max_abs_error_pct(self) -> float:
        """Worst per-mode absolute error in percent."""
        return max((r.abs_error_pct for r in self.records), default=0.0)

    @property
    def mean_abs_error_pct(self) -> float:
        """Mean per-mode absolute error in percent."""
        if not self.records:
            return 0.0
        return sum(r.abs_error_pct for r in self.records) / len(self.records)

    def record(self, mode: TCAMode) -> ValidationRecord:
        """The comparison for one mode."""
        for rec in self.records:
            if rec.mode is mode:
                return rec
        raise KeyError(f"no record for mode {mode!r}")

    def trend_ordering_matches(self) -> bool:
        """Whether model and simulation rank the four modes identically.

        The paper argues the model's value is predicting *relative* trends
        even when absolute errors grow (§V-C); this is that check.
        """
        by_model = sorted(self.records, key=lambda r: r.model_speedup)
        by_sim = sorted(self.records, key=lambda r: r.sim_speedup)
        return [r.mode for r in by_model] == [r.mode for r in by_sim]

    def render_table(self) -> str:
        """Fixed-width table of per-mode speedups and errors."""
        lines = [
            f"workload: {self.workload_name}  "
            f"(a={self.workload.acceleratable_fraction:.4f}, "
            f"v={self.workload.invocation_frequency:.5f}, "
            f"baseline IPC={self.baseline_ipc:.3f})",
            f"{'mode':<7} {'model':>9} {'sim':>9} {'error%':>8}",
        ]
        for rec in self.records:
            lines.append(
                f"{rec.mode.value:<7} {rec.model_speedup:>9.3f} "
                f"{rec.sim_speedup:>9.3f} {rec.error * 100:>8.2f}"
            )
        lines.append(
            f"max |error| = {self.max_abs_error_pct:.2f}%   "
            f"trend order match: {self.trend_ordering_matches()}"
        )
        return "\n".join(lines)


def validate_workload(
    baseline: Trace,
    accelerated: Trace,
    config: "SimConfig",
    accelerator: AcceleratorParameters | None = None,
    modes: tuple[TCAMode, ...] = TCAMode.all_modes(),
    warm_ranges: list[tuple[int, int]] | None = None,
    drain: str | float = "measured",
) -> ValidationReport:
    """Run the full paper-§V validation flow on one workload.

    Args:
        baseline: software-only trace.
        accelerated: the same program with regions replaced by TCAs.
        config: simulated core (its ``tca_mode`` is overridden per mode).
        accelerator: model-side accelerator parameters; when ``None`` they
            are derived from the (unique) TCA descriptor in the trace via
            :func:`estimate_tca_latency`.
        modes: integration modes to validate.
        warm_ranges: cache-warming ranges applied to every simulation.
        drain: the model's window-drain source.  ``"measured"`` (default)
            derives the drain from the *baseline* characterization — the
            paper's "explicitly known for the target program" option — as
            ``(occupancy / IPC) · (1 − IPC / w_dispatch)``: the mean-ROB-
            occupancy critical path, discounted by the front end's
            post-drain catch-up (after a barrier the window refills at
            full dispatch width, recovering that fraction of the stall);
            ``"powerlaw"`` uses the default power-law estimator (full-ROB
            critical path); a float supplies the drain in cycles directly.

    Returns:
        A :class:`ValidationReport` with per-mode model and simulated
        speedups.
    """
    from repro.core.drain import ExplicitDrain
    from repro.sim.simulator import simulate_modes

    stats = accelerated.stats()
    if stats.tca_invocations == 0:
        raise ValueError("accelerated trace contains no TCA invocations")
    workload = WorkloadParameters(
        acceleratable_fraction=stats.acceleratable_fraction,
        invocation_frequency=stats.invocation_frequency,
    )
    if accelerator is None:
        descriptor = next(inst.tca for inst in accelerated if inst.is_tca)
        assert descriptor is not None
        accelerator = AcceleratorParameters(
            name=descriptor.name,
            latency=estimate_tca_latency(descriptor, config),
        )

    comparison = simulate_modes(
        baseline, accelerated, config, modes=modes, warm_ranges=warm_ranges
    )
    core = core_parameters_from_sim(config, comparison.baseline.ipc)
    if drain == "measured":
        occupancy = comparison.baseline.stats.mean_rob_occupancy
        ipc = max(comparison.baseline.ipc, 1e-9)
        catchup = max(0.0, 1.0 - ipc / config.dispatch_width)
        drain_estimator = ExplicitDrain(occupancy / ipc * catchup)
    elif drain == "powerlaw":
        drain_estimator = None
    elif isinstance(drain, (int, float)):
        drain_estimator = ExplicitDrain(float(drain))
    else:
        raise ValueError(
            f"drain must be 'measured', 'powerlaw', or cycles, got {drain!r}"
        )
    model = TCAModel(core, accelerator, workload, drain_estimator)

    records = tuple(
        ValidationRecord(
            mode=mode,
            model_speedup=model.speedup(mode),
            sim_speedup=comparison.speedup(mode),
        )
        for mode in modes
    )
    return ValidationReport(
        workload_name=accelerated.name,
        records=records,
        baseline_ipc=comparison.baseline.ipc,
        baseline_cycles=comparison.baseline.cycles,
        workload=workload,
        accelerator=accelerator,
        core=core,
    )
