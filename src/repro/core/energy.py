"""Energy analysis of TCA integration modes (paper §VII).

The paper's discussion section makes an energy argument the model can
quantify: even for accelerators motivated purely by *energy efficiency*
(GreenDroid-style), the integration mode matters, because **program
slowdown makes the core run longer and burn static energy**, eroding the
accelerator's dynamic-energy win.  This module implements that analysis:

- a simple but explicit energy model: core static power × execution time,
  plus per-instruction core dynamic energy, plus per-invocation
  accelerator energy (and optional accelerator static power);
- per-mode energy totals and ratios against the software baseline;
- the break-even query the paper implies: at which operating points does
  a mode stop saving energy?

Units are arbitrary but consistent: power in energy-units per cycle,
energy in energy-units.  Defaults are normalized to a core dynamic energy
of 1.0 per instruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.drain import DrainEstimator
from repro.core.model import TCAModel, _grid_cells, mode_time_grid
from repro.core.modes import TCAMode
from repro.core.parameters import AcceleratorParameters, CoreParameters
from repro.obs.metrics import get_registry

# Counts energy-grid cells evaluated, the energy counterpart of
# model.evaluations — million-point Pareto sweeps stay honest about how
# much closed-form work they burn.
_ENERGY_CELLS = get_registry().counter("model.energy_cells")


@dataclass(frozen=True)
class EnergyParameters:
    """Energy model inputs.

    Attributes:
        core_static_power: core leakage + clock energy per cycle while the
            program runs (the term slowdown multiplies).
        core_dynamic_energy: energy per executed core instruction.
        accelerator_invocation_energy: dynamic energy per TCA invocation.
        accelerator_static_power: accelerator leakage per cycle (charged
            for the whole execution — a TCA is always powered with the
            core unless power-gated).
    """

    core_static_power: float = 0.5
    core_dynamic_energy: float = 1.0
    accelerator_invocation_energy: float = 10.0
    accelerator_static_power: float = 0.02

    def __post_init__(self) -> None:
        for field_name in (
            "core_static_power",
            "core_dynamic_energy",
            "accelerator_invocation_energy",
            "accelerator_static_power",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be non-negative")

    def to_canonical_dict(self) -> dict[str, float]:
        """All fields as a stable, JSON-safe dict (cache keys, wire)."""
        return {
            "core_static_power": float(self.core_static_power),
            "core_dynamic_energy": float(self.core_dynamic_energy),
            "accelerator_invocation_energy": float(
                self.accelerator_invocation_energy
            ),
            "accelerator_static_power": float(self.accelerator_static_power),
        }


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-interval energy of one configuration.

    Attributes:
        total: total energy per interval.
        core_static: static energy (power × interval time).
        core_dynamic: dynamic energy of instructions the core executes.
        accelerator: accelerator dynamic + static energy.
    """

    total: float
    core_static: float
    core_dynamic: float
    accelerator: float


class EnergyModel:
    """Energy evaluation of a TCA integration on top of a performance model.

    Args:
        model: the analytical performance model (provides interval times
            and workload composition).
        params: energy parameters.
    """

    def __init__(self, model: TCAModel, params: EnergyParameters | None = None) -> None:
        self.model = model
        self.params = params or EnergyParameters()

    def _instructions_per_interval(self) -> float:
        """Baseline instructions per interval = 1 / v."""
        return 1.0 / self.model.workload.invocation_frequency

    def baseline_energy(self) -> EnergyBreakdown:
        """Energy of the software-only baseline, per interval."""
        instructions = self._instructions_per_interval()
        time = self.model.baseline_time()
        static = self.params.core_static_power * time
        dynamic = self.params.core_dynamic_energy * instructions
        return EnergyBreakdown(
            total=static + dynamic,
            core_static=static,
            core_dynamic=dynamic,
            accelerator=0.0,
        )

    def mode_energy(self, mode: TCAMode) -> EnergyBreakdown:
        """Energy of one integration mode, per interval.

        The core executes only the non-accelerated instructions; the
        accelerator pays its per-invocation energy plus static power over
        the (mode-dependent) interval time.
        """
        workload = self.model.workload
        instructions = self._instructions_per_interval()
        core_instructions = instructions * (1.0 - workload.acceleratable_fraction)
        time = self.model.execution_time(mode)
        static = self.params.core_static_power * time
        dynamic = self.params.core_dynamic_energy * core_instructions
        accelerator = (
            self.params.accelerator_invocation_energy
            + self.params.accelerator_static_power * time
        )
        return EnergyBreakdown(
            total=static + dynamic + accelerator,
            core_static=static,
            core_dynamic=dynamic,
            accelerator=accelerator,
        )

    def energy_ratio(self, mode: TCAMode) -> float:
        """Mode energy relative to baseline (< 1.0 means the TCA saves energy)."""
        return self.mode_energy(mode).total / self.baseline_energy().total

    def energy_ratios(self) -> dict[TCAMode, float]:
        """Ratios for all four modes."""
        return {mode: self.energy_ratio(mode) for mode in TCAMode.all_modes()}

    def energy_losing_modes(self) -> tuple[TCAMode, ...]:
        """Modes that *increase* total energy despite the accelerator.

        The paper's §VII point: slowdown-prone modes can erase the energy
        win — "program slowdown requires the core to run longer,
        increasing the amount of static energy consumed".
        """
        return tuple(
            mode for mode, ratio in self.energy_ratios().items() if ratio > 1.0
        )

    def static_energy_penalty(self, mode: TCAMode) -> float:
        """Extra core static energy vs baseline caused by the mode's
        execution-time change (positive for slowdowns)."""
        return (
            self.mode_energy(mode).core_static
            - self.baseline_energy().core_static
        )


@dataclass(frozen=True)
class EnergyGrid:
    """Per-interval energy of one mode over an ``(a, v)`` grid.

    The array counterpart of :class:`EnergyBreakdown` plus the baseline
    and the ratio, all with the broadcast shape of the inputs.  Masking
    follows :func:`~repro.core.model.speedup_grid`: infeasible cells are
    NaN everywhere; no-invocation cells (``a == 0`` or ``v == 0``) have
    ``ratio`` 1.0 (no accelerator — the baseline *is* the mode) but NaN
    absolute energies, because per-interval quantities are undefined
    without invocations (the scalar :class:`EnergyModel` raises there).

    Attributes:
        mode: the TCA integration mode evaluated.
        total: total mode energy per interval.
        core_static: core static energy (power × interval time).
        core_dynamic: dynamic energy of core-executed instructions.
        accelerator: accelerator dynamic + static energy.
        baseline_total: total software-baseline energy per interval.
        ratio: ``total / baseline_total`` (< 1.0 = the TCA saves energy).
    """

    mode: TCAMode
    total: np.ndarray
    core_static: np.ndarray
    core_dynamic: np.ndarray
    accelerator: np.ndarray
    baseline_total: np.ndarray
    ratio: np.ndarray

    def losing_mask(self) -> np.ndarray:
        """Cells where this mode *increases* total energy (ratio > 1)."""
        with np.errstate(invalid="ignore"):
            return self.ratio > 1.0


def energy_grid(
    core: CoreParameters,
    accelerator: AcceleratorParameters,
    params: EnergyParameters,
    a: np.ndarray | float,
    v: np.ndarray | float,
    mode: TCAMode,
    drain_estimator: DrainEstimator | None = None,
    drain_time: float | np.ndarray | None = None,
) -> EnergyGrid:
    """Closed-form NumPy evaluation of the §VII energy model over grids.

    The array-native counterpart of :class:`EnergyModel`: ``a``
    (acceleratable fraction) and ``v`` (invocation frequency) broadcast
    against each other exactly like
    :func:`~repro.core.model.speedup_grid`, and every active cell is
    evaluated in one pass of vectorized arithmetic.  Interval times come
    from the same :func:`~repro.core.model.mode_time_grid` arithmetic
    the speedup grid uses, so active cells match the scalar
    :class:`EnergyModel` (the pinned oracle) term by term.

    Masking semantics per cell:

    - values outside ``[0, 1]`` or ``0 < a < v`` (infeasible): NaN in
      every array, including ``ratio``;
    - ``a == 0`` or ``v == 0`` (no invocations): ``ratio`` 1.0, absolute
      energies NaN (undefined per-interval, the scalar model raises);
    - otherwise: the §VII terms, with ``ratio = total / baseline``.

    Args:
        core: processor parameters.
        accelerator: TCA parameters (explicit ``latency`` wins over
            ``A``, as everywhere in the model).
        params: energy parameters (tech-scale them first via
            :meth:`repro.core.tech.TechNode.scale_energy` for a
            non-reference technology node).
        a: acceleratable fraction(s), broadcastable against ``v``.
        v: invocation frequency(s), broadcastable against ``a``.
        mode: the TCA integration mode to evaluate.
        drain_estimator: NL-mode drain strategy (default power law).
        drain_time: explicit per-workload drain time (scalar or array),
            taking precedence over the estimator.

    Returns:
        An :class:`EnergyGrid` with the broadcast shape of ``(a, v)``.
    """
    cells = _grid_cells(a, v)
    _ENERGY_CELLS.inc(cells.evaluated)
    time = mode_time_grid(
        core, accelerator, cells.sa, cells.sv, mode, drain_estimator, drain_time
    )
    total, core_static, core_dynamic, accel, baseline_total, ratio = (
        _energy_values(core, params, cells.sa, cells.sv, time)
    )
    return EnergyGrid(
        mode=mode,
        total=cells.mask(total, np.nan),
        core_static=cells.mask(core_static, np.nan),
        core_dynamic=cells.mask(core_dynamic, np.nan),
        accelerator=cells.mask(accel, np.nan),
        baseline_total=cells.mask(baseline_total, np.nan),
        ratio=cells.mask(ratio, 1.0),
    )


def _energy_values(
    core: CoreParameters,
    params: EnergyParameters,
    sa: np.ndarray,
    sv: np.ndarray,
    time: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Unmasked §VII terms from interval times: ``(total, core_static,
    core_dynamic, accelerator, baseline_total, ratio)``.

    Each term is built in place, one operation at a time in the order of
    its formula; IEEE ``+`` and ``*`` are commutative, so the values are
    the bits the plain expressions give, with fewer grid temporaries.
    """
    base_static = 1.0 / (sv * core.ipc)  # eq. (1), the baseline time
    base_static *= params.core_static_power
    instructions = 1.0 / sv  # baseline instructions per interval
    baseline_total = params.core_dynamic_energy * instructions
    baseline_total += base_static

    core_static = params.core_static_power * time
    core_dynamic = 1.0 - sa
    core_dynamic *= instructions  # core-executed instructions
    core_dynamic *= params.core_dynamic_energy
    accel = params.accelerator_static_power * time
    accel += params.accelerator_invocation_energy
    total = core_static + core_dynamic
    total += accel
    # All-zero energy parameters give a zero baseline; the ratio is
    # undefined there (NaN), never a divide error.
    positive = baseline_total > 0.0
    ratio = np.where(
        positive, total / np.where(positive, baseline_total, 1.0), np.nan
    )
    return total, core_static, core_dynamic, accel, baseline_total, ratio
