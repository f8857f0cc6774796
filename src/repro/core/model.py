"""The TCA analytical model (paper §III, equations (1)–(9)).

The model applies interval analysis: execution is divided into intervals
of ``1/v`` baseline instructions, each containing one accelerator
invocation, and per-interval front-end penalties are added according to
the TCA integration mode.  The per-interval quantities are:

========================  ====================================================
``t_baseline``            ``1 / (v · IPC)`` — software-only interval time (1)
``t_accl``                ``a / (v · A · IPC)`` or the explicit latency    (2)
``t_non_accl``            ``(1 − a) / (v · IPC)``                          (3)
``t_drain``               effective window-drain time (estimated/explicit,
                          capped at ``t_non_accl``)
``t_ROB_fill``            ``s_ROB / w_issue`` — cycles to fill the ROB
========================  ====================================================

and the per-mode interval times:

========  ====================================================================
NL_NT     ``t_non_accl + t_accl + t_drain + 2·t_commit``                   (4)
L_NT      ``t_non_accl + t_accl + t_commit``                               (5)
NL_T      ``max(t_non_accl + max(0, t_drain + t_accl + t_commit −
          t_ROB_fill), t_accl + t_drain + t_commit)``                  (6)(7)
L_T       ``max(t_non_accl + max(0, t_accl − t_ROB_fill), t_accl)``    (8)(9)
========  ====================================================================

Speedup for a mode is ``t_baseline / t_mode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.drain import (
    DrainEstimator,
    PowerLawDrain,
    resolve_drain,
    resolve_drain_grid,
)
from repro.core.modes import TCAMode
from repro.core.parameters import (
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)
from repro.obs.metrics import get_registry

# Evaluation counter resolved once at import: a speedup() call costs one
# integer add of observability, keeping million-point sweeps honest about
# how many model evaluations they burn.
_EVALUATIONS = get_registry().counter("model.evaluations")

#: Schema tag of the model equations.  Content-addressed caches
#: (:mod:`repro.serve`) embed this in every key; bump it whenever a change
#: to eqs. (1)–(9), the drain precedence rules, or the masking semantics
#: alters what any ``(core, accelerator, workload, mode)`` point evaluates
#: to, so stale cached speedups can never be served.
MODEL_SCHEMA = "tca-eqs1-9.v1"


@dataclass(frozen=True)
class ModeBreakdown:
    """Decomposition of one mode's interval time into model terms.

    All values are cycles per interval.  For the MAX-based T modes,
    ``core_path`` and ``accelerator_path`` are the two arms of the MAX and
    ``time`` is the larger; ``accelerator_bound`` says which arm won.

    Attributes:
        mode: the TCA integration mode.
        time: total interval execution time.
        non_accel: non-accelerated core execution time.
        accel: accelerator execution time.
        drain: effective window-drain penalty charged (0 in L modes).
        commit: total commit-barrier penalty charged.
        rob_full_stall: front-end stall from a full ROB (T modes).
        core_path: core-side arm of the MAX (equals ``time`` in NT modes).
        accelerator_path: accelerator-side arm of the MAX (NT modes: the
            serial sum, equal to ``core_path``).
        accelerator_bound: whether the accelerator path determines ``time``.
    """

    mode: TCAMode
    time: float
    non_accel: float
    accel: float
    drain: float
    commit: float
    rob_full_stall: float
    core_path: float
    accelerator_path: float
    accelerator_bound: bool


class TCAModel:
    """Analytical performance model of one TCA/core/workload combination.

    Args:
        core: processor parameters.
        accelerator: TCA parameters.
        workload: program parameters.
        drain_estimator: strategy for the NL-mode window-drain estimate;
            defaults to the power-law estimator.  Ignored when the workload
            carries an explicit ``drain_time``.

    All per-interval times are cycles; :meth:`speedup` is dimensionless.
    """

    def __init__(
        self,
        core: CoreParameters,
        accelerator: AcceleratorParameters,
        workload: WorkloadParameters,
        drain_estimator: DrainEstimator | None = None,
    ) -> None:
        self.core = core
        self.accelerator = accelerator
        self.workload = workload
        self.drain_estimator = drain_estimator or PowerLawDrain()

    # ----------------------------------------------------- interval terms

    def baseline_time(self) -> float:
        """Eq. (1): software-only interval time ``1 / (v · IPC)``."""
        self._require_invocations()
        return 1.0 / (self.workload.invocation_frequency * self.core.ipc)

    def accel_time(self) -> float:
        """Eq. (2): accelerator execution time per invocation.

        Uses the explicit latency when provided, otherwise
        ``a / (v · A · IPC)``.
        """
        self._require_invocations()
        if self.accelerator.latency is not None:
            return float(self.accelerator.latency)
        assert self.accelerator.acceleration is not None
        return self.workload.acceleratable_fraction / (
            self.workload.invocation_frequency
            * self.accelerator.acceleration
            * self.core.ipc
        )

    def non_accel_time(self) -> float:
        """Eq. (3): non-accelerated core time ``(1 − a) / (v · IPC)``."""
        self._require_invocations()
        return (1.0 - self.workload.acceleratable_fraction) / (
            self.workload.invocation_frequency * self.core.ipc
        )

    def drain_time(self) -> float:
        """Effective window-drain time (estimate capped at ``t_non_accl``)."""
        self._require_invocations()
        return resolve_drain(
            self.core, self.workload, self.drain_estimator, self.non_accel_time()
        )

    def rob_fill_time(self) -> float:
        """``t_ROB_fill = s_ROB / w_issue``."""
        return self.core.rob_fill_time

    def _require_invocations(self) -> None:
        if not self.workload.has_invocations:
            raise ValueError(
                "workload has no accelerator invocations; per-interval times "
                "are undefined (speedup() returns 1.0 for such workloads)"
            )

    # -------------------------------------------------------- mode times

    def execution_time(self, mode: TCAMode) -> float:
        """Interval execution time for ``mode`` (eqs. (4)–(9))."""
        return self.breakdown(mode).time

    def breakdown(self, mode: TCAMode) -> ModeBreakdown:
        """Full term-by-term decomposition of ``mode``'s interval time."""
        self._require_invocations()
        t_non = self.non_accel_time()
        t_accl = self.accel_time()
        t_commit = self.core.commit_stall
        t_fill = self.rob_fill_time()

        if mode is TCAMode.NL_NT:
            t_drain = self.drain_time()
            time = t_non + t_accl + t_drain + 2.0 * t_commit
            return ModeBreakdown(
                mode=mode,
                time=time,
                non_accel=t_non,
                accel=t_accl,
                drain=t_drain,
                commit=2.0 * t_commit,
                rob_full_stall=0.0,
                core_path=time,
                accelerator_path=time,
                accelerator_bound=False,
            )
        if mode is TCAMode.L_NT:
            time = t_non + t_accl + t_commit
            return ModeBreakdown(
                mode=mode,
                time=time,
                non_accel=t_non,
                accel=t_accl,
                drain=0.0,
                commit=t_commit,
                rob_full_stall=0.0,
                core_path=time,
                accelerator_path=time,
                accelerator_bound=False,
            )
        if mode is TCAMode.NL_T:
            t_drain = self.drain_time()
            rob_full = max(0.0, t_drain + t_accl + t_commit - t_fill)  # eq. (6)
            core_path = t_non + rob_full
            accel_path = t_accl + t_drain + t_commit
            time = max(core_path, accel_path)  # eq. (7)
            return ModeBreakdown(
                mode=mode,
                time=time,
                non_accel=t_non,
                accel=t_accl,
                drain=t_drain,
                commit=t_commit,
                rob_full_stall=rob_full,
                core_path=core_path,
                accelerator_path=accel_path,
                accelerator_bound=accel_path >= core_path,
            )
        if mode is TCAMode.L_T:
            rob_full = max(0.0, t_accl - t_fill)  # eq. (8)
            core_path = t_non + rob_full
            time = max(core_path, t_accl)  # eq. (9)
            return ModeBreakdown(
                mode=mode,
                time=time,
                non_accel=t_non,
                accel=t_accl,
                drain=0.0,
                commit=0.0,
                rob_full_stall=rob_full,
                core_path=core_path,
                accelerator_path=t_accl,
                accelerator_bound=t_accl >= core_path,
            )
        raise ValueError(f"unknown mode {mode!r}")

    # ----------------------------------------------------------- speedups

    def speedup(self, mode: TCAMode) -> float:
        """Program speedup of ``mode`` over the software baseline.

        Returns 1.0 for workloads that never invoke the accelerator.
        Values below 1.0 are slowdowns (the paper's blue heatmap regions).
        """
        _EVALUATIONS.inc()
        if not self.workload.has_invocations:
            return 1.0
        time = self.execution_time(mode)
        if time == 0.0:
            return math.inf
        return self.baseline_time() / time

    def speedups(self) -> dict[TCAMode, float]:
        """Speedups of all four modes in canonical order."""
        return {mode: self.speedup(mode) for mode in TCAMode.all_modes()}

    def slowdown_modes(self) -> tuple[TCAMode, ...]:
        """Modes whose predicted speedup falls below 1.0."""
        return tuple(
            mode for mode, s in self.speedups().items() if s < 1.0
        )

    def best_mode(self) -> TCAMode:
        """The mode with the highest predicted speedup (L_T ties win)."""
        speedups = self.speedups()
        return max(
            TCAMode.all_modes(),
            key=lambda mode: (speedups[mode], mode is TCAMode.L_T),
        )

    # ----------------------------------------------------- program scale

    def program_time(self, mode: TCAMode, instructions: int) -> float:
        """Absolute accelerated execution time of an ``instructions``-long
        program region in cycles."""
        if instructions < 0:
            raise ValueError(f"instructions must be non-negative, got {instructions}")
        if not self.workload.has_invocations:
            return instructions / self.core.ipc
        intervals = instructions * self.workload.invocation_frequency
        return self.execution_time(mode) * intervals

    def baseline_program_time(self, instructions: int) -> float:
        """Absolute baseline execution time of ``instructions`` in cycles."""
        if instructions < 0:
            raise ValueError(f"instructions must be non-negative, got {instructions}")
        return instructions / self.core.ipc


class CoreColumns(NamedTuple):
    """Per-row core values: the column form of :class:`CoreParameters`.

    :func:`mode_time_grid` and :func:`_speedup_values` read ``ipc``,
    ``commit_stall`` and ``rob_fill_time`` from either form, so one
    vectorized pass can evaluate rows that each have their own core.
    Build with :meth:`gather`.
    """

    ipc: np.ndarray
    commit_stall: np.ndarray
    rob_fill_time: np.ndarray

    @classmethod
    def gather(cls, cores: Sequence[CoreParameters]) -> "CoreColumns":
        """One column entry per core, each taken exactly as the scalar
        model reads it (``rob_fill_time`` is the property's value)."""
        return cls(
            np.array([core.ipc for core in cores], dtype=float),
            np.array([core.commit_stall for core in cores], dtype=float),
            np.array([core.rob_fill_time for core in cores], dtype=float),
        )


class AcceleratorColumns(NamedTuple):
    """Per-row accelerator values: the column form of
    :class:`AcceleratorParameters`.

    Rows may mix the two timing sources.  ``has_latency`` marks the
    rows whose explicit ``latency`` wins (eq. (2)'s precedence); the
    other rows are timed by their ``acceleration``.  Each column holds a
    harmless placeholder (0.0 latency, 1.0 acceleration) on the rows
    that do not read it.  Build with :meth:`gather`.
    """

    acceleration: np.ndarray
    latency: np.ndarray
    has_latency: np.ndarray

    @classmethod
    def gather(
        cls, accelerators: Sequence[AcceleratorParameters]
    ) -> "AcceleratorColumns":
        """One column entry per accelerator."""
        latencies = [accelerator.latency for accelerator in accelerators]
        has_latency = np.array([latency is not None for latency in latencies])
        return cls(
            np.array(
                [
                    1.0 if latency is not None else accelerator.acceleration
                    for accelerator, latency in zip(accelerators, latencies)
                ],
                dtype=float,
            ),
            np.array(
                [0.0 if latency is None else latency for latency in latencies],
                dtype=float,
            ),
            has_latency,
        )


def mode_time_grid(
    core: CoreParameters | CoreColumns,
    accelerator: AcceleratorParameters | AcceleratorColumns,
    sa: np.ndarray,
    sv: np.ndarray,
    mode: TCAMode,
    drain_estimator: DrainEstimator | None = None,
    drain_time: float | np.ndarray | None = None,
) -> np.ndarray:
    """Per-interval mode execution time (eqs. (2)–(9)) over value grids.

    The vectorized counterpart of :meth:`TCAModel.execution_time` and
    the arithmetic shared by :func:`speedup_grid`, :func:`speedup_rows`
    and :func:`repro.core.energy.energy_grid` — one implementation, so
    the grids can never disagree about what a cell's interval time is.

    ``sa`` and ``sv`` must already be broadcast to a common shape and
    hold *feasible* values at every cell (callers substitute a feasible
    dummy at masked cells before calling; see :func:`speedup_grid`).
    ``core`` and ``accelerator`` are either one parameter object for
    every cell or per-row :class:`CoreColumns`/:class:`AcceleratorColumns`
    aligned with ``sa``.  Every operation mirrors the scalar model step
    for step, so active cells match :class:`TCAModel` bit for bit.
    """
    ipc = core.ipc
    if isinstance(accelerator, AcceleratorColumns):
        t_accl = np.where(
            accelerator.has_latency,
            accelerator.latency,
            sa / (sv * accelerator.acceleration * ipc),
        )  # eq. (2), row by row
    elif accelerator.latency is not None:
        t_accl = np.full(sa.shape, float(accelerator.latency))  # eq. (2)
    else:
        assert accelerator.acceleration is not None
        t_accl = sa / (sv * accelerator.acceleration * ipc)  # eq. (2)
    t_non = (1.0 - sa) / (sv * ipc)  # eq. (3)
    t_commit = core.commit_stall
    t_fill = core.rob_fill_time

    if mode is TCAMode.NL_NT:
        t_drain = resolve_drain_grid(
            core, drain_time, drain_estimator, t_non, sa, sv
        )
        return t_non + t_accl + t_drain + 2.0 * t_commit  # eq. (4)
    if mode is TCAMode.L_NT:
        return t_non + t_accl + t_commit  # eq. (5)
    if mode is TCAMode.NL_T:
        t_drain = resolve_drain_grid(
            core, drain_time, drain_estimator, t_non, sa, sv
        )
        rob_full = np.maximum(
            0.0, t_drain + t_accl + t_commit - t_fill
        )  # eq. (6)
        return np.maximum(t_non + rob_full, t_accl + t_drain + t_commit)  # eq. (7)
    if mode is TCAMode.L_T:
        rob_full = np.maximum(0.0, t_accl - t_fill)  # eq. (8)
        return np.maximum(t_non + rob_full, t_accl)  # eq. (9)
    raise ValueError(f"unknown mode {mode!r}")


def speedup_grid(
    core: CoreParameters,
    accelerator: AcceleratorParameters,
    a: np.ndarray | float,
    v: np.ndarray | float,
    mode: TCAMode,
    drain_estimator: DrainEstimator | None = None,
    drain_time: float | np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form NumPy evaluation of eqs. (1)–(9) over ``(a, v)`` arrays.

    The array-native counterpart of :meth:`TCAModel.speedup`: ``a``
    (acceleratable fraction) and ``v`` (invocation frequency) are
    broadcast against each other and every cell is evaluated in one pass
    of vectorized arithmetic.  The scalar :class:`TCAModel` remains the
    reference oracle; per cell this matches it exactly:

    - ``a == 0`` or ``v == 0`` (no invocations): speedup 1.0;
    - ``0 < a < v`` (less than one instruction per invocation) or values
      outside ``[0, 1]`` — combinations the :class:`WorkloadParameters`
      constructor rejects: NaN;
    - zero interval time: ``inf``;
    - otherwise ``t_baseline / t_mode``.

    Args:
        core: processor parameters.
        accelerator: TCA parameters (explicit ``latency`` wins over ``A``,
            as in the scalar model).
        a: acceleratable fraction(s), broadcastable against ``v``.
        v: invocation frequency(s), broadcastable against ``a``.
        mode: the TCA integration mode to evaluate.
        drain_estimator: NL-mode drain strategy (default power law).
        drain_time: explicit per-workload drain time (scalar or an array
            broadcastable over the grid), taking precedence over the
            estimator — the array form of ``WorkloadParameters.drain_time``.

    Returns:
        Speedups with the broadcast shape of ``(a, v)``.
    """
    cells = _grid_cells(a, v)
    _EVALUATIONS.inc(cells.evaluated)
    time = mode_time_grid(
        core, accelerator, cells.sa, cells.sv, mode, drain_estimator, drain_time
    )
    return cells.mask(_speedup_values(core, cells.sv, time), 1.0)


def speedup_rows(
    cores: Sequence[CoreParameters],
    accelerators: Sequence[AcceleratorParameters],
    workloads: Sequence[WorkloadParameters],
    modes: Sequence[TCAMode],
    drain_estimators: Sequence[DrainEstimator | None],
) -> np.ndarray:
    """Speedups of rows that each carry their own parameters and mode.

    Row ``i`` is the query ``(cores[i], accelerators[i], workloads[i],
    modes[i], drain_estimators[i])``.  The rows' values are gathered
    once into columns (:class:`CoreColumns`, :class:`AcceleratorColumns`,
    per-row drain times), and each distinct mode is one pass of
    :func:`mode_time_grid` over them — the same arithmetic as
    :func:`speedup_grid`, so every row equals the one-cell
    ``speedup_grid`` call of its query bit for bit.

    Drain precedence is per row, as in :class:`TCAModel`: an explicit
    ``workload.drain_time`` wins, else the row's estimator (default
    power law) supplies the estimate.  Estimators run only for NL-mode
    rows, once per distinct (estimator, core) object pair.
    """
    a = np.array([w.acceleratable_fraction for w in workloads], dtype=float)
    v = np.array([w.invocation_frequency for w in workloads], dtype=float)
    cells = _grid_cells(a, v)
    _EVALUATIONS.inc(cells.evaluated)
    core = CoreColumns.gather(cores)
    accelerator = AcceleratorColumns.gather(accelerators)
    rows_of: dict[TCAMode, list[int]] = {}
    for row, mode in enumerate(modes):
        rows_of.setdefault(mode, []).append(row)
    nl_rows = [
        row
        for mode, rows in rows_of.items()
        if not mode.leading
        for row in rows
    ]
    drain_time = None
    if nl_rows:
        drain_time = _drain_rows(
            cores, workloads, drain_estimators, cells.sa, cells.sv, nl_rows
        )
    time = np.empty(len(modes))
    for mode, rows in rows_of.items():
        # Every row goes through the pass; only this mode's are kept.
        time[rows] = mode_time_grid(
            core, accelerator, cells.sa, cells.sv, mode, drain_time=drain_time
        )[rows]
    return cells.mask(_speedup_values(core, cells.sv, time), 1.0)


def _drain_rows(
    cores: Sequence[CoreParameters],
    workloads: Sequence[WorkloadParameters],
    drain_estimators: Sequence[DrainEstimator | None],
    sa: np.ndarray,
    sv: np.ndarray,
    rows: Sequence[int],
) -> np.ndarray:
    """Raw drain times (before the ``t_non_accl`` cap) of ``rows``; the
    other entries are 0.0."""
    raw = np.zeros(len(workloads))
    pending: dict[tuple[int, int], list[int]] = {}
    for row in rows:
        drain_time = workloads[row].drain_time
        if drain_time is not None:
            raw[row] = drain_time
        else:
            key = (id(drain_estimators[row]), id(cores[row]))
            pending.setdefault(key, []).append(row)
    for group in pending.values():
        first = group[0]
        estimator = drain_estimators[first] or PowerLawDrain()
        raw[group] = estimator.estimate_grid(
            cores[first], sa[group], sv[group]
        )
    return raw


class _GridCells(NamedTuple):
    """``(a, v)`` broadcast and classified cell by cell (see :func:`_grid_cells`)."""

    a: np.ndarray
    v: np.ndarray
    no_invocations: np.ndarray
    active: np.ndarray
    sa: np.ndarray
    sv: np.ndarray

    @property
    def evaluated(self) -> int:
        """Cells a grid evaluation counts: active plus no-invocation."""
        return int(self.active.sum()) + int(self.no_invocations.sum())

    def mask(self, values: np.ndarray, no_invocation_fill: float) -> np.ndarray:
        """``values`` at active cells, the fill at no-invocation cells,
        NaN at infeasible ones."""
        out = np.where(self.no_invocations, no_invocation_fill, np.nan)
        return np.where(self.active, values, out)


def _grid_cells(a: np.ndarray | float, v: np.ndarray | float) -> _GridCells:
    """The cell classification :func:`speedup_grid` and
    :func:`repro.core.energy.energy_grid` share.

    ``active`` cells are valid, invoking workloads; ``no_invocations``
    cells have ``a == 0`` or ``v == 0``; every other cell is infeasible.
    ``sa``/``sv`` hold a feasible substitute (1.0) at every inactive
    cell, which keeps each arithmetic step finite and warning-free; the
    masked results are discarded by :meth:`_GridCells.mask`.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    if a.shape != v.shape:
        a, v = np.broadcast_arrays(a, v)
    in_range = (a >= 0.0) & (a <= 1.0) & (v >= 0.0) & (v <= 1.0)
    no_invocations = in_range & ((a == 0.0) | (v == 0.0))
    active = in_range & (a > 0.0) & (v > 0.0) & (a >= v)
    sa = np.where(active, a, 1.0)
    sv = np.where(active, v, 1.0)
    return _GridCells(a, v, no_invocations, active, sa, sv)


def _speedup_values(
    core: CoreParameters | CoreColumns, sv: np.ndarray, time: np.ndarray
) -> np.ndarray:
    """Unmasked ``t_baseline / t_mode`` (``inf`` at zero interval time)."""
    t_base = 1.0 / (sv * core.ipc)  # eq. (1)
    return np.where(time > 0.0, t_base / np.where(time > 0.0, time, 1.0), np.inf)


def predict_speedups(
    core: CoreParameters,
    accelerator: AcceleratorParameters,
    workload: WorkloadParameters,
    drain_estimator: DrainEstimator | None = None,
) -> dict[TCAMode, float]:
    """One-call convenience wrapper: speedups of all four modes."""
    return TCAModel(core, accelerator, workload, drain_estimator).speedups()
