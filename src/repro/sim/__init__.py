"""Cycle-level trace-driven out-of-order core simulator (gem5 substitute).

The paper validates its analytical model against gem5.  This package is the
reproduction's detailed-simulation substrate: a from-scratch OoO core model
with a reorder buffer, issue queue, load/store queue with store-to-load
forwarding, register renaming, a two-level cache hierarchy, per-class
functional units, branch-redirect penalties, and a tightly-coupled
accelerator (TCA) unit honouring the paper's four integration modes:

- **NL** (non-leading): the TCA is non-speculative — it may not begin
  executing until every leading instruction has committed (ROB drain).
- **NT** (non-trailing): the TCA is a dispatch barrier — no younger
  instruction dispatches until the TCA commits.

The public entry points are :class:`~repro.sim.config.SimConfig`,
:func:`~repro.sim.simulator.simulate`, and
:func:`~repro.sim.simulator.simulate_modes`.  Repeated simulation of one
trace (mode comparisons, design-space sweeps, the evaluation service) can
pay the trace-static analysis once via
:func:`~repro.sim.compile.compile_trace` and pass the resulting
:class:`~repro.sim.compile.CompiledTrace` anywhere a trace is accepted;
see ``docs/SIMULATOR.md``.
"""

from repro.sim.cache import CacheConfig, CacheHierarchy, CacheLevelStats
from repro.sim.compile import CompiledTrace, compile_trace
from repro.sim.config import (
    ARM_A72_SIM,
    HIGH_PERF_SIM,
    LOW_PERF_SIM,
    FunctionalUnitConfig,
    SimConfig,
)
from repro.sim.sample import (
    SamplingConfig,
    merge_stats,
    sampling_scope,
    simulate_sampled,
    simulate_segments,
)
from repro.sim.simulator import SimulationResult, simulate, simulate_modes
from repro.sim.stats import SimStats, StallReason

__all__ = [
    "ARM_A72_SIM",
    "HIGH_PERF_SIM",
    "LOW_PERF_SIM",
    "CacheConfig",
    "CacheHierarchy",
    "CacheLevelStats",
    "CompiledTrace",
    "FunctionalUnitConfig",
    "SamplingConfig",
    "SimConfig",
    "SimStats",
    "SimulationResult",
    "StallReason",
    "compile_trace",
    "merge_stats",
    "sampling_scope",
    "simulate",
    "simulate_modes",
    "simulate_sampled",
    "simulate_segments",
]
