"""Reproduction of *Modeling Architectural Support for Tightly-Coupled
Accelerators* (Schlais, Zhuo, Lipasti — ISPASS 2020).

The package provides:

- :mod:`repro.api` — the public façade: :func:`evaluate`, :func:`sweep`,
  :func:`pareto_sweep`, :func:`simulate`, and :func:`compare`, returning
  typed JSON-round-trippable results (``docs/API.md``);
- :mod:`repro.core` — the paper's analytical TCA performance model
  (four leading/trailing concurrency modes, drain/fill/barrier penalties,
  sweeps, heatmaps, concurrency limits, design-space tools);
- :mod:`repro.sim` — a cycle-level trace-driven out-of-order core
  simulator (the gem5 substitute used for validation);
- :mod:`repro.isa` — the instruction/trace substrate;
- :mod:`repro.workloads` — the paper's workloads: synthetic adaptive
  microbenchmarks, a TCMalloc-style heap benchmark, blocked DGEMM with
  MMA TCAs, and accelerator catalogs;
- :mod:`repro.baselines` — LogCA, Gables, and Amdahl comparators;
- :mod:`repro.experiments` — regenerators for every figure/table in the
  paper's evaluation;
- :mod:`repro.serve` — content-addressed caching, batched evaluation,
  and the ``repro-serve`` HTTP service (``docs/SERVING.md``);
- :mod:`repro.obs` — observability: opt-in pipeline event tracing
  (Chrome ``trace_event`` export), a metrics registry, structured
  logging, and run-provenance manifests (``docs/OBSERVABILITY.md``).

Quick start::

    from repro import evaluate, ARM_A72, AcceleratorParameters, WorkloadParameters

    result = evaluate(
        ARM_A72,
        AcceleratorParameters(name="heap", acceleration=3.0),
        WorkloadParameters.from_granularity(50, acceleratable_fraction=0.3),
    )
    for mode, speedup in result.speedups.items():
        print(mode.value, round(speedup, 3))
"""

import warnings as _warnings

# NOTE: repro.core must be imported before repro.sim — repro.sim.config
# depends on repro.core.modes, while repro.core.validation lazily imports
# repro.sim at call time.  Importing core first keeps every entry point
# (``import repro.sim``, ``import repro.core.modes``, ...) cycle-free.
# repro.api builds on both (plus repro.serve), so it comes last.
from repro import core as core  # noqa: F401  (import-order anchor)
from repro.core import (
    ARM_A72,
    HIGH_PERF,
    LOW_PERF,
    AcceleratorParameters,
    CoreParameters,
    ExplicitDrain,
    PowerLawDrain,
    TCAModel,
    TCAMode,
    ValidationReport,
    WorkloadParameters,
    validate_workload,
)
from repro.isa import Instruction, OpClass, TCADescriptor, Trace, TraceBuilder
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    PipelineTracer,
    build_manifest,
    configure_logging,
    get_logger,
    get_registry,
    tracing,
)
from repro.sim import (
    ARM_A72_SIM,
    HIGH_PERF_SIM,
    LOW_PERF_SIM,
    SamplingConfig,
    SimConfig,
)
from repro.api import (
    ComparisonResult,
    EvaluationResult,
    ParetoPoint,
    ParetoSweepResult,
    SimulationResult,
    SweepResult,
    compare,
    evaluate,
    pareto_sweep,
    simulate,
    sweep,
)
from repro.serve import EvaluationCache

__version__ = "1.11.0"

__all__ = [
    "ARM_A72",
    "ARM_A72_SIM",
    "HIGH_PERF",
    "HIGH_PERF_SIM",
    "LOW_PERF",
    "LOW_PERF_SIM",
    "AcceleratorParameters",
    "ComparisonResult",
    "CoreParameters",
    "EvaluationCache",
    "EvaluationResult",
    "ExplicitDrain",
    "Instruction",
    "MetricsRegistry",
    "NullTracer",
    "OpClass",
    "ParetoPoint",
    "ParetoSweepResult",
    "PipelineTracer",
    "PowerLawDrain",
    "SamplingConfig",
    "SimConfig",
    "SimulationResult",
    "SweepResult",
    "TCADescriptor",
    "TCAModel",
    "TCAMode",
    "Trace",
    "TraceBuilder",
    "ValidationReport",
    "WorkloadParameters",
    "build_manifest",
    "compare",
    "configure_logging",
    "evaluate",
    "get_logger",
    "get_registry",
    "pareto_sweep",
    "predict_speedups",
    "simulate",
    "simulate_modes",
    "sweep",
    "tracing",
    "validate_workload",
]

#: Top-level names retired in favor of the :mod:`repro.api` façade:
#: name -> (provider module, attribute, replacement hint).
_DEPRECATED = {
    "predict_speedups": ("repro.core", "predict_speedups", "repro.evaluate"),
    "simulate_modes": ("repro.sim", "simulate_modes", "repro.compare"),
}


def __getattr__(name):
    """Resolve deprecated top-level exports with a :class:`DeprecationWarning`.

    ``repro.predict_speedups`` and ``repro.simulate_modes`` still work —
    they forward to their original implementations — but new code should
    use :func:`repro.evaluate` and :func:`repro.compare`, which add
    caching and typed, serializable results.
    """
    try:
        module_name, attribute, replacement = _DEPRECATED[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    _warnings.warn(
        f"repro.{name} is deprecated; use {replacement} instead",
        DeprecationWarning,
        stacklevel=2,
    )
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
