"""Experiment registry and CLI.

``repro-experiments`` (or ``python -m repro.experiments.runner``) runs any
subset of the paper's figures/tables::

    repro-experiments fig2 fig8            # two quick model figures
    repro-experiments all --scale smoke    # everything, CI-sized
    REPRO_SCALE=full repro-experiments all --save

Observability (see ``docs/OBSERVABILITY.md``):

- ``--trace PATH`` records a Chrome ``trace_event`` file of every
  simulation the chosen experiments run (open in Perfetto); under
  ``--jobs N`` each worker writes its own shard and the shards are
  merged onto one timeline (per-shard pid offsets) on the way out, so
  tracing no longer forces serial execution;
- ``--profile`` prints the metrics registry's per-stage timing table;
- ``--log-level debug`` enables the package's diagnostic logging;
- ``--save`` writes JSON records that carry a provenance manifest
  (git sha, scale, host, wall time, metrics snapshot).
"""

from __future__ import annotations

import argparse
import inspect
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext
from time import perf_counter
from typing import Callable

from repro.cli_common import (
    add_common_arguments,
    configure_from_args,
    maybe_print_profile,
)
from repro.core.parallel import parallel_map

from repro.experiments import (
    ablations,
    fig2_granularity,
    fig3_timeline,
    fig4_synthetic,
    fig5_heap,
    fig6_matmul,
    fig7_heatmap,
    fig8_concurrency,
    table1_parameters,
    zoo,
)
from repro.experiments.report import ExperimentResult
from repro.obs.log import get_logger
from repro.obs.manifest import build_manifest
from repro.obs.metrics import get_registry
from repro.obs.tracer import PipelineTracer, merge_chrome_trace_files, tracing
from repro.sim.sample import SamplingConfig, parse_sampling_spec, sampling_scope

# Named explicitly: under ``python -m`` __name__ is "__main__".
_log = get_logger("experiments.runner")

#: All regenerable paper artifacts, in paper order.
EXPERIMENTS: dict[str, Callable[[str | None], ExperimentResult]] = {
    "fig2": fig2_granularity.run,
    "fig3": fig3_timeline.run,
    "table1": table1_parameters.run,
    "fig4": fig4_synthetic.run,
    "fig5": fig5_heap.run,
    "fig6": fig6_matmul.run,
    "fig7": fig7_heatmap.run,
    "fig8": fig8_concurrency.run,
    "ablations": ablations.run,
    "zoo": zoo.run,
}


def run_experiment(
    name: str, scale: str | None = None, jobs: int = 1
) -> ExperimentResult:
    """Run one experiment by id (``fig2`` .. ``fig8``, ``table1``).

    ``jobs`` is forwarded to experiments whose runner supports
    process-parallel evaluation (currently ``fig7``); the rest ignore it.
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        ) from None
    if jobs > 1 and "jobs" in inspect.signature(runner).parameters:
        return runner(scale, jobs=jobs)
    return runner(scale)


def _run_timed(
    task: tuple[str, str | None, int, str | None, SamplingConfig | None]
) -> tuple[ExperimentResult, float]:
    """Run one experiment, returning (result, wall seconds).

    Module-level so ``--jobs`` pool workers can pickle it; workers pass
    an inner ``jobs`` of 1 (daemonic pool processes cannot nest pools).
    With a ``trace_shard`` path the experiment runs under its own
    :class:`PipelineTracer` and writes the recorded runs there — the
    parent merges every worker's shard onto one timeline afterwards.
    ``sampling`` rides in the task (not ambient state) because
    :func:`~repro.sim.sample.sampling_scope` context does not cross the
    process boundary; the worker re-enters the scope itself.
    """
    name, scale, jobs, trace_shard, sampling = task
    started = perf_counter()
    tracer = PipelineTracer() if trace_shard is not None else None
    # nullcontext (not tracing(None)) when untraced: the serial path runs
    # inside the parent's ambient tracer, which must stay in effect.
    with tracing(tracer) if tracer is not None else nullcontext():
        with sampling_scope(sampling) if sampling is not None else nullcontext():
            with get_registry().timer(f"experiment.{name}").time():
                result = run_experiment(name, scale, jobs=jobs)
    if tracer is not None:
        tracer.write_chrome_trace(trace_shard)
    return result, perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "default", "full", "paper"),
        default=None,
        help="workload scale (default: REPRO_SCALE env or 'default')",
    )
    parser.add_argument(
        "--save",
        action="store_true",
        help="write JSON records (with provenance manifests) under results/",
    )
    parser.add_argument(
        "--sample-sim",
        metavar="SPEC",
        default=None,
        help=(
            "run every cycle-level simulation under interval sampling: "
            "'sampled', 'exact', or 'interval=1000,period=10,...' (see "
            "repro.sim.sample.parse_sampling_spec); traces below the "
            "sampling thresholds still run exact"
        ),
    )
    add_common_arguments(parser, jobs=True, trace=True)
    args = parser.parse_args(argv)
    configure_from_args(args)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(f"unknown experiment {name!r}")
    sampling = None
    if args.sample_sim is not None:
        try:
            sampling = parse_sampling_spec(args.sample_sim)
        except ValueError as exc:
            parser.error(f"--sample-sim: {exc}")
    if args.trace:
        # Fail fast on an unwritable trace path rather than after the
        # experiments have burned their wall time.
        try:
            with open(args.trace, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            parser.error(f"cannot write trace file {args.trace!r}: {exc}")

    registry = get_registry()
    jobs = max(1, args.jobs)
    parallel_experiments = jobs > 1 and len(names) > 1
    # Serial runs record into one ambient tracer; parallel runs give
    # every worker its own trace shard (an ambient tracer cannot observe
    # simulations inside pool processes) and merge the shards afterwards,
    # so --trace no longer forces serial execution.
    tracer = PipelineTracer() if args.trace and not parallel_experiments else None
    shard_dir: str | None = None
    shards: list[str | None] = [None] * len(names)
    if args.trace and parallel_experiments:
        shard_dir = tempfile.mkdtemp(prefix="repro-trace-shards-")
        shards = [
            os.path.join(shard_dir, f"shard-{offset:03d}-{name}.json")
            for offset, name in enumerate(names)
        ]
    try:
        with tracing(tracer):
            if parallel_experiments:
                # Fan the experiments themselves out; each worker merges
                # its metrics back here, so --profile totals match a
                # serial run.
                outcomes = zip(
                    names,
                    parallel_map(
                        _run_timed,
                        [
                            (name, args.scale, 1, shard, sampling)
                            for name, shard in zip(names, shards)
                        ],
                        jobs=jobs,
                    ),
                )
            else:  # lazily, so each experiment prints as it finishes
                outcomes = (
                    (name, _run_timed((name, args.scale, jobs, None, sampling)))
                    for name in names
                )
            for name, (result, duration) in outcomes:
                _log.info("%s completed in %.2fs", name, duration)
                print(result.render())
                print()
                if args.save:
                    result.manifest = build_manifest(
                        scale=result.scale,
                        wall_time_s=duration,
                        metrics=registry.snapshot(),
                    )
                    path = result.save_json()
                    print(f"[saved {path}]")
        if tracer is not None:
            count = tracer.write_chrome_trace(args.trace)
            if not tracer.runs:
                _log.warning(
                    "no simulations ran under --trace (model-only "
                    "experiments produce empty traces)"
                )
            print(
                f"[trace: {count} events from {len(tracer.runs)} run(s) "
                f"written to {args.trace}]"
            )
        elif shard_dir is not None:
            count = merge_chrome_trace_files(
                [shard for shard in shards if shard is not None], args.trace
            )
            if not count:
                _log.warning(
                    "no simulations ran under --trace (model-only "
                    "experiments produce empty traces)"
                )
            print(
                f"[trace: {count} events merged from {len(names)} worker "
                f"shard(s) into {args.trace}]"
            )
    finally:
        if shard_dir is not None:
            shutil.rmtree(shard_dir, ignore_errors=True)
    maybe_print_profile(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
