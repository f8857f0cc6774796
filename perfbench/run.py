"""End-to-end benchmark of the TCA model, simulator and HTTP service.

Run from the repository root::

    python3 perfbench/run.py --workload evaluate-http --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` declares the workloads and metrics.  With
``--trace 0`` a run measures every end-to-end metric; with
``--trace 1`` it runs the seeded inputs once untraced for half the
time, replays the same inputs once with per-layer timing, and reports
each layer's time and share.  Every output is checked against an
oracle; a mismatch counts as a failed operation.  Every time is scaled
to a reference host speed by a fixed probe timed next to it (see
:class:`harness.HostSpeed`).  The last line of
standard output is the JSON result.  Details, provenance and the Chrome
trace of the traced pass are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("evaluate-http", "pareto-stream", "simulate-cold", "validate-warm")

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5

#: A run still going after this many seconds stops its servers and fails.
DEADLINE_S = 170


class DeadlineExceeded(Exception):
    """The run overran :data:`DEADLINE_S`."""


def _deadline(signum: int, frame: Any) -> None:
    raise DeadlineExceeded(f"run exceeded {DEADLINE_S}s")


def isolate_environment() -> None:
    """Point this process and its children at the checkout only.

    The package is imported from ``src/``, the C kernel is built into
    ``.bench_build/native`` instead of the user's cache, and the
    simulator backend is left to its default selection.
    """
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["REPRO_NATIVE_CACHE_DIR"] = str(ROOT / ".bench_build" / "native")
    os.environ.pop("REPRO_SIM_BACKEND", None)
    sys.path.insert(0, str(SRC))


def build_native() -> None:
    """Compile the C simulator kernel before anything is measured."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.sim.backend import effective_backend; effective_backend()"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"perfbench: cannot build the package under {SRC}:\n"
            f"{proc.stderr.strip()[-2000:]}"
        )


def make_workload(name: str, seed: int) -> Any:
    """The workload object for ``name``."""
    if name in ("evaluate-http", "pareto-stream"):
        import serving

        return {"evaluate-http": serving.EvaluateHTTP,
                "pareto-stream": serving.ParetoStream}[name](seed)
    import simulation

    return {"simulate-cold": simulation.SimulateCold,
            "validate-warm": simulation.ValidateWarm}[name](seed)


def measure(workload: Any, seconds: float, trace: bool) -> dict[str, Any]:
    """Run the passes of one benchmark run and derive its metrics."""
    import harness

    if not trace:
        host = harness.HostSpeed(workload.cpus)
        setup = [host.normalized_s(workload.fresh_setup_s) for _ in range(SETUP_SAMPLES)]
        workload.prepare()
        run = workload.run(seconds=seconds)
        rss_mb = workload.peak_rss_mb()
        metrics, details = harness.end_to_end(
            run,
            setup_s=setup,
            rss_mb=rss_mb,
            busy_s=workload.busy_s(run),
            model_error=workload.model_error(),
        )
        passes, problems = [run], []
    else:
        workload.prepare()
        plain = workload.run(seconds=seconds / 2)
        properties = dict(workload.properties)
        workload.reset()
        traced = workload.run(count=len(plain.ops), traced=True)
        metrics, coverage = harness.layer_metrics(
            traced, plain, workload.layer_extras(traced)
        )
        details = {
            "traced_ops": len(traced.ops),
            "untraced_properties": properties,
            "chrome_trace": str(write_chrome_trace(workload, traced)),
        }
        passes = [plain, traced]
        problems = []
        if coverage < harness.MIN_COVERAGE_PCT:
            problems.append(
                f"layers cover {coverage:.1f}% of the traced op latency "
                f"(< {harness.MIN_COVERAGE_PCT}%)"
            )
    from repro.sim.backend import effective_backend
    from simulation import EXPECTED_BACKEND

    backend = effective_backend()
    if backend != EXPECTED_BACKEND:
        problems.append(f"simulator backend {backend!r}, baseline used {EXPECTED_BACKEND!r}")
    details["properties"] = workload.properties
    return {
        "metrics": metrics,
        "details": details,
        "backend": backend,
        "attempted": sum(len(p.ops) for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors] + problems,
        "correct": not problems and not any(p.failed for p in passes),
    }


def write_chrome_trace(workload: Any, traced: Any) -> Path:
    """The traced pass's spans as a Chrome trace file."""
    import harness
    from repro.obs.manifest import bench_provenance

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload.name}-seed{workload.seed}.trace.json"
    path.write_text(
        json.dumps(
            {
                "traceEvents": harness.chrome_events(traced.ops),
                "displayTimeUnit": "ms",
                "metadata": bench_provenance(),
            }
        ),
        encoding="utf-8",
    )
    return path.relative_to(ROOT)


def report(args: argparse.Namespace, result: dict[str, Any]) -> None:
    """Print every metric by name and unit, save the details, and end with
    the one-line JSON result."""
    from repro.obs.manifest import bench_provenance

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} backend={result['backend']}"
    )
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for key, value in result["details"].items():
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for error in result["errors"]:
        print(f"  error: {error}")
    OUT.mkdir(parents=True, exist_ok=True)
    details = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "provenance": bench_provenance(),
                **result,
            },
            indent=2,
        ),
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    """Benchmark entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up in this process, print 'ready' and exit "
        "(how a run measures set-up time in a fresh process)",
    )
    args = parser.parse_args(argv)
    isolate_environment()
    if args.setup_only:
        make_workload(args.workload, args.seed).prepare()
        print("ready", flush=True)
        return 0

    build_native()
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(DEADLINE_S)
    workload = make_workload(args.workload, args.seed)
    try:
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    signal.alarm(0)
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
