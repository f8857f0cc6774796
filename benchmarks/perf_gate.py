"""Perf-regression gate: compare BENCH_*.json against committed baselines.

The benchmark scripts (``bench_serve.py``, ``bench_sweep.py``,
``bench_sim.py``) write throughput numbers; this gate keeps them from
silently rotting.  It walks a freshly generated benchmark file and a
committed baseline (``benchmarks/baselines/``), compares every
``*_per_sec`` metric, and fails when the fresh number is worse than
``baseline / tolerance``.

The blanket tolerance is deliberately generous (default 3x): CI
runners, laptop thermal states, and container hosts differ wildly, and
this gate exists to catch *gross* regressions — an accidentally
quadratic hot path, a cache that stopped hitting, a vectorized route
falling back to scalar — not 10% noise.  Metrics whose meaning *is* a
large multiplier take **per-metric overrides**: repeatable
``--metric-tolerance GLOB=X`` flags match dotted metric paths
(``fnmatch`` globs, first match wins), so e.g. the native simulator
backend — whose throughput varies more across runner generations than
the pure-Python engine's — can take its own tolerance while everything
else keeps the blanket::

    --metric-tolerance 'native.*=2.0' --metric-tolerance '*.batched.*=2.5'

Two sections are excluded from comparison:

- ``provenance`` — metadata, not metrics;
- ``http`` — multi-process scaling numbers, which depend on the host's
  core count (the benchmark itself asserts the >= 2x pool speedup on
  machines with enough cores).

Baselines are stamped with provenance (host, cpu count, python) so a
failing comparison can be judged — and the gate uses it: when both
files record ``provenance.cpu_count`` and the counts differ by more
than 2x, the comparison is refused outright (a 64-core baseline judged
on a 2-core runner fails on hardware, not regressions; pass
``--allow-cpu-mismatch`` to compare anyway).  Regenerate baselines with
the benchmark scripts and copy the JSON into ``benchmarks/baselines/``
(same scale — the gate refuses to compare across scales, because
throughput at smoke scale is dominated by fixed overheads).

Usage::

    PYTHONPATH=src python benchmarks/perf_gate.py \\
        BENCH_serve.json benchmarks/baselines/smoke/BENCH_serve.json \\
        BENCH_sweep.json benchmarks/baselines/smoke/BENCH_sweep.json \\
        --tolerance 3.0 --metric-tolerance 'native.*=2.0'
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys
from typing import Any, Iterator

#: Sections never compared (metadata / host-dependent scaling).
SKIP_SECTIONS = frozenset({"provenance", "http", "cache", "manifest"})

#: Default slowdown factor tolerated before the gate fails.
DEFAULT_TOLERANCE = 3.0

#: Baselines from a host with a cpu_count more than this factor away
#: from the current host's are refused (either direction).
CPU_MISMATCH_FACTOR = 2.0


def parse_overrides(specs: list[str]) -> list[tuple[str, float]]:
    """``GLOB=X`` strings into ordered ``(pattern, tolerance)`` pairs."""
    overrides: list[tuple[str, float]] = []
    for spec in specs:
        pattern, sep, raw = spec.partition("=")
        try:
            value = float(raw)
        except ValueError:
            value = 0.0
        if not sep or not pattern or value <= 1.0:
            raise ValueError(
                f"--metric-tolerance {spec!r}: expected GLOB=X with X > 1.0"
            )
        overrides.append((pattern, value))
    return overrides


def tolerance_for(
    name: str, overrides: list[tuple[str, float]], default: float
) -> float:
    """The tolerance for a dotted metric path (first matching override)."""
    for pattern, value in overrides:
        if fnmatch.fnmatchcase(name, pattern):
            return value
    return default


def cpu_count_mismatch(
    current: dict[str, Any], baseline: dict[str, Any]
) -> tuple[int, int] | None:
    """The ``(current, baseline)`` cpu counts when too far apart, else None.

    Only judged when both payloads record ``provenance.cpu_count`` — a
    baseline predating the provenance stamp is compared as before.
    """
    counts = []
    for payload in (current, baseline):
        provenance = payload.get("provenance")
        count = provenance.get("cpu_count") if isinstance(provenance, dict) else None
        if isinstance(count, bool) or not isinstance(count, (int, float)) or count < 1:
            return None
        counts.append(int(count))
    low, high = sorted(counts)
    if high > low * CPU_MISMATCH_FACTOR:
        return counts[0], counts[1]
    return None


def iter_metrics(
    payload: dict[str, Any], prefix: tuple[str, ...] = ()
) -> Iterator[tuple[tuple[str, ...], float]]:
    """Yield every ``(path, value)`` throughput metric in ``payload``.

    A metric is a numeric leaf whose key ends in ``_per_sec``; sections
    named in :data:`SKIP_SECTIONS` are not descended into.
    """
    for key, value in payload.items():
        if key in SKIP_SECTIONS:
            continue
        if isinstance(value, dict):
            yield from iter_metrics(value, prefix + (key,))
        elif key.endswith("_per_sec") and isinstance(value, (int, float)):
            if not isinstance(value, bool):
                yield prefix + (key,), float(value)


def lookup(payload: dict[str, Any], path: tuple[str, ...]) -> float | None:
    """The numeric value at ``path``, or ``None`` if absent/non-numeric."""
    node: Any = payload
    for part in path:
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def check_pair(
    current_path: str,
    baseline_path: str,
    tolerance: float,
    overrides: list[tuple[str, float]] | None = None,
    allow_cpu_mismatch: bool = False,
) -> list[str]:
    """Compare one benchmark file against its baseline.

    Returns a list of failure messages (empty = pass), printing a
    per-metric table as it goes.
    """
    overrides = overrides or []
    with open(current_path, "r", encoding="utf-8") as handle:
        current = json.load(handle)
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)

    failures: list[str] = []
    label = f"{current_path} vs {baseline_path}"
    bench = baseline.get("bench", "?")
    print(f"gate: {label} (bench={bench}, tolerance={tolerance:g}x)")

    if current.get("bench") != baseline.get("bench"):
        failures.append(
            f"{label}: bench kind mismatch "
            f"({current.get('bench')!r} vs {baseline.get('bench')!r})"
        )
        return failures
    if (
        "scale" in current
        and "scale" in baseline
        and current["scale"] != baseline["scale"]
    ):
        failures.append(
            f"{label}: scale mismatch ({current['scale']!r} vs "
            f"{baseline['scale']!r}) — regenerate the baseline at the "
            "scale CI runs"
        )
        return failures
    mismatch = cpu_count_mismatch(current, baseline)
    if mismatch is not None and not allow_cpu_mismatch:
        failures.append(
            f"{label}: cpu_count mismatch — this host has {mismatch[0]} "
            f"cpus, the baseline was recorded on {mismatch[1]} (more than "
            f"{CPU_MISMATCH_FACTOR:g}x apart); throughput is not "
            "comparable.  Regenerate the baseline on matching hardware, "
            "or pass --allow-cpu-mismatch to compare anyway"
        )
        return failures

    metrics = list(iter_metrics(baseline))
    if not metrics:
        failures.append(f"{label}: baseline contains no *_per_sec metrics")
        return failures
    for path, expected in metrics:
        name = ".".join(path)
        metric_tolerance = tolerance_for(name, overrides, tolerance)
        got = lookup(current, path)
        if got is None:
            failures.append(f"{bench}: metric {name} missing from {current_path}")
            print(f"  FAIL {name:<44} missing")
            continue
        floor = expected / metric_tolerance
        ratio = got / expected if expected > 0 else float("inf")
        status = "ok" if got >= floor else "FAIL"
        print(
            f"  {status:<4} {name:<44} {got:>14.0f} vs {expected:>14.0f} "
            f"({ratio:.2f}x baseline, tol {metric_tolerance:g}x)"
        )
        if got < floor:
            failures.append(
                f"{bench}: {name} regressed to {got:.0f}/s — below "
                f"{floor:.0f}/s (baseline {expected:.0f}/s / "
                f"{metric_tolerance:g})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    """Gate entry point; exits non-zero on any gross regression."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files",
        nargs="+",
        metavar="CURRENT BASELINE",
        help="alternating current/baseline JSON paths",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="X",
        help="fail when current < baseline / X (default: %(default)s)",
    )
    parser.add_argument(
        "--metric-tolerance",
        action="append",
        default=[],
        metavar="GLOB=X",
        help="per-metric tolerance override for dotted metric paths "
        "matching GLOB (repeatable; first match wins), e.g. "
        "'native.*=2.0' to gate the native sim backend tighter than "
        "the blanket tolerance",
    )
    parser.add_argument(
        "--allow-cpu-mismatch",
        action="store_true",
        help="compare even when provenance.cpu_count differs by more "
        f"than {CPU_MISMATCH_FACTOR:g}x between current and baseline",
    )
    args = parser.parse_args(argv)
    if len(args.files) % 2 != 0:
        parser.error("expected alternating CURRENT BASELINE path pairs")
    if args.tolerance <= 1.0:
        parser.error("--tolerance must be > 1.0")
    try:
        overrides = parse_overrides(args.metric_tolerance)
    except ValueError as exc:
        parser.error(str(exc))

    failures: list[str] = []
    for i in range(0, len(args.files), 2):
        failures.extend(
            check_pair(
                args.files[i],
                args.files[i + 1],
                args.tolerance,
                overrides=overrides,
                allow_cpu_mismatch=args.allow_cpu_mismatch,
            )
        )
    if failures:
        print(f"\nperf gate FAILED ({len(failures)} regression(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
