"""Micro-benchmark: scalar vs batched vs cached serving, plus scale-out.

Times a heterogeneous 10k-query workload (mixed cores, accelerators,
modes, drain configs — the shape a ``/evaluate`` request has) and writes
the numbers to ``BENCH_serve.json``:

- **scalar** — the reference oracle: one
  :class:`~repro.core.model.TCAModel` per query (best-of-:data:`REPEATS`);
- **batched** — the batch engine itself, caching disabled: grouping +
  coalesced :func:`~repro.core.model.speedup_grid` calls, with key
  construction skipped entirely (best-of-:data:`REPEATS`; this is the
  apples-to-apples engine-vs-scalar comparison, and it must win —
  see :data:`MIN_BATCHED_SPEEDUP`);
- **cold_cache_fill** — one :func:`~repro.serve.batch.evaluate_batch`
  call against an empty :class:`~repro.serve.cache.EvaluationCache`:
  batched evaluation plus group-digest keying plus the bulk cache fill
  (timed single-shot — repeating it would hit the cache it just filled);
- **cached** — the identical batch repeated against the now-warm cache
  (best-of-:data:`REPEATS`), answered entirely by one bulk lookup.

It also measures what the telemetry layer itself costs: the same
batched evaluation with tracing **off** (the library default — every
``span()`` call is a single contextvar read) and **on** (inside a
:func:`~repro.obs.span.request_scope`, recording the full span tree
exactly as a ``?debug=trace`` request does).  Both land in the
``telemetry`` section as ``queries_per_sec`` entries, so
``benchmarks/perf_gate.py`` gates the instrumented path like any other
hot path — if spans ever become expensive, CI fails.

With ``--http-requests > 0`` (the default) it then measures the service
end-to-end: a thread-pool load generator firing ``/evaluate`` requests
over persistent connections at a single-process server and at a
pre-forked ``--workers`` pool (see :mod:`repro.serve.pool`), recording
HTTP-level queries/sec for each.  The ``results`` payloads must be
byte-identical across worker counts, and on a >= 4-core machine the
pool must beat the single process by at least 2x (on smaller hosts the
numbers are recorded but not asserted — the GIL leaves nothing to win).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --queries 50000
    PYTHONPATH=src python benchmarks/bench_serve.py --http-requests 0

The script cross-checks that the batched results match the scalar oracle
within 1e-9, so the reported speedups can't silently come from computing
something different, and ``benchmarks/perf_gate.py`` compares the
written numbers against committed baselines in CI.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import threading
from http.client import HTTPConnection
from time import perf_counter

from repro.core.drain import BalancedWindowDrain, ExplicitDrain
from repro.core.model import TCAModel
from repro.core.modes import TCAMode
from repro.core.parameters import (
    ARM_A72,
    HIGH_PERF,
    LOW_PERF,
    AcceleratorParameters,
    WorkloadParameters,
)
from repro.obs.manifest import bench_provenance
from repro.obs.span import request_scope
from repro.serve.batch import EvaluationQuery, evaluate_batch
from repro.serve.cache import EvaluationCache

#: Best-of-N timing repetitions per approach.
REPEATS = 3

#: The cache-disabled batch engine must beat the scalar loop — this is
#: the regression the group-digest keying + bulk cache ops fixed (the
#: pre-group-digest engine measured 0.19x here).
MIN_BATCHED_SPEEDUP = 1.0

#: The warm cached rerun must beat the cold fill by at least this much.
MIN_CACHED_SPEEDUP_VS_COLD = 1.2

#: The pool must beat one process by this factor — asserted only on
#: machines with at least :data:`MIN_CORES_FOR_SCALING` cores.
MIN_POOL_SPEEDUP = 2.0
MIN_CORES_FOR_SCALING = 4

CORES = (ARM_A72, HIGH_PERF, LOW_PERF)
#: Preset names matching CORES, for the HTTP payload form.
CORE_NAMES = ("a72", "hp", "lp")
ACCELERATORS = (
    AcceleratorParameters(name="x3", acceleration=3.0),
    AcceleratorParameters(name="x8", acceleration=8.0),
    AcceleratorParameters(name="lat", latency=25.0),
)
DRAINS = (None, ExplicitDrain(40.0), BalancedWindowDrain())
#: HTTP drain specs matching DRAINS.
DRAIN_SPECS = (
    None,
    {"kind": "explicit", "cycles": 40.0},
    {"kind": "balanced_window"},
)


def make_queries(n: int, seed: int = 20200406) -> list[EvaluationQuery]:
    """``n`` heterogeneous queries, deterministic for a given seed."""
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        workload = WorkloadParameters.from_granularity(
            rng.uniform(2.0, 5000.0),
            acceleratable_fraction=rng.uniform(0.05, 0.95),
        )
        queries.append(
            EvaluationQuery(
                core=rng.choice(CORES),
                accelerator=rng.choice(ACCELERATORS),
                workload=workload,
                mode=rng.choice(TCAMode.all_modes()),
                drain_estimator=rng.choice(DRAINS),
            )
        )
    return queries


def run_scalar(queries: list[EvaluationQuery]) -> list[float]:
    """The oracle: one scalar model per query."""
    return [
        TCAModel(
            q.core, q.accelerator, q.workload, drain_estimator=q.drain_estimator
        ).speedup(q.mode)
        for q in queries
    ]


def best_of(fn, repeats: int = REPEATS):
    """(best seconds, last result) over ``repeats`` calls of ``fn()``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = perf_counter()
        result = fn()
        best = min(best, perf_counter() - started)
    return best, result


def bench_telemetry(queries: list[EvaluationQuery]) -> dict:
    """Tracing-off vs tracing-on timings of the batched hot path.

    "Off" is the library default: no request scope is active, so every
    ``span()`` inside the batch engine is one contextvar read returning
    the shared null span.  "On" wraps the identical call in a
    :func:`request_scope`, recording the real span tree — the per-
    request cost a ``?debug=trace`` (or any served request, since the
    service always opens a scope) pays.
    """
    n = len(queries)
    off_s, _ = best_of(lambda: evaluate_batch(queries, cache=None))

    def traced():
        with request_scope("bench.evaluate"):
            return evaluate_batch(queries, cache=None)

    on_s, _ = best_of(traced)

    def entry(seconds: float) -> dict:
        return {
            "seconds": seconds,
            "queries_per_sec": n / seconds if seconds > 0 else float("inf"),
        }

    return {
        "telemetry_off": entry(off_s),
        "telemetry_on": entry(on_s),
        "overhead_pct": (
            100.0 * (on_s - off_s) / off_s if off_s > 0 else 0.0
        ),
    }


# --- HTTP load-generation section ------------------------------------


def make_request_payloads(
    requests: int, batch: int, seed: int = 20200713
) -> list[bytes]:
    """Deterministic ``/evaluate`` request bodies for the load generator.

    Each request carries ``batch`` heterogeneous queries in the HTTP
    payload form (preset cores, parameter-object accelerators, drain
    specs), so the server exercises parsing + batch engine + cache per
    request — the real serving hot path.
    """
    rng = random.Random(seed)
    payloads = []
    for _ in range(requests):
        specs = []
        for _ in range(batch):
            specs.append(
                {
                    "core": rng.choice(CORE_NAMES),
                    "accelerator": rng.choice(
                        (
                            {"acceleration": 3.0},
                            {"acceleration": 8.0},
                            {"latency": 25.0},
                        )
                    ),
                    "workload": {
                        "granularity": rng.uniform(2.0, 5000.0),
                        "acceleratable_fraction": rng.uniform(0.05, 0.95),
                    },
                    "modes": [rng.choice(TCAMode.all_modes()).value],
                    "drain": DRAIN_SPECS[rng.randrange(len(DRAIN_SPECS))],
                }
            )
        payloads.append(json.dumps({"queries": specs}).encode("utf-8"))
    return payloads


def _start_server(workers: int) -> tuple[subprocess.Popen, int]:
    """Launch ``repro-serve`` with ``workers`` processes on a free port."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve.service",
            "--port",
            "0",
            "--workers",
            str(workers),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    try:
        port = int(line.split("http://", 1)[1].split("(", 1)[0].strip().rsplit(":", 1)[1].rstrip("/ "))
    except (IndexError, ValueError):
        proc.kill()
        raise RuntimeError(f"could not parse server banner: {line!r}")
    return proc, port


def _stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)


def run_http_load(
    port: int, payloads: list[bytes], concurrency: int
) -> tuple[float, list[bytes]]:
    """Fire all payloads at the server from a thread pool.

    Threads share a queue of request indices and keep one persistent
    connection each: the server speaks HTTP/1.1 keep-alive, so every
    thread's requests reuse one socket.  Returns (wall seconds, the ``results`` field of
    every response as canonical bytes, in request order) — the caller
    compares those bytes across worker counts.
    """
    results: list[bytes | None] = [None] * len(payloads)
    next_index = iter(range(len(payloads)))
    lock = threading.Lock()
    errors: list[BaseException] = []

    def drive() -> None:
        conn = HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    try:
                        i = next(next_index)
                    except StopIteration:
                        return
                conn.request(
                    "POST",
                    "/evaluate",
                    body=payloads[i],
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = response.read()
                if response.status != 200:
                    raise RuntimeError(
                        f"request {i}: HTTP {response.status}: {body[:300]!r}"
                    )
                # Canonical form of just the results: the full payload
                # carries per-worker cache statistics, and each result a
                # per-process `cached` flag — both legitimately differ
                # across worker counts.  Everything else (speedups,
                # parameters) must be byte-identical.
                parsed = json.loads(body)["results"]
                for result in parsed:
                    result.pop("cached", None)
                results[i] = json.dumps(parsed, sort_keys=True).encode("utf-8")
        except BaseException as exc:  # surface in the main thread
            with lock:
                errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=drive) for _ in range(concurrency)]
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - started
    if errors:
        raise errors[0]
    assert all(body is not None for body in results)
    return elapsed, results  # type: ignore[return-value]


def bench_http(
    requests: int, batch: int, concurrency: int, pool_workers: int
) -> dict:
    """The multi-worker HTTP section of the benchmark."""
    payloads = make_request_payloads(requests, batch)
    section: dict = {
        "requests": requests,
        "queries_per_request": batch,
        "concurrency": concurrency,
        "pool_workers": pool_workers,
    }
    total_queries = requests * batch
    reference: list[bytes] | None = None
    for label, workers in (("single", 1), ("pool", pool_workers)):
        proc, port = _start_server(workers)
        try:
            # tiny warmup so process start/import cost isn't timed
            run_http_load(port, payloads[: min(4, len(payloads))], concurrency)
            elapsed, results = run_http_load(port, payloads, concurrency)
        finally:
            _stop_server(proc)
        if reference is None:
            reference = results
        elif results != reference:
            diverging = sum(a != b for a, b in zip(results, reference))
            raise AssertionError(
                f"{diverging} of {len(results)} HTTP responses differ "
                f"between worker counts — results must be byte-identical"
            )
        section[label] = {
            "workers": workers,
            "seconds": elapsed,
            "queries_per_sec": total_queries / elapsed if elapsed > 0 else 0.0,
            "requests_per_sec": requests / elapsed if elapsed > 0 else 0.0,
        }
    pool_s = section["pool"]["seconds"]
    section["pool_speedup_vs_single"] = (
        section["single"]["seconds"] / pool_s if pool_s > 0 else float("inf")
    )
    section["identical_results"] = True  # divergence raises above
    cores = os.cpu_count() or 1
    section["scaling_asserted"] = cores >= MIN_CORES_FOR_SCALING
    if section["scaling_asserted"] and section["pool_speedup_vs_single"] < MIN_POOL_SPEEDUP:
        raise AssertionError(
            f"{pool_workers}-worker pool only "
            f"{section['pool_speedup_vs_single']:.2f}x a single process on a "
            f"{cores}-core machine (expected >= {MIN_POOL_SPEEDUP}x)"
        )
    return section


def main(argv: list[str] | None = None) -> int:
    """Benchmark entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--queries",
        type=int,
        default=10_000,
        metavar="N",
        help="batch size (default: 10000)",
    )
    parser.add_argument(
        "--http-requests",
        type=int,
        default=200,
        metavar="N",
        help="requests per worker-count in the HTTP section "
        "(0 disables it; default: 200)",
    )
    parser.add_argument(
        "--http-batch",
        type=int,
        default=25,
        metavar="N",
        help="queries per HTTP request (default: 25)",
    )
    parser.add_argument(
        "--http-concurrency",
        type=int,
        default=8,
        metavar="N",
        help="load-generator threads (default: 8)",
    )
    parser.add_argument(
        "--http-workers",
        type=int,
        default=0,
        metavar="N",
        help="pool size for the HTTP section "
        "(default: 0 = min(4, cpu count), at least 2)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_serve.json",
        help="output JSON path (default: BENCH_serve.json)",
    )
    args = parser.parse_args(argv)

    queries = make_queries(args.queries)

    scalar_s, oracle = best_of(lambda: run_scalar(queries))

    # The engine alone, caching off: no keys are built at all.
    batch_s, entries = best_of(lambda: evaluate_batch(queries, cache=None))

    max_abs = max(
        abs(entry.speedup - expected)
        for entry, expected in zip(entries, oracle)
    )
    if max_abs > 1e-9:
        raise AssertionError(
            f"batched results diverge from the scalar model: {max_abs} > 1e-9"
        )
    batched_speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
    if batched_speedup < MIN_BATCHED_SPEEDUP:
        raise AssertionError(
            f"batched path is {batched_speedup:.2f}x the scalar model "
            f"(expected >= {MIN_BATCHED_SPEEDUP}x) — the keying/coalescing "
            "hot path has regressed"
        )

    # Cold: keying + coalesced evaluation + cache fill, timed once
    # (repeating it would measure the warm path).
    cache = EvaluationCache(max_entries=4 * args.queries)
    started = perf_counter()
    cold_entries = evaluate_batch(queries, cache=cache)
    cold_s = perf_counter() - started
    cold_abs = max(
        abs(entry.speedup - expected)
        for entry, expected in zip(cold_entries, oracle)
    )
    if cold_abs > 1e-9:
        raise AssertionError(
            f"cache-fill results diverge from the scalar model: {cold_abs}"
        )

    cached_s, cached_entries = best_of(
        lambda: evaluate_batch(queries, cache=cache)
    )
    if not all(entry.cached for entry in cached_entries):
        raise AssertionError("cached rerun missed the cache")
    cached_speedup = cold_s / cached_s if cached_s > 0 else float("inf")
    if cached_speedup < MIN_CACHED_SPEEDUP_VS_COLD:
        raise AssertionError(
            f"cached rerun only {cached_speedup:.2f}x faster than the cold "
            f"fill (expected >= {MIN_CACHED_SPEEDUP_VS_COLD}x)"
        )

    def entry(seconds: float, **extra) -> dict:
        return {
            "seconds": seconds,
            "queries_per_sec": (
                len(queries) / seconds if seconds > 0 else float("inf")
            ),
            "speedup_vs_scalar": (
                scalar_s / seconds if seconds > 0 else float("inf")
            ),
            **extra,
        }

    payload = {
        "bench": "serve",
        "queries": len(queries),
        "repeats": REPEATS,
        "max_abs_diff_vs_scalar": max_abs,
        "scalar": entry(scalar_s),
        "batched": entry(batch_s),
        "cold_cache_fill": entry(cold_s),
        "cached": entry(cached_s, speedup_vs_cold_fill=cached_speedup),
        "telemetry": bench_telemetry(queries),
        "cache": cache.stats(),
        "provenance": bench_provenance(),
    }

    if args.http_requests > 0:
        cores = os.cpu_count() or 1
        pool_workers = args.http_workers or max(2, min(4, cores))
        payload["http"] = bench_http(
            args.http_requests,
            args.http_batch,
            args.http_concurrency,
            pool_workers,
        )

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    print(
        f"serve bench ({len(queries)} heterogeneous queries, "
        f"best of {REPEATS}):"
    )
    for label in ("scalar", "batched", "cold_cache_fill", "cached"):
        row = payload[label]
        print(
            f"  {label:<16} {row['seconds']:>9.4f}s  "
            f"{row['queries_per_sec']:>12.0f} queries/s  "
            f"{row['speedup_vs_scalar']:>7.1f}x vs scalar"
        )
    print(f"  cached vs cold fill: {cached_speedup:.1f}x")
    print(f"  max abs diff vs scalar: {max_abs:.2e}")
    telemetry = payload["telemetry"]
    print(
        f"  telemetry on/off: "
        f"{telemetry['telemetry_on']['queries_per_sec']:.0f} vs "
        f"{telemetry['telemetry_off']['queries_per_sec']:.0f} queries/s "
        f"({telemetry['overhead_pct']:+.1f}% overhead)"
    )
    if "http" in payload:
        http = payload["http"]
        print(
            f"  http ({http['requests']} requests x "
            f"{http['queries_per_request']} queries, "
            f"{http['concurrency']} client threads):"
        )
        for label in ("single", "pool"):
            row = http[label]
            print(
                f"    {label:<8} workers={row['workers']}  "
                f"{row['seconds']:>8.3f}s  "
                f"{row['queries_per_sec']:>10.0f} queries/s"
            )
        gate = "asserted" if http["scaling_asserted"] else "recorded only"
        print(
            f"    pool vs single: {http['pool_speedup_vs_single']:.2f}x "
            f"({gate}; results byte-identical)"
        )
    print(f"[written {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
