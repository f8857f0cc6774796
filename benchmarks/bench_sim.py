"""Micro-benchmark: the compile-once simulator pipeline, cold and warm.

Times characteristic simulator workloads four ways and writes the
throughputs to ``BENCH_sim.json``:

- **cold** — the compiled pipeline paying its one-pass trace analysis
  inside the timed region (``compile_trace`` + ``CoreSim.run``), i.e.
  the first-ever simulation of a trace;
- **precompiled** — ``CoreSim.run`` against a reused
  :class:`~repro.sim.compile.CompiledTrace` (mode comparisons, sweeps,
  and the serving LRU all hit this path);
- **native** — the same reused compiled trace driven through the
  :mod:`repro.sim.backend` C kernel, i.e. what ``CoreSim.run``
  actually does by default on hosts with a C compiler.  The section
  records which backend ran; it is omitted when only the pure-Python
  engine is available;
- **native_cold** — the first-ever simulation of a trace on that
  kernel: a fresh trace's compile, packing and the kernel run all
  inside the timed region (what a new program costs by default).  The
  entry also records the best time of each layer — building the trace
  with its generator, compiling, packing and the kernel run
  (``build_ms``, ``compile_ms``, ``pack_ms``, ``kernel_ms``) — and
  ``kernel_bytes_per_inst``, the packed trace columns' bytes over the
  instruction count.

The cold/precompiled sections are pinned to the pure-Python hot loop
(``use_backend("python")``) so their meaning is stable across hosts;
only the ``native`` sections exercise the compiled kernel.

Run it directly (defaults to the full-scale workloads)::

    PYTHONPATH=src python benchmarks/bench_sim.py
    PYTHONPATH=src python benchmarks/bench_sim.py --scale smoke

Every other timed run is cross-checked byte-identical
(``SimStats.to_dict()``) against the pure-Python cold run, so the
speedups can't silently come from simulating something different; the
tests hold that engine to the cycle-stepped seed engine.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter
from typing import Callable

from repro.core.modes import TCAMode
from repro.isa.trace import Trace, TraceBuilder
from repro.obs.manifest import bench_provenance
from repro.sim import backend as sim_backend
from repro.sim.config import ARM_A72_SIM, HIGH_PERF_SIM
from repro.sim.compile import compile_trace
from repro.sim.core import CoreSim
from repro.sim.sample import SamplingConfig, simulate_sampled
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program

#: Best-of-N timing repetitions per approach.
REPEATS = 3

#: Workload sizing knobs per scale.  ``sampled_repeats`` sizes the
#: long-trace sampling case: the heap unit trace repeated that many
#: times, always at least 100x one per-request trace.
_SCALES = {
    "smoke": {
        "alu": 4_000,
        "heap_slots": 80,
        "sampled_repeats": 110,
    },
    "full": {
        "alu": 30_000,
        "heap_slots": 400,
        "sampled_repeats": 110,
    },
}


def _workloads(scale: str) -> list[tuple[str, Callable[[], Trace], object, list | None]]:
    """(label, build, config, warm_ranges) single-run measurement cases;
    ``build()`` makes a fresh trace each call."""
    knobs = _SCALES[scale]

    def alu() -> Trace:
        builder = TraceBuilder("alu-heavy")
        builder.independent_block(knobs["alu"], list(range(8)))
        return builder.build()

    spec = HeapWorkloadSpec(slots=knobs["heap_slots"], call_probability=0.3)

    def heap() -> Trace:
        return generate_heap_program(spec).accelerated()

    heap_warm = heap().metadata["warm_ranges"]
    return [
        ("alu", alu, HIGH_PERF_SIM, None),
        ("heap-tca", heap, HIGH_PERF_SIM.with_mode(TCAMode.NL_NT), heap_warm),
    ]


def _fresh(trace: Trace) -> Trace:
    """A new Trace over the same instructions (empty derived-data caches)."""
    return Trace(trace.instructions, name=trace.name, metadata=trace.metadata)


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = perf_counter()
        result = fn()
        best = min(best, perf_counter() - started)
    return best, result


def _bench_single(build, config, warm) -> dict:
    trace = build()
    compiled = compile_trace(trace, cache=False)
    with sim_backend.use_backend("python"):
        cold_s, cold_stats = _best_of(
            lambda: CoreSim(
                config, compile_trace(_fresh(trace), cache=False), warm_ranges=warm
            ).run()
        )
        pre_s, pre_stats = _best_of(
            lambda: CoreSim(config, compiled, warm_ranges=warm).run()
        )
    expected = json.dumps(cold_stats.to_dict())
    if json.dumps(pre_stats.to_dict()) != expected:
        raise AssertionError("precompiled: stats diverge from the cold run")
    instructions = cold_stats.instructions

    def entry(seconds: float) -> dict:
        return {
            "seconds": seconds,
            "instructions_per_sec": (
                instructions / seconds if seconds > 0 else float("inf")
            ),
        }

    row = {
        "instructions": instructions,
        "cycles": cold_stats.cycles,
        "cold": entry(cold_s),
        "precompiled": entry(pre_s),
    }

    backend_name = sim_backend.effective_backend()
    if backend_name != "python":
        # Every timed native run is cross-checked in the loop, not just
        # the last one: the speedup claim is only as good as per-run
        # byte-identical stats.
        def native_run():
            stats = CoreSim(config, compiled, warm_ranges=warm).run()
            if json.dumps(stats.to_dict()) != expected:
                raise AssertionError(
                    f"native ({backend_name}): stats diverge from the cold run"
                )
            return stats

        def native_cold_run() -> tuple[float, ...]:
            """Build, compile, pack and run a fresh trace; seconds per layer."""
            started = perf_counter()
            fresh_trace = build()
            built_at = perf_counter()
            fresh = compile_trace(fresh_trace, cache=False)
            compiled_at = perf_counter()
            sim_backend.get_packed(fresh)
            packed_at = perf_counter()
            stats = CoreSim(config, fresh, warm_ranges=warm).run()
            ran_at = perf_counter()
            if json.dumps(stats.to_dict()) != expected:
                raise AssertionError(
                    f"native_cold ({backend_name}): stats diverge from the cold run"
                )
            return (
                built_at - started,
                compiled_at - built_at,
                packed_at - compiled_at,
                ran_at - packed_at,
            )

        native_s, _ = _best_of(native_run)
        splits = [native_cold_run() for _ in range(REPEATS)]
        native_cold_s = min(sum(split[1:]) for split in splits)
        layers = [min(times) for times in zip(*splits)]  # best of each layer
        packed = sim_backend.get_packed(compiled)
        columns_bytes = sum(column.nbytes for column in packed.columns)
        row["native"] = dict(
            entry(native_s),
            backend=backend_name,
            speedup_vs_precompiled=(
                pre_s / native_s if native_s > 0 else float("inf")
            ),
        )
        row["native_cold"] = dict(
            entry(native_cold_s),
            backend=backend_name,
            speedup_vs_cold=cold_s / native_cold_s if native_cold_s > 0 else float("inf"),
            **{
                f"{layer}_ms": 1e3 * seconds
                for layer, seconds in zip(("build", "compile", "pack", "kernel"), layers)
            },
            kernel_bytes_per_inst=columns_bytes / instructions,
        )
    return row


def _bench_sampled(scale: str) -> dict:
    """Sampled vs exact on a trace ~two orders past per-request length.

    The heap unit trace repeated ``sampled_repeats`` times is the
    long-trace shape the sampling layer exists for: the exact engine
    runs it once as the oracle, then :func:`simulate_sampled` estimates
    it from windows (exact ``head`` prefix sized to one unit, so the
    cold-start transient is measured, never extrapolated).  Records the
    wall-clock speedup, the coverage, and the relative error of the
    cycles and IPC estimates — the numbers the issue's <2%-mean-error
    acceptance bar reads.
    """
    knobs = _SCALES[scale]
    unit = generate_heap_program(
        HeapWorkloadSpec(slots=knobs["heap_slots"], call_probability=0.3)
    ).baseline
    repeats = knobs["sampled_repeats"]
    trace = Trace(unit.instructions * repeats, name=f"heap-x{repeats}")
    config = ARM_A72_SIM
    sampling = SamplingConfig(
        interval=1_000, period=100, warmup=500, head=len(unit)
    )

    compiled = compile_trace(trace, cache=False)
    with sim_backend.use_backend("python"):
        exact_s, exact_stats = _best_of(lambda: CoreSim(config, compiled).run())
        sampled_s, (sampled_stats, report) = _best_of(
            lambda: simulate_sampled(compiled, config, sampling)
        )
    if report["mode"] != "sampled":
        raise AssertionError(f"sampling fell back to exact: {report}")
    if sampled_stats.instructions != exact_stats.instructions:
        raise AssertionError("sampled count stats diverge from the oracle")

    exact_ipc = exact_stats.instructions / exact_stats.cycles
    sampled_ipc = sampled_stats.instructions / sampled_stats.cycles
    cycles_err = abs(sampled_stats.cycles - exact_stats.cycles) / exact_stats.cycles
    ipc_err = abs(sampled_ipc - exact_ipc) / exact_ipc

    def entry(seconds: float, cycles: int) -> dict:
        return {
            "seconds": seconds,
            "cycles": cycles,
            "instructions_per_sec": (
                len(trace) / seconds if seconds > 0 else float("inf")
            ),
        }

    return {
        "workload": trace.name,
        "unit_instructions": len(unit),
        "trace_instructions": len(trace),
        "length_ratio": len(trace) / len(unit),
        "config": sampling.to_canonical_dict(),
        "windows": report["windows"],
        "coverage": report["coverage"],
        "detailed_instructions": report["detailed_instructions"],
        "exact": entry(exact_s, exact_stats.cycles),
        "sampled": dict(
            entry(sampled_s, sampled_stats.cycles),
            wall_speedup_vs_exact=exact_s / sampled_s if sampled_s > 0 else 0.0,
        ),
        "errors": {
            "cycles_rel": cycles_err,
            "ipc_rel": ipc_err,
            "mean_rel": (cycles_err + ipc_err) / 2.0,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=tuple(_SCALES),
        default="full",
        help="workload size (default: full)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_sim.json",
        help="output JSON path (default: BENCH_sim.json)",
    )
    args = parser.parse_args(argv)

    workloads = {}
    for label, build, config, warm in _workloads(args.scale):
        workloads[label] = _bench_single(build, config, warm)
    sampled = _bench_sampled(args.scale)

    payload = {
        "bench": "sim",
        "scale": args.scale,
        "repeats": REPEATS,
        "identical_stats": True,  # _bench_* raise on any divergence
        "native_backend": sim_backend.effective_backend(),
        "workloads": workloads,
        "sampled": sampled,
        "provenance": bench_provenance(),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    print(
        f"sim bench (scale={args.scale}, best of {REPEATS}, "
        f"native backend: {payload['native_backend']}):"
    )
    for label, row in workloads.items():
        print(f"  {label} ({row['instructions']} instructions):")
        for approach in ("cold", "precompiled", "native", "native_cold"):
            entry = row.get(approach)
            if entry is None:
                continue
            suffix = ""
            if approach == "native":
                suffix = (
                    f"  [{entry['backend']}, "
                    f"{entry['speedup_vs_precompiled']:.2f}x vs precompiled]"
                )
            elif approach == "native_cold":
                suffix = (
                    f"  [{entry['backend']}, {entry['speedup_vs_cold']:.2f}x vs cold; "
                    f"build {entry['build_ms']:.2f} compile {entry['compile_ms']:.2f} "
                    f"pack {entry['pack_ms']:.2f} kernel {entry['kernel_ms']:.2f} ms; "
                    f"{entry['kernel_bytes_per_inst']:.1f} B/inst]"
                )
            print(
                f"    {approach:<12} {entry['seconds']:>9.4f}s  "
                f"{entry['instructions_per_sec']:>12.0f} inst/s{suffix}"
            )
    print(
        f"  sampled {sampled['workload']} "
        f"({sampled['trace_instructions']} instructions, "
        f"{sampled['length_ratio']:.0f}x unit):"
    )
    print(
        f"    exact           {sampled['exact']['seconds']:>9.4f}s  "
        f"{sampled['exact']['instructions_per_sec']:>12.0f} inst/s"
    )
    print(
        f"    sampled         {sampled['sampled']['seconds']:>9.4f}s  "
        f"{sampled['sampled']['instructions_per_sec']:>12.0f} inst/s  "
        f"{sampled['sampled']['wall_speedup_vs_exact']:>6.2f}x vs exact  "
        f"{sampled['errors']['mean_rel']:.4%} mean err"
    )
    print(f"[written {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
