"""Interval-sampled simulation and resumable mid-trace checkpoints.

The cycle-level engine executes every dynamic instruction, which caps
practical trace length at a few tens of thousands of instructions per
request.  This module adds the two standard escape hatches from precise
simulation cost, both layered on :class:`~repro.sim.compile.CompiledTrace`
segment runs (``CoreSim(start=, stop=, cache_state=)``) and both leaving
the exact engine untouched as the correctness oracle:

**Interval sampling** (:func:`simulate_sampled`) executes only systematic
windows of the trace — every ``period``-th interval of ``interval``
instructions, each preceded by a ``warmup`` detailed-warmup prefix — and
extrapolates full-trace :class:`~repro.sim.stats.SimStats`.  Each window
is measured with a *subtraction estimator*: the window's contribution is
``stats([s - w, e)) - stats([s - w, s))``, so the pipeline-fill ramp and
the in-flight drain tail that bracket every segment run appear in both
terms and cancel to first order.  Count statistics (instructions, loads,
stores, branches, mispredicts, TCA requests) are not extrapolated at all:
they are trace-static, so they are computed exactly from the compiled
tables (:func:`static_counts`) and the sampled result carries zero error
on them.  Only timing statistics (cycles, stall breakdown, TCA wait/exec
cycles, ROB occupancy) are extrapolated, each with a 95% confidence
interval from the between-window variance of per-instruction rates.

**Checkpoints** (:class:`SimCheckpoint`, :func:`begin_checkpoint`,
:func:`advance_checkpoint`) make one long exact simulation resumable:
a checkpoint carries the committed position, the merged-so-far stats,
and a JSON-safe snapshot of cache residency
(:meth:`~repro.sim.cache.CacheHierarchy.export_state`), so simulation can
stop after any segment and continue later — in another process if the
checkpoint is serialized.  :func:`simulate_sharded` builds on the same
snapshot format to fan one trace out across
:func:`~repro.core.parallel.parallel_map` workers: a cheap sequential
functional-warming pass replays the memory-line footprint to capture the
cache state at each shard boundary, then every shard simulates its slice
in parallel and :func:`merge_stats` combines the results.  Counts merge
exactly (every instruction is simulated exactly once); timing is subject
only to pipeline-boundary effects at shard seams.

Exact mode is forced (and reported) whenever sampling cannot help:
``mode="exact"`` requested, trace shorter than ``min_instructions``, or
fewer than ``min_windows`` windows would be measured.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.core.parallel import parallel_map
from repro.isa.trace import Trace
from repro.obs.metrics import get_registry
from repro.sim import backend
from repro.sim.compile import (
    K_BRANCH,
    K_LOAD,
    K_OTHER,
    K_STORE,
    K_TCA,
    CompiledTrace,
    compile_trace,
)
from repro.sim.config import SimConfig
from repro.sim.core import CoreSim
from repro.sim.stats import SimStats, StallReason

#: Two-sided 95% normal quantile used for window-variance intervals.
_Z95 = 1.96

#: Timing fields extrapolated from window rates (everything else in
#: SimStats is trace-static and computed exactly).
_TIMING_FIELDS = (
    "cycles",
    "tca_wait_drain_cycles",
    "tca_exec_cycles",
    "rob_occupancy_sum",
)


@dataclass(frozen=True)
class SamplingConfig:
    """How to sample a trace (or that it must not be sampled).

    Attributes:
        mode: ``"sampled"`` enables interval sampling; ``"exact"``
            requests the full detailed run (useful to force the oracle
            through an API whose ambient default samples).
        interval: detailed-measurement window length in instructions.
        period: measure every ``period``-th interval — the sampling rate
            is ``1/period``, the cost reduction roughly ``period``.
        warmup: detailed-warmup instructions simulated (and subtracted)
            before each window to establish cache/pipeline state.
        head: exactly-simulated cold-start prefix.  The first ``head``
            instructions run as one detailed segment and contribute
            their timing directly: the cold-start transient (cache fill,
            first-touch misses) is unique to the start of a run, so
            folding it into a window would over-weight it by the
            sampling period.  Windows sample only the steady tail.
        min_instructions: traces shorter than this run exact — sampling
            a trace the engine handles directly only adds error.
        min_windows: minimum measured windows for the variance estimate
            to mean anything; fewer forces exact mode.
    """

    mode: str = "sampled"
    interval: int = 1000
    period: int = 10
    warmup: int = 200
    head: int = 2000
    min_instructions: int = 10_000
    min_windows: int = 2

    def __post_init__(self) -> None:
        if self.mode not in ("sampled", "exact"):
            raise ValueError(f"sampling mode must be 'sampled' or 'exact', got {self.mode!r}")
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.head < 0:
            raise ValueError(f"head must be >= 0, got {self.head}")
        if self.min_instructions < 0:
            raise ValueError(
                f"min_instructions must be >= 0, got {self.min_instructions}"
            )
        if self.min_windows < 1:
            raise ValueError(f"min_windows must be >= 1, got {self.min_windows}")

    def to_canonical_dict(self) -> dict[str, Any]:
        """Stable JSON-safe form (cache keys, manifests, responses)."""
        return {
            "head": self.head,
            "interval": self.interval,
            "min_instructions": self.min_instructions,
            "min_windows": self.min_windows,
            "mode": self.mode,
            "period": self.period,
            "warmup": self.warmup,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SamplingConfig":
        """Build from a mapping; unknown keys are an error."""
        known = {
            "mode",
            "interval",
            "period",
            "warmup",
            "head",
            "min_instructions",
            "min_windows",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown sampling keys: {', '.join(sorted(unknown))}"
            )
        kwargs: dict[str, Any] = {}
        for key in known:
            if key in payload:
                value = payload[key]
                kwargs[key] = str(value) if key == "mode" else int(value)
        return cls(**kwargs)


def parse_sampling_spec(text: str) -> SamplingConfig:
    """Parse a CLI-style sampling spec string.

    Accepts the bare modes ``"exact"`` and ``"sampled"`` (defaults), or a
    comma-separated ``key=value`` list over the :class:`SamplingConfig`
    fields, e.g. ``"interval=1000,period=20,warmup=200"``.
    """
    text = text.strip()
    if text in ("exact", "sampled"):
        return SamplingConfig(mode=text)
    payload: dict[str, Any] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(
                f"bad sampling spec element {part!r} (expected key=value)"
            )
        payload[key.strip()] = value.strip()
    if not payload:
        raise ValueError("empty sampling spec")
    return SamplingConfig.from_dict(payload)


def coerce_sampling(
    value: "SamplingConfig | Mapping[str, Any] | str | None",
) -> SamplingConfig | None:
    """Normalize the accepted ``sampling=`` input forms.

    ``None`` stays ``None`` (exact, not even a sampling request);
    strings go through :func:`parse_sampling_spec`; mappings through
    :meth:`SamplingConfig.from_dict`.
    """
    if value is None or isinstance(value, SamplingConfig):
        return value
    if isinstance(value, str):
        return parse_sampling_spec(value)
    if isinstance(value, Mapping):
        return SamplingConfig.from_dict(value)
    raise TypeError(
        f"sampling must be SamplingConfig, mapping, str, or None, "
        f"got {type(value).__name__}"
    )


def canonical_sampling(config: SamplingConfig | None) -> dict[str, Any] | None:
    """Cache-key form: ``None`` for anything that runs the exact engine.

    An explicit ``mode="exact"`` produces byte-identical stats to no
    sampling at all, so both key identically and share cache entries.
    """
    if config is None or config.mode == "exact":
        return None
    return config.to_canonical_dict()


# --------------------------------------------------------------- ambient

_AMBIENT_SAMPLING: ContextVar[SamplingConfig | None] = ContextVar(
    "repro_ambient_sampling", default=None
)


def ambient_sampling() -> SamplingConfig | None:
    """The sampling config installed by the innermost :func:`sampling_scope`."""
    return _AMBIENT_SAMPLING.get()


@contextmanager
def sampling_scope(config: SamplingConfig | None) -> Iterator[SamplingConfig | None]:
    """Install ``config`` as the ambient sampling default for this context.

    :func:`repro.sim.simulator.simulate` (and everything above it) picks
    the ambient config up when no explicit ``sampling=`` is passed — how
    ``repro-experiments --sample-sim`` switches a whole experiment run
    without threading a parameter through every call site.  Context-local
    (a ``contextvars`` variable), so it does **not** propagate into
    ``parallel_map`` worker processes; parallel experiment paths must
    pass the config explicitly.
    """
    token = _AMBIENT_SAMPLING.set(config)
    try:
        yield config
    finally:
        _AMBIENT_SAMPLING.reset(token)


# ------------------------------------------------------------- planning


def plan_windows(length: int, config: SamplingConfig) -> list[tuple[int, int]]:
    """Systematic measurement windows over a ``length``-instruction trace.

    Every ``period``-th interval of ``interval`` instructions, as
    half-open index ranges; the final window is truncated at the trace
    end.  Windows sample only the steady tail after the exact ``head``
    segment: the first starts at ``head + warmup``, so every window has
    a full warmup prefix in front of it — a window without one cannot
    cancel its pipeline-fill and drain transients against the warmup
    run and measures far too high.
    """
    windows: list[tuple[int, int]] = []
    stride = config.interval * config.period
    pos = config.head + config.warmup
    while pos < length:
        windows.append((pos, min(pos + config.interval, length)))
        pos += stride
    return windows


def forced_exact_reason(length: int, config: SamplingConfig) -> str | None:
    """Why sampling falls back to the exact engine (``None`` = it won't).

    Reasons: ``"requested"`` (``mode="exact"``), ``"short_trace"``
    (below ``min_instructions``), ``"too_few_windows"``.
    """
    if config.mode == "exact":
        return "requested"
    if length < config.min_instructions:
        return "short_trace"
    if len(plan_windows(length, config)) < config.min_windows:
        return "too_few_windows"
    return None


# --------------------------------------------------------- exact counts


def static_counts(compiled: CompiledTrace) -> dict[str, int]:
    """Count statistics derived from the compiled tables, no simulation.

    These match the exact engine's counters identically: every counter
    here is a pure function of the instruction stream (commit order is
    program order and every instruction commits exactly once).
    """
    kind = compiled.kind
    per_kind = np.bincount(kind, minlength=K_OTHER + 1).tolist()
    branches = kind == K_BRANCH
    return {
        "instructions": compiled.length,
        "dispatched": compiled.length,
        "loads": per_kind[K_LOAD],
        "stores": per_kind[K_STORE],
        "branches": per_kind[K_BRANCH],
        "mispredicts": int(np.count_nonzero(compiled.mispred[branches])),
        "tca_invocations": per_kind[K_TCA],
        "tca_read_requests": int(compiled.tca_read_count.sum()),
        "tca_write_requests": int(compiled.tca_write_count.sum()),
    }


# ------------------------------------------------------------- sampling


def _segment_stats(
    config: SimConfig,
    compiled: CompiledTrace,
    start: int,
    stop: int,
    warm_ranges: list[tuple[int, int]] | None = None,
    cache_state: dict[str, Any] | None = None,
) -> SimStats:
    sim = CoreSim(
        config,
        compiled,
        warm_ranges=warm_ranges,
        start=start,
        stop=stop,
        cache_state=cache_state,
    )
    return sim.run()


def _timing_values(stats: SimStats) -> dict[str, int]:
    values = {name: getattr(stats, name) for name in _TIMING_FIELDS}
    for reason, count in stats.stall_cycles.items():
        values[f"stall:{reason.value}"] = count
    return values


def simulate_sampled(
    trace: "Trace | CompiledTrace",
    config: SimConfig,
    sampling: SamplingConfig,
    warm_ranges: list[tuple[int, int]] | None = None,
) -> tuple[SimStats, dict[str, Any]]:
    """Estimate full-trace :class:`SimStats` from sampled windows.

    Returns ``(stats, report)``.  ``stats`` carries exact count fields
    (see :func:`static_counts`) and extrapolated timing fields;
    ``report`` describes what ran — either::

        {"mode": "sampled", "interval": ..., "period": ..., "warmup": ...,
         "windows": k, "total_instructions": N,
         "sampled_instructions": ..., "detailed_instructions": ...,
         "coverage": ..., "speedup_estimate": ...,
         "confidence": {"cycles": {"estimate", "ci95", "relative"}, ...}}

    or, when :func:`forced_exact_reason` fires, the exact engine runs and
    the report is ``{"mode": "exact", "forced_exact": reason,
    "requested": {...}}`` with byte-identical-to-oracle stats.

    The estimate is a hybrid: the first ``head`` instructions run as one
    exact detailed segment (cold-start behaviour is unique to the start
    of a run, so it must be measured once and weighted once, never
    extrapolated), then per window ``[s, e)`` with warmup ``w`` the
    engine runs segments ``[s-w, e)`` and ``[s-w, s)`` from a
    functionally-warmed cache snapshot and takes the difference of their
    timing stats (clamped at zero): the fill ramp and the drain tail
    appear in both runs and cancel.  Tail timing extrapolates the window
    rates over the post-head instructions and adds the head's measured
    timing.  The detailed-instruction cost is ``head`` plus
    ``2w + (e - s)`` per window; ``period`` scales the reduction
    linearly.
    """
    compiled = compile_trace(trace)
    length = compiled.length
    reason = forced_exact_reason(length, sampling)
    if reason is not None:
        stats = _segment_stats(config, compiled, 0, length, warm_ranges)
        report = {
            "mode": "exact",
            "forced_exact": reason,
            "requested": sampling.to_canonical_dict(),
        }
        return stats, report

    head = min(sampling.head, length)
    head_stats = SimStats()
    if head:
        head_stats = _segment_stats(config, compiled, 0, head, warm_ranges)
    head_values = _timing_values(head_stats)

    windows = plan_windows(length, sampling)
    # Functional cache warming (the SMARTS ingredient that makes short
    # windows representative): one cheap sequential pass replays the
    # whole trace's memory-line footprint, snapshotting cache residency
    # where each window's warmup prefix begins.  Without it every window
    # would start cold and measure miss latency the full run never pays.
    prefix_starts = [max(0, s - min(sampling.warmup, s)) for s, _ in windows]
    snapshots = _boundary_cache_states(
        compiled, config, prefix_starts, warm_ranges
    )
    # Per-window per-instruction rates for every timing field seen.
    rates: dict[str, list[float]] = {}
    totals: dict[str, int] = {}
    sampled_instructions = 0
    detailed_instructions = head
    max_rob = head_stats.max_rob_occupancy
    for (s, e), cache_state in zip(windows, snapshots):
        w = min(sampling.warmup, s)
        window_stats = _segment_stats(
            config, compiled, s - w, e, cache_state=cache_state
        )
        warm_values: dict[str, int] = {}
        if w:
            warm_stats = _segment_stats(
                config, compiled, s - w, s, cache_state=cache_state
            )
            warm_values = _timing_values(warm_stats)
        window_values = _timing_values(window_stats)
        n = e - s
        sampled_instructions += n
        detailed_instructions += n + 2 * w
        if window_stats.max_rob_occupancy > max_rob:
            max_rob = window_stats.max_rob_occupancy
        for name in set(window_values) | set(warm_values):
            delta = window_values.get(name, 0) - warm_values.get(name, 0)
            if delta < 0:
                delta = 0
            rates.setdefault(name, []).append(delta / n)
            totals[name] = totals.get(name, 0) + delta

    k = len(windows)
    tail = length - head
    estimates: dict[str, int] = {}
    confidence: dict[str, dict[str, float]] = {}
    # Sorted, so the report's key order does not follow the hash seed.
    for name in sorted(set(rates) | set(head_values)):
        rate_list = rates.get(name, [])
        # Backfill zero rates for windows where the field never appeared
        # (e.g. a stall reason observed in only some windows) so the
        # variance reflects all k windows.
        while len(rate_list) < k:
            rate_list.append(0.0)
        estimate = head_values.get(name, 0) + int(
            round(totals.get(name, 0) / sampled_instructions * tail)
        )
        estimates[name] = estimate
        mean = sum(rate_list) / k
        var = sum((r - mean) ** 2 for r in rate_list) / (k - 1) if k > 1 else 0.0
        half = _Z95 * (var**0.5) / (k**0.5) * tail
        confidence[name] = {
            "estimate": float(estimate),
            "ci95": half,
            "relative": half / estimate if estimate else 0.0,
        }

    stats = SimStats()
    for name, value in static_counts(compiled).items():
        setattr(stats, name, value)
    for name in _TIMING_FIELDS:
        setattr(stats, name, estimates.get(name, 0))
    # Invariant of the engine's main loop: every simulated cycle samples
    # ROB occupancy exactly once.
    stats.rob_samples = stats.cycles
    stats.max_rob_occupancy = max_rob
    for reason_enum in StallReason:
        est = estimates.get(f"stall:{reason_enum.value}", 0)
        if est:
            stats.stall_cycles[reason_enum] = est

    est_cycles = stats.cycles
    if est_cycles:
        cyc = confidence.get("cycles", {"ci95": 0.0})
        rel = cyc["ci95"] / est_cycles if est_cycles else 0.0
        confidence["ipc"] = {
            "estimate": stats.ipc,
            "ci95": stats.ipc * rel,
            "relative": rel,
        }

    registry = get_registry()
    registry.counter("sim.sampled_runs").inc()
    registry.counter("sim.sampled_windows").inc(k)

    report = {
        "mode": "sampled",
        "interval": sampling.interval,
        "period": sampling.period,
        "warmup": sampling.warmup,
        "head": head,
        "windows": k,
        "total_instructions": length,
        "sampled_instructions": sampled_instructions,
        "detailed_instructions": detailed_instructions,
        "coverage": sampled_instructions / length,
        "speedup_estimate": (
            length / detailed_instructions if detailed_instructions else 0.0
        ),
        "confidence": confidence,
    }
    return stats, report


# ------------------------------------------------------------ merging


def merge_stats(parts: Iterable[SimStats]) -> SimStats:
    """Combine stats of consecutive segments into one run's stats.

    Every counter is additive across a partition of the trace —
    including ``cycles`` and ``rob_samples``, since each segment's clock
    starts at zero — except ``max_rob_occupancy``, which takes the max.
    """
    merged = SimStats()
    for part in parts:
        merged.cycles += part.cycles
        merged.instructions += part.instructions
        merged.dispatched += part.dispatched
        merged.tca_invocations += part.tca_invocations
        merged.tca_read_requests += part.tca_read_requests
        merged.tca_write_requests += part.tca_write_requests
        merged.tca_wait_drain_cycles += part.tca_wait_drain_cycles
        merged.tca_exec_cycles += part.tca_exec_cycles
        merged.loads += part.loads
        merged.stores += part.stores
        merged.branches += part.branches
        merged.mispredicts += part.mispredicts
        merged.rob_occupancy_sum += part.rob_occupancy_sum
        merged.rob_samples += part.rob_samples
        if part.max_rob_occupancy > merged.max_rob_occupancy:
            merged.max_rob_occupancy = part.max_rob_occupancy
        for reason, count in part.stall_cycles.items():
            merged.stall_cycles[reason] = (
                merged.stall_cycles.get(reason, 0) + count
            )
    merged.stall_cycles = {
        reason: merged.stall_cycles[reason]
        for reason in StallReason
        if reason in merged.stall_cycles
    }
    return merged


# --------------------------------------------------------- checkpoints


def _config_key(config: SimConfig) -> str:
    """Short stable fingerprint of a core config (checkpoint guard)."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


@dataclass
class SimCheckpoint:
    """Resumable position inside one long exact simulation.

    Attributes:
        trace_fingerprint: :meth:`Trace.fingerprint` of the full trace —
            resuming against a different trace is an error, not silence.
        config_key: fingerprint of the :class:`SimConfig` in effect.
        position: instructions committed so far (next segment's start).
        length: full trace length (``position == length`` means done).
        stats: merged stats of every segment executed so far.
        cache_state: cache residency left by the last segment
            (:meth:`CacheHierarchy.export_state` snapshot).
    """

    trace_fingerprint: str
    config_key: str
    position: int
    length: int
    stats: SimStats
    cache_state: dict[str, Any]

    @property
    def done(self) -> bool:
        """Whether the whole trace has been simulated."""
        return self.position >= self.length

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form; round-trips through :meth:`from_dict`."""
        return {
            "trace_fingerprint": self.trace_fingerprint,
            "config_key": self.config_key,
            "position": self.position,
            "length": self.length,
            "stats": self.stats.to_dict(),
            "cache_state": self.cache_state,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SimCheckpoint":
        """Rebuild from :meth:`to_dict` output (including after JSON,
        whose object keys stringify the cache-set indices —
        :meth:`CacheHierarchy.load_state` accepts both forms)."""
        return cls(
            trace_fingerprint=str(payload["trace_fingerprint"]),
            config_key=str(payload["config_key"]),
            position=int(payload["position"]),
            length=int(payload["length"]),
            stats=SimStats.from_dict(payload["stats"]),
            cache_state=dict(payload["cache_state"]),
        )


def begin_checkpoint(
    config: SimConfig,
    trace: "Trace | CompiledTrace",
    warm_ranges: list[tuple[int, int]] | None = None,
) -> SimCheckpoint:
    """A fresh checkpoint at position 0 (warm ranges applied, nothing run)."""
    compiled = compile_trace(trace)
    sim = CoreSim(config, compiled, warm_ranges=warm_ranges, stop=0)
    return SimCheckpoint(
        trace_fingerprint=compiled.fingerprint(),
        config_key=_config_key(config),
        position=0,
        length=compiled.length,
        stats=SimStats(),
        cache_state=sim.cache.export_state(),
    )


def advance_checkpoint(
    checkpoint: SimCheckpoint,
    config: SimConfig,
    trace: "Trace | CompiledTrace",
    count: int,
) -> SimCheckpoint:
    """Simulate the next ``count`` instructions and return the successor.

    The input checkpoint is not mutated.  Advancing to the end in any
    number of steps yields exactly the same count statistics as one
    uninterrupted run (each instruction is simulated once); cycle counts
    differ only by the per-segment pipeline fill/drain at the seams.
    """
    compiled = compile_trace(trace)
    if compiled.fingerprint() != checkpoint.trace_fingerprint:
        raise ValueError("checkpoint does not belong to this trace")
    if _config_key(config) != checkpoint.config_key:
        raise ValueError("checkpoint does not belong to this config")
    if checkpoint.done:
        raise ValueError("checkpoint already at end of trace")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    start = checkpoint.position
    stop = min(start + count, compiled.length)
    sim = CoreSim(
        config,
        compiled,
        start=start,
        stop=stop,
        cache_state=checkpoint.cache_state,
    )
    segment = sim.run()
    return SimCheckpoint(
        trace_fingerprint=checkpoint.trace_fingerprint,
        config_key=checkpoint.config_key,
        position=stop,
        length=checkpoint.length,
        stats=merge_stats([checkpoint.stats, segment]),
        cache_state=sim.cache.export_state(),
    )


# ------------------------------------------------------------ sharding


def _program_order_lines(compiled: CompiledTrace) -> tuple[np.ndarray, np.ndarray]:
    """Every line the trace touches, in program order, with per-instruction starts.

    Instruction ``i`` contributes its load lines, then its TCA read lines
    (request by request), then its commit-write lines (store or TCA
    writes): ``lines[starts[i]:starts[i + 1]]``.  Built from the compiled
    CSR columns by scattering each column into its slots.
    """
    ct = compiled
    reads = ct.trl_start[ct.tr_start]  # per-instruction TCA read-line span
    columns = (
        (ct.ml_lines, ct.ml_start),
        (ct.trl_lines, reads),
        (ct.cw_lines, ct.cw_start),
    )
    counts = [np.diff(start) for _, start in columns]
    starts = np.zeros(ct.length + 1, dtype=np.int64)
    np.cumsum(counts[0] + counts[1] + counts[2], out=starts[1:])
    lines = np.empty(int(starts[-1]), dtype=np.int64)
    before = starts[:-1]
    for (values, start), count in zip(columns, counts):
        shift = np.repeat(before - start[:-1], count)
        lines[np.arange(start[0], start[-1]) + shift] = values[start[0] : start[-1]]
        before = before + count
    return lines, starts


def _boundary_cache_states(
    compiled: CompiledTrace,
    config: SimConfig,
    starts: list[int],
    warm_ranges: list[tuple[int, int]] | None,
) -> list[dict[str, Any]]:
    """Cache snapshots at each shard start via functional warming.

    One sequential pass replays the program-order memory-line footprint
    (load lines, TCA read lines, store/TCA commit-write lines) into a
    hierarchy built from ``config``, snapshotting residency as each
    (ascending) boundary is crossed.  Each slice between two boundaries
    is one warm call, in the kernel when it builds — no pipeline
    modelling, so it stays negligible next to the detailed shard runs it
    enables.  Residency approximates the detailed engine's (which touches
    lines in issue/commit order, with prefetch), affecting shard timing
    only, never counts.
    """
    sim = CoreSim(config, compiled, warm_ranges=warm_ranges, stop=0)
    cache = sim.cache
    lines, line_starts = _program_order_lines(compiled)
    snapshots: list[dict[str, Any]] = []
    done = 0
    for boundary in starts:
        backend.warm(cache, lines[line_starts[done] : line_starts[boundary]])
        snapshots.append(cache.export_state())
        done = max(done, boundary)
    return snapshots


def _shard_worker(
    item: tuple[Trace, SimConfig, dict[str, Any]]
) -> dict[str, Any]:
    """Simulate one shard slice (module-level: pickled into pool workers)."""
    shard_trace, config, cache_state = item
    sim = CoreSim(config, shard_trace, cache_state=cache_state)
    return sim.run().to_dict()


def simulate_sharded(
    trace: "Trace | CompiledTrace",
    config: SimConfig,
    shards: int,
    jobs: int = 1,
    warm_ranges: list[tuple[int, int]] | None = None,
) -> tuple[SimStats, dict[str, Any]]:
    """Split one trace into ``shards`` slices and simulate them in parallel.

    Each worker receives only its slice of the instruction stream (a
    fresh :class:`Trace`, compiled in the worker) plus the boundary cache
    snapshot — never the parent's full ``CompiledTrace``, keeping the
    pickled payload proportional to the slice.  Compiling a slice and
    running it is equivalent to a segment run over the full compiled
    trace: a register producer before the slice is dropped by the slice
    compile and treated as architecturally complete by the segment run,
    and memory disambiguation state is run-local in both.

    Returns ``(stats, report)`` where stats are the :func:`merge_stats`
    of the shard runs (count fields exact) and the report records the
    shard boundaries.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    compiled = compile_trace(trace)
    length = compiled.length
    shards = min(shards, length) if length else 1
    bounds = [length * i // shards for i in range(shards)] + [length]
    starts = bounds[:-1]
    snapshots = _boundary_cache_states(compiled, config, starts, warm_ranges)
    items = []
    for i in range(shards):
        a, b = bounds[i], bounds[i + 1]
        shard_trace = Trace.from_rows(
            compiled.rows.window(a, b), name=f"{compiled.name}[{a}:{b}]"
        )
        items.append((shard_trace, config, snapshots[i]))
    results = parallel_map(_shard_worker, items, jobs=jobs)
    stats = merge_stats(SimStats.from_dict(r) for r in results)
    report = {
        "mode": "sharded",
        "shards": shards,
        "jobs": jobs,
        "boundaries": bounds,
        "total_instructions": length,
    }
    return stats, report
