"""Shared machinery of the benchmark: passes, host-speed normalization,
statistics, layer accounting, servers and output.

Every workload produces :class:`Pass` objects, one per measured loop.
An untraced pass yields the end-to-end metrics.  A traced pass replays
the same inputs and records each operation's span tree, from which
:func:`layer_metrics` derives every layer's self time and share of the
operation latency.
"""

from __future__ import annotations

import bisect
import os
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from http.client import HTTPConnection
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping

from repro.obs.span import RequestTrace, Span, trace_to_chrome_events

ROOT = Path(__file__).resolve().parent.parent
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"

#: Every layer the traced run reports, as ``<layer>_ms`` (mean self time
#: per operation) and ``<layer>_pct`` (share of the traced operation
#: latency).  A layer a workload does not pass through reads 0.
LAYERS = (
    # evaluate-http: the server's ?debug=trace span tree, plus the client
    "serve.dispatch",
    "serve.read_body",
    "serve.params.parse",
    "serve.batch.group",
    "serve.batch.partition",
    "serve.cache.probe",
    "core.model.grid",
    "serve.cache.store",
    "api.assemble",
    "serve.http.outside",
    "serve.json.encode",
    # pareto-stream: a /metrics timer, client timestamps, in-process calls
    "serve.params.parse_pareto",
    "core.pareto.sweep",
    "serve.stream.evaluate",
    "serve.stream.after_first",
    # simulate-cold and validate-warm: spans around the library calls
    "workloads.build",
    "sim.compile",
    "sim.backend.pack",
    "api.simulate",
    "core.validation",
    "sim.simulator.modes",
    "sim.core.init",
    "sim.core.run",
    "core.model.speedup",
    "sim.stats.to_dict",
)

#: Layers that time again a slice another layer already counts (the
#: client's re-encode of a response body, the in-process replay of a
#: sweep), so they stay out of the coverage sum.
SIDE_LAYERS = frozenset({"serve.json.encode", "core.pareto.sweep"})

#: Ratios and rates the traced run reports beside the layer times.
LAYER_EXTRAS = {
    "serve.cache.hit_ratio": "ratio",
    "serve.stream.cache_hit_ratio": "ratio",
    "sim.compile.memo_hit_ratio": "ratio",
    "sim.core.ns_per_inst": "ns",
}

#: Traced operations must attribute at least this share of their latency
#: to named layers.
MIN_COVERAGE_PCT = 95.0


@dataclass
class Op:
    """One timed operation: the index of its inputs, timings, outcome."""

    index: int
    started: float
    latency_s: float
    first_s: float
    work: float = 0.0
    ok: bool = True
    #: Self seconds per layer (traced passes only).
    layers: dict[str, float] = field(default_factory=dict)
    trace: RequestTrace | None = None


@dataclass
class Pass:
    """The operations of one measured loop."""

    ops: list[Op] = field(default_factory=list)
    elapsed_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: Host probes taken during the pass (ms), once it is normalized.
    probe_ms: list[float] = field(default_factory=list)

    def fail(self, op: Op, message: str) -> None:
        """Count ``op`` as failed (once) and keep the first few reasons."""
        if op.ok:
            op.ok = False
            if len(self.errors) < 10:
                self.errors.append(message)

    @property
    def failed(self) -> int:
        """Operations that failed or whose output missed the oracle."""
        return sum(1 for op in self.ops if not op.ok)

    @property
    def good(self) -> list[Op]:
        """The operations that succeeded."""
        good = [op for op in self.ops if op.ok]
        if not good:
            raise RuntimeError(f"no operation succeeded: {self.errors[:3]}")
        return good


# ------------------------------------------------------------- host speed

#: Seconds :func:`probe_s` takes on the reference host.  Times the
#: benchmark reports are in milliseconds of that host.
PROBE_REFERENCE_S = 0.003

#: A pass probes the host at an operation boundary once this many
#: seconds have gone by since its last probe.
PROBE_EVERY_S = 0.2


def probe_s() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The work uses nothing from the package, so no change to the program
    under test changes it; only the host's speed does.
    """
    started = perf_counter()
    table: dict[int, int] = {}
    for i in range(20000):
        table[i % 997] = table.get(i % 997, 0) + i * 3
    sorted(table.values())
    return perf_counter() - started


def pin_client() -> tuple[int, ...]:
    """Keep this process off the CPU a server will get.

    Returns ``(server CPU, client CPU)`` after pinning this process to
    the client CPU, or ``()`` (nothing pinned) with fewer than two CPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return ()
    os.sched_setaffinity(0, {cpus[1]})
    return cpus[0], cpus[1]


class HostSpeed:
    """Probes taken during a pass, to express its times at reference speed.

    A shared host runs the same code up to a third slower for seconds or
    minutes at a time.  Each operation's times are scaled by
    ``PROBE_REFERENCE_S / probe``, the probe taken nearest to it, so that
    drift cancels while a change in the program's own cost does not.
    With ``cpus``, a probe is the mean of one probe on each of those
    CPUs (the server's and the client's); otherwise it runs where this
    process runs.
    """

    def __init__(self, cpus: tuple[int, ...] = ()) -> None:
        self.cpus = cpus
        #: ``(midpoint, seconds)`` of each probe, in time order.
        self.samples: list[tuple[float, float]] = []

    def measure(self) -> float:
        """Seconds one probe takes now."""
        if not self.cpus:
            return probe_s()
        home = os.sched_getaffinity(0)
        try:
            seconds = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                seconds.append(probe_s())
        finally:
            os.sched_setaffinity(0, home)
        return statistics.fmean(seconds)

    def probe(self) -> None:
        """Probe now and keep the sample."""
        started = perf_counter()
        seconds = self.measure()
        self.samples.append(((started + perf_counter()) / 2, seconds))

    def maybe_probe(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` has gone by since the last probe."""
        if not self.samples or perf_counter() - self.samples[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, at: float) -> float:
        """The scale for a time measured around ``at``: the probe time
        interpolated between the probes either side of it."""
        k = bisect.bisect(self.samples, (at,))
        if k == 0 or k == len(self.samples):
            return PROBE_REFERENCE_S / self.samples[min(k, len(self.samples) - 1)][1]
        (t0, s0), (t1, s1) = self.samples[k - 1], self.samples[k]
        return PROBE_REFERENCE_S / (s0 + (s1 - s0) * (at - t0) / (t1 - t0))

    def normalize(self, run: Pass) -> None:
        """Scale every time of ``run`` to reference speed."""
        self.probe()
        for op in run.ops:
            f = self.factor(op.started + op.latency_s / 2)
            op.latency_s *= f
            op.first_s *= f
            op.layers = {layer: seconds * f for layer, seconds in op.layers.items()}
        run.elapsed_s *= statistics.median(
            PROBE_REFERENCE_S / seconds for _, seconds in self.samples
        )
        run.probe_ms = [1e3 * seconds for _, seconds in self.samples]

    def normalized_s(self, fn: Callable[[], float]) -> float:
        """``fn()``'s seconds at reference speed, probed before and after."""
        before = self.measure()
        seconds = fn()
        return seconds * PROBE_REFERENCE_S / ((before + self.measure()) / 2)


#: The tail percentile is never higher than this, so that with many
#: samples it rests on more than ten of them.
MAX_TAIL_PERCENTILE = 99.0


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile, up to
    :data:`MAX_TAIL_PERCENTILE`, that has at least ten samples beyond it
    (the smallest sample if there are ten or fewer)."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 11, int(len(ordered) * MAX_TAIL_PERCENTILE / 100) - 1))
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def end_to_end(
    run: Pass,
    *,
    setup_s: list[float],
    rss_mb: float,
    busy_s: float,
    model_error: tuple[float, float],
) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """The end-to-end metrics of an untraced pass, plus sample details."""
    good = run.good
    latencies = [op.latency_s * 1e3 for op in good]
    percentile, tail_ms = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "work_per_s": (sum(op.work for op in good) / busy_s, "1/s"),
        "first_result_p50_ms": (
            statistics.median(op.first_s * 1e3 for op in good),
            "ms",
        ),
        "model_error_max_pct": (model_error[0], "%"),
        "model_error_mean_pct": (model_error[1], "%"),
    }
    details = {
        "samples": len(latencies),
        "tail_percentile": percentile,
        "setup_samples_s": setup_s,
        "host_probe_p50_ms": statistics.median(run.probe_ms),
        "host_probe_reference_ms": 1e3 * PROBE_REFERENCE_S,
    }
    return metrics, details


def add_self_times(
    into: dict[str, float],
    node: Mapping[str, Any],
    names: Mapping[str, str],
    layer: str | None = None,
) -> None:
    """Add each span's self time (duration minus its children's) to its layer.

    ``node`` is a span tree in :meth:`repro.obs.span.Span.to_dict` form.
    ``names`` maps span names to layers; a span it does not name belongs
    to its parent's layer, so a span added inside the program later
    moves no time out of the accounting.  Spans above the first named
    one (the benchmark's own root) belong to no layer.
    """
    layer = names.get(node["name"], layer)
    children = node.get("children", ())
    if layer is not None:
        own = node["duration_s"] - sum(child["duration_s"] for child in children)
        into[layer] = into.get(layer, 0.0) + own
    for child in children:
        add_self_times(into, child, names, layer)


def layer_metrics(
    traced: Pass, plain: Pass, extras: Mapping[str, float]
) -> tuple[dict[str, tuple[float, str]], float]:
    """Per-layer metrics of a traced pass; also returns the coverage (%)."""
    ops = traced.good
    total_s = sum(op.latency_s for op in ops)
    sums: dict[str, float] = defaultdict(float)
    for op in ops:
        for layer, seconds in op.layers.items():
            if layer not in LAYERS:
                raise KeyError(f"unknown layer {layer!r}")
            sums[layer] += seconds
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}_ms"] = (1e3 * sums[layer] / len(ops), "ms")
        metrics[f"{layer}_pct"] = (100.0 * sums[layer] / total_s, "%")
    for name, unit in LAYER_EXTRAS.items():
        metrics[name] = (float(extras.get(name, 0.0)), unit)
    covered = sum(s for layer, s in sums.items() if layer not in SIDE_LAYERS)
    coverage = 100.0 * covered / total_s
    plain_p50 = statistics.median(op.latency_s for op in plain.good)
    traced_p50 = statistics.median(op.latency_s for op in ops)
    metrics["trace_overhead_pct"] = (100.0 * (traced_p50 / plain_p50 - 1.0), "%")
    metrics["layer_coverage_pct"] = (coverage, "%")
    return metrics, coverage


# ------------------------------------------------------------- span trees


def timed_span(name: str, started: float, duration_s: float) -> Span:
    """A finished span measured outside any request scope."""
    made = Span(name)
    made.started = started
    made.duration_s = duration_s
    return made


def span_from_dict(node: Mapping[str, Any], origin: float) -> Span:
    """Rebuild a :class:`Span` tree from its JSON form, starting at ``origin``."""
    rebuilt = timed_span(node["name"], origin + node["start_s"], node["duration_s"])
    rebuilt.children = [
        span_from_dict(child, origin) for child in node.get("children", ())
    ]
    return rebuilt


def client_trace(
    name: str,
    request_id: str | None,
    started: float,
    duration_s: float,
    children: list[Span],
) -> RequestTrace:
    """A finished request trace whose root is the client's view of one op."""
    trace = RequestTrace(name, request_id)
    trace.root = timed_span(name, started, duration_s)
    trace.root.children = children
    return trace


def chrome_events(ops: Iterable[Op]) -> list[dict[str, Any]]:
    """The traced ops on one Chrome ``trace_event`` timeline."""
    traced = [op for op in ops if op.trace is not None]
    if not traced:
        return []
    origin = min(op.trace.root.started for op in traced)
    events: list[dict[str, Any]] = []
    for op in traced:
        shift = int((op.trace.root.started - origin) * 1e6)
        for event in trace_to_chrome_events(op.trace, pid=1, tid=op.index % 2):
            if event["ph"] == "M":
                if events:
                    continue
                event["args"] = {"name": "perfbench"}
            else:
                event["ts"] += shift
            events.append(event)
    return events


# -------------------------------------------------------------- processes


def child_setup_s(workload: str, seed: int) -> float:
    """Seconds a fresh process takes to import the package and set
    ``workload`` up, until it reports ready."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(RUN_SCRIPT), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - started
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} set-up process failed: {line!r}")
    return elapsed


class Server:
    """A fresh single-process ``repro-serve`` with only its memory cache,
    pinned to ``cpu`` if one is given."""

    def __init__(self, cpu: int | None = None) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.service", "--port", "0",
             "--workers", "1", "--jobs", "1"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        banner = self.proc.stdout.readline()
        match = re.search(r"http://[^\s:]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {banner!r}")
        self.port = int(match.group(1))

    def connection(self, timeout: float = 60.0) -> HTTPConnection:
        """A new client connection to this server."""
        return HTTPConnection("127.0.0.1", self.port, timeout=timeout)

    def metrics(self) -> dict[str, float]:
        """The samples of ``GET /metrics``, by series name."""
        conn = self.connection()
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode("utf-8")
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"GET /metrics: HTTP {response.status}")
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values

    def peak_rss_mb(self) -> float:
        """The server process's resident-memory high-water mark."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from the server's /proc status")

    def stop(self) -> None:
        """Terminate the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
