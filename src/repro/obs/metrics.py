"""Lightweight metrics registry: counters, gauges, timers, histograms.

The registry records what the reproduction's own machinery costs —
per-experiment stage timings, simulator throughput (cycles/sec,
committed-instructions/sec), model evaluation counts — so "make the hot
path faster" claims can be grounded in numbers.  Everything is in-process
and allocation-light: a counter increment is one attribute add, a timer
sample two ``perf_counter`` calls.

Snapshots are plain JSON-safe dicts, suitable for embedding in run
manifests (:mod:`repro.obs.manifest`).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterable, Iterator

from repro.obs.histogram import Histogram


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Timer:
    """Accumulated wall-clock durations measured with ``perf_counter``."""

    __slots__ = ("name", "total", "count", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Add one measured duration."""
        self.total += seconds
        self.count += 1
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        """Mean duration per sample (0 when never sampled)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    @contextmanager
    def time(self) -> Iterator["Timer"]:
        """Context manager measuring the enclosed block."""
        start = perf_counter()
        try:
            yield self
        finally:
            self.record(perf_counter() - start)

    def as_dict(self) -> dict[str, float | int]:
        """JSON-safe summary of this timer."""
        return {
            "total_s": self.total,
            "count": self.count,
            "mean_s": self.mean,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }


class MetricsRegistry:
    """Named counters, gauges, timers, histograms, and info blobs.

    Instruments are created on first use and cached, so call sites can
    simply ``registry.counter("sim.runs").inc()`` with no registration
    ceremony.  ``info`` entries hold arbitrary JSON-safe structures (e.g.
    the last simulation's :meth:`~repro.sim.stats.SimStats.to_dict`).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}
        self._info: dict[str, Any] = {}

    # ---------------------------------------------------------- instruments

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        try:
            return self._counters[name]
        except KeyError:
            instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        try:
            return self._gauges[name]
        except KeyError:
            instrument = self._gauges[name] = Gauge(name)
            return instrument

    def timer(self, name: str) -> Timer:
        """The timer called ``name`` (created on first use)."""
        try:
            return self._timers[name]
        except KeyError:
            instrument = self._timers[name] = Timer(name)
            return instrument

    def histogram(
        self, name: str, bounds: Iterable[float] | None = None
    ) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``bounds`` fixes the bucket layout on first use (default:
        :data:`~repro.obs.histogram.LATENCY_BOUNDS`); later calls may
        omit it or must pass the identical layout — requesting the same
        name with different bounds raises rather than silently binning
        new samples into the wrong buckets.
        """
        try:
            instrument = self._histograms[name]
        except KeyError:
            instrument = self._histograms[name] = Histogram(name, bounds)
            return instrument
        if bounds is not None and tuple(float(b) for b in bounds) != instrument.bounds:
            raise ValueError(
                f"histogram {name!r} already exists with a different "
                "bucket layout"
            )
        return instrument

    def histogram_summaries(self, prefix: str = "") -> dict[str, dict[str, float]]:
        """Compact :meth:`Histogram.summary` per histogram, sorted by name.

        ``prefix`` filters by instrument name — e.g.
        ``histogram_summaries("serve.latency.")`` is what ``/healthz``
        embeds as its per-endpoint percentile block.
        """
        return {
            name: h.summary()
            for name, h in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    def set_info(self, name: str, value: Any) -> None:
        """Attach a JSON-safe structured value under ``name``.

        ``value`` may also be a zero-argument callable that builds it:
        :meth:`snapshot` calls it, so an entry set on every simulator
        run but read only by the occasional snapshot or manifest costs
        nothing until it is read.
        """
        self._info[name] = value

    def merge(self, other: "MetricsRegistry | dict[str, Any]") -> None:
        """Fold another registry's recorded state into this one.

        ``other`` is a :class:`MetricsRegistry` or — the form worker
        processes send back across process boundaries — a
        :meth:`snapshot` dict.  Semantics per instrument kind:

        - **counters** add;
        - **timers** add ``total``/``count`` and widen ``min``/``max``;
        - **histograms** add bucket counts and exact aggregates —
          mismatched bucket layouts raise :class:`ValueError` rather
          than corrupting quantiles (see :meth:`Histogram.merge`);
        - **gauges** take the incoming value when it is non-zero (last
          write wins; a snapshot cannot distinguish "never set" from an
          explicit 0.0, so zero-valued incoming gauges are skipped);
        - **info** entries overwrite same-named keys.

        Snapshot sections other than the four instrument kinds and
        ``info`` (e.g. from a newer schema) are ignored, never guessed
        at.
        """
        snapshot = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            if value:
                self.gauge(name).set(value)
        for name, sample in snapshot.get("timers", {}).items():
            if not sample.get("count"):
                continue
            timer = self.timer(name)
            timer.total += sample["total_s"]
            timer.count += sample["count"]
            if sample["min_s"] < timer.min:
                timer.min = sample["min_s"]
            if sample["max_s"] > timer.max:
                timer.max = sample["max_s"]
        for name, sample in snapshot.get("histograms", {}).items():
            self.histogram(name, sample["bounds"]).merge(sample)
        for name, value in snapshot.get("info", {}).items():
            self.set_info(name, value)

    # -------------------------------------------------------------- exports

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dump of every instrument's current state.

        Instruments appear in sorted-name order within each section, so
        serialized snapshots (logs, manifests, worker state files, test
        fixtures) are byte-deterministic regardless of creation order.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "timers": {n: t.as_dict() for n, t in sorted(self._timers.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
            "info": {
                n: value() if callable(value) else value
                for n, value in sorted(self._info.items())
            },
        }

    def render_table(self) -> str:
        """Human-readable per-stage timing/counter table (``--profile``).

        Rows are emitted in sorted-name order per section, so the table
        is deterministic across runs and directly diffable.
        """
        lines = ["metrics:"]
        if self._timers:
            lines.append(
                f"  {'timer':<32} {'count':>7} {'total_s':>10} "
                f"{'mean_s':>10} {'max_s':>10}"
            )
            for name, t in sorted(self._timers.items()):
                lines.append(
                    f"  {name:<32} {t.count:>7} {t.total:>10.3f} "
                    f"{t.mean:>10.4f} {t.max:>10.3f}"
                )
        if self._histograms:
            lines.append(
                f"  {'histogram':<32} {'count':>7} {'mean':>10} "
                f"{'p50':>10} {'p90':>10} {'p99':>10}"
            )
            for name, h in sorted(self._histograms.items()):
                lines.append(
                    f"  {name:<32} {h.count:>7} {h.mean:>10.4g} "
                    f"{h.p50:>10.4g} {h.p90:>10.4g} {h.p99:>10.4g}"
                )
        if self._counters:
            lines.append(f"  {'counter':<32} {'value':>10}")
            for name, c in sorted(self._counters.items()):
                lines.append(f"  {name:<32} {c.value:>10}")
        if self._gauges:
            lines.append(f"  {'gauge':<32} {'value':>10}")
            for name, g in sorted(self._gauges.items()):
                lines.append(f"  {name:<32} {g.value:>10.4g}")
        if len(lines) == 1:
            lines.append("  (no metrics recorded)")
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every instrument (counters/timers keep their identity)."""
        for c in self._counters.values():
            c.value = 0
        for g in self._gauges.values():
            g.value = 0.0
        for t in self._timers.values():
            t.total = 0.0
            t.count = 0
            t.min = float("inf")
            t.max = 0.0
        for h in self._histograms.values():
            h.reset()
        self._info.clear()


#: Process-wide default registry, used by the simulator/model/runner
#: instrumentation.  Library users can build private registries too.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT
