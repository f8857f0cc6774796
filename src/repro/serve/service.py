"""``repro-serve``: a concurrent JSON-over-HTTP evaluation service.

Design exploration rarely happens one query at a time — a frontend, a
notebook, or a search loop fires thousands.  This service fronts the
package with four endpoints on a stdlib ``ThreadingHTTPServer`` (no
dependencies to install):

- ``POST /evaluate`` — one query or ``{"queries": [...]}``; the whole
  request is routed through the batch engine
  (:func:`repro.serve.batch.evaluate_batch`), so heterogeneous queries
  coalesce into vectorized :func:`~repro.core.model.speedup_grid` calls
  and repeated ones are answered from the content-addressed cache;
- ``POST /sweep`` — a 1-D design-space sweep via :func:`repro.api.sweep`,
  or (``kind: "pareto"``) a streaming multi-objective sweep: chunks of
  the cores × modes × tech × (a, v) lattice are evaluated through the
  vectorized engine (:mod:`repro.core.pareto`), individually cache-keyed,
  and the response streams as NDJSON — one progress line per chunk, then
  the merged Pareto frontier (``"stream": false`` for one JSON object);
- ``POST /simulate`` — cycle-level simulation of posted traces, fanned
  out over ``--jobs`` worker processes for multi-run requests and
  memoized by trace fingerprint; traces are compiled once into
  :class:`~repro.sim.compile.CompiledTrace` form and kept in a
  fingerprint-keyed LRU, so repeat requests skip the trace-static
  analysis pass (the hit counter surfaces in ``/healthz``);
- ``GET /healthz`` — liveness, version/schema tags, cache and
  compiled-trace LRU statistics, per-endpoint latency percentile
  summaries, and a provenance manifest;
- ``GET /metrics`` — the metrics registry in Prometheus text-exposition
  format; on a pooled worker the page is aggregated across every
  worker's state file, so one scrape sees the whole pool.

Operational behavior: requests are size-bounded (413 beyond
``--max-request-bytes``), malformed input yields a structured 400 (see
:class:`repro.serve.params.RequestError`), and every request runs under
a traced request scope: a request ID (client-supplied ``X-Request-Id``
or generated) echoed in the response headers, a span tree covering the
handler (returned inline under ``?debug=trace``), a per-endpoint
latency histogram sample, and — above ``--slow-request-s`` — a
single-line JSON record in the ``repro.serve.slow`` log that
``repro-obs tail-slow`` parses.  ``SIGTERM``/``SIGINT`` trigger a
graceful shutdown that drains in-flight requests before the process
exits.  ``docs/SERVING.md`` walks through a full client session;
``docs/OBSERVABILITY.md`` documents the telemetry.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs

from repro import api
from repro.cli_common import (
    add_common_arguments,
    configure_from_args,
    maybe_print_profile,
)
from repro.core.parallel import parallel_map
from repro.obs.log import get_logger
from repro.obs.manifest import build_manifest
from repro.obs.metrics import get_registry
from repro.obs.prometheus import render_prometheus
from repro.obs.span import new_request_id, request_scope, span
from repro.serve.batch import EvaluationQuery, evaluate_batch
from repro.serve.cache import (
    DEFAULT_MAX_ENTRIES,
    MISS,
    DiskCache,
    EvaluationCache,
    LRUCache,
)
from repro.serve.keys import schema_tag, simulation_key
from repro.serve.params import (
    RequestError,
    finite_number,
    iter_queries,
    parse_accelerator,
    parse_axis,
    parse_core,
    parse_drain,
    parse_modes,
    parse_pareto_sweep,
    parse_sampling,
    parse_sim_config,
    parse_trace,
    parse_warm_ranges,
    parse_workload,
)
from repro.serve.stream import (
    NDJSONStream,
    collect_pareto_sweep,
    stream_pareto_records,
)
from repro.sim.compile import compile_trace
from repro.sim.core import CycleLimitError
from repro.sim.stats import SimStats

_log = get_logger("serve.service")

#: Structured slow-request records land here, one JSON line each, so
#: they can be filtered/parsed independently of the access log
#: (``repro-obs tail-slow`` consumes this format).
_slow_log = get_logger("serve.slow")

#: Default bound on request body size (bytes) — ample for 10k-query
#: batches and multi-thousand-instruction traces, small enough that a
#: misbehaving client cannot balloon memory.
DEFAULT_MAX_REQUEST_BYTES = 32 * 1024 * 1024

#: Content type every Prometheus scraper sends in ``Accept``.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def default_slow_request_s() -> float:
    """The slow-request log threshold: ``$REPRO_SLOW_REQUEST_S`` or 1s."""
    try:
        return float(os.environ.get("REPRO_SLOW_REQUEST_S", ""))
    except ValueError:
        return 1.0

#: Default bound on the per-process :class:`CompiledTrace` LRU.  Clients
#: that hammer ``/simulate`` typically rotate over a handful of traces
#: (one per workload under study) across many configurations.
DEFAULT_COMPILED_TRACES = 32


def _field(base: str, index: int | None, leaf: str) -> str:
    """Field path for error messages: ``queries[i].leaf`` or ``leaf``."""
    return leaf if index is None else f"{base}[{index}].{leaf}"


def _json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats with RFC 8259 sentinels.

    ``json.dumps`` defaults to ``allow_nan=True``, which emits the bare
    tokens ``NaN``/``Infinity``/``-Infinity`` — Python-specific
    extensions that strict parsers (browsers, jq, Go, Rust, ...)
    reject, so a single infeasible sweep cell used to make the whole
    response unparseable.  At the response boundary NaN (the model's
    infeasibility marker) becomes ``null`` and infinities (e.g. a
    speedup over a zero-cycle baseline) become the strings
    ``"Infinity"``/``"-Infinity"``, preserving the distinction for
    clients that care.
    """
    if isinstance(value, float):
        if value != value:  # NaN
            return None
        if value == float("inf"):
            return "Infinity"
        if value == float("-inf"):
            return "-Infinity"
        return value
    if isinstance(value, Mapping):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _simulate_run(item: tuple[Any, Any, Any, Any]) -> dict[str, Any]:
    """One simulator run for :func:`parallel_map` workers.

    Module-level so pool processes can pickle it; returns the stats dict
    plus the sampling report (the picklable, cacheable parts of the
    result).  ``sampling`` rides in the work item — ambient
    :func:`~repro.sim.sample.sampling_scope` state does not cross the
    process boundary.
    """
    trace, config, warm_ranges, sampling = item
    try:
        result = api.simulate(
            trace, config, warm_ranges=warm_ranges, sampling=sampling
        )
    except CycleLimitError as exc:
        # The client chose the bound: returned, not raised, so the
        # handler can tag the run that hit it.
        return {"cycle_limit": str(exc)}
    return {"stats": result.stats.to_dict(), "sampling": result.sampling}


class ServeApp:
    """The service's request handlers, independent of the HTTP plumbing.

    Each ``handle_*`` method takes a decoded JSON payload and returns a
    JSON-safe response dict, raising
    :class:`~repro.serve.params.RequestError` on bad input — which makes
    the application logic directly testable without sockets.

    Args:
        cache: the memoization layer (default: in-memory only).
        jobs: worker processes for multi-run ``/simulate`` requests.
        compiled_traces: bound on the ``/simulate`` compiled-trace LRU
            (keyed by :meth:`~repro.isa.trace.Trace.fingerprint`); repeat
            requests for a known trace skip the trace-static analysis
            pass entirely.
    """

    def __init__(
        self,
        cache: EvaluationCache | None = None,
        jobs: int = 1,
        compiled_traces: int = DEFAULT_COMPILED_TRACES,
    ) -> None:
        self.cache = cache if cache is not None else EvaluationCache()
        self.jobs = max(1, jobs)
        self.started_at = monotonic()
        #: Set by :mod:`repro.serve.pool` on pooled workers: a callable
        #: returning the pool block for ``/healthz`` (size, per-worker
        #: liveness, merged cache counters).  ``None`` = single process.
        self.pool_info: Callable[[], dict[str, Any]] | None = None
        #: Set by :mod:`repro.serve.pool` on pooled workers: a callable
        #: returning a :class:`~repro.obs.metrics.MetricsRegistry` merged
        #: across every worker's state file.  ``None`` = single process
        #: (``/metrics`` renders the process-wide registry directly).
        self.pool_metrics: Callable[[], Any] | None = None
        self._compiled = LRUCache(max_entries=max(1, compiled_traces))
        self._compile_counts_lock = threading.Lock()
        self._compiles = 0

    def _compiled_for(self, trace: Any, field: str) -> Any:
        """The :class:`CompiledTrace` for ``trace``, via the LRU.

        Compilation happens outside the LRU's lock (it is pure), so
        concurrent first requests for the same trace may both compile;
        the second insert simply refreshes the entry.  A trace the
        compiler rejects is a 400 tagged ``field``.
        """
        fingerprint = trace.fingerprint()
        compiled = self._compiled.get(fingerprint)
        if compiled is not MISS:
            return compiled
        try:
            compiled = compile_trace(trace, cache=False)
        except ValueError as exc:
            raise RequestError(f"malformed trace: {exc}", field=field) from exc
        with self._compile_counts_lock:
            self._compiles += 1
        self._compiled.put(fingerprint, compiled)
        return compiled

    def compiled_trace_stats(self) -> dict[str, Any]:
        """JSON-safe snapshot of the compiled-trace LRU counters.

        ``compiles`` counts actual trace-static analysis passes run by
        *this* process.
        """
        stats = self._compiled.stats()
        with self._compile_counts_lock:
            stats["compiles"] = self._compiles
        return stats

    def _metrics_registry(self) -> Any:
        """The registry telemetry endpoints read: pool-merged or local."""
        if self.pool_metrics is not None:
            return self.pool_metrics()
        return get_registry()

    def render_metrics(self) -> str:
        """``GET /metrics``: the Prometheus text-exposition page.

        On a pooled worker the serving process first flushes its own
        state file, then merges every live worker's snapshot — so one
        scrape of the shared port sees pool-wide counters and exact
        pool-wide latency histograms regardless of which worker accepted
        the connection.
        """
        return render_prometheus(self._metrics_registry().snapshot())

    def handle_evaluate(self, payload: Any) -> dict[str, Any]:
        """``POST /evaluate``: batched analytical-model queries.

        Every (query, mode) pair in the request becomes one
        :class:`~repro.serve.batch.EvaluationQuery`; the batch engine
        coalesces them across queries, so a 10k-query request over a few
        core/accelerator groups costs a few vectorized evaluations.
        """
        specs = []
        queries: list[EvaluationQuery] = []
        slices: list[tuple[int, int]] = []  # queries[i] -> slice of `queries`
        with span("serve.evaluate.parse"):
            for index, spec in iter_queries(payload):
                core = parse_core(
                    spec.get("core"), _field("queries", index, "core")
                )
                accelerator = parse_accelerator(
                    spec.get("accelerator"),
                    _field("queries", index, "accelerator"),
                )
                workload = parse_workload(
                    spec.get("workload"), _field("queries", index, "workload")
                )
                modes = parse_modes(
                    spec.get("modes", spec.get("mode")),
                    _field("queries", index, "modes"),
                )
                drain = parse_drain(
                    spec.get("drain"), _field("queries", index, "drain")
                )
                start = len(queries)
                queries.extend(
                    EvaluationQuery(core, accelerator, workload, mode, drain)
                    for mode in modes
                )
                slices.append((start, len(queries)))
                specs.append((core, accelerator, workload, modes))
        entries = evaluate_batch(queries, cache=self.cache)
        results = []
        with span("serve.evaluate.assemble"):
            for (core, accelerator, workload, modes), (start, stop) in zip(
                specs, slices
            ):
                chunk = entries[start:stop]
                result = api.EvaluationResult(
                    core=core,
                    accelerator=accelerator,
                    workload=workload,
                    speedups={
                        mode: entry.speedup
                        for mode, entry in zip(modes, chunk)
                    },
                    cached=all(entry.cached for entry in chunk),
                )
                results.append(result.to_dict())
        return {"results": results, "cache": self.cache.stats()}

    def handle_sweep(self, payload: Any) -> "dict[str, Any] | NDJSONStream":
        """``POST /sweep``: a design-space sweep.

        ``kind: "granularity"/"fraction"/"frequency"`` runs the classic
        1-D sweep and returns one JSON object.  ``kind: "pareto"`` runs
        the chunked multi-objective engine (:mod:`repro.serve.stream`):
        by default the response streams as NDJSON — one progress line
        per evaluated chunk, then a final ``{"summary": ...}`` line with
        the merged frontier; ``"stream": false`` returns the same data
        as a single JSON object.  Chunks are individually cache-keyed,
        so repeated or overlapping pareto sweeps replay from the cache.
        """
        spec = payload if isinstance(payload, Mapping) else None
        if spec is None:
            raise RequestError("expected a sweep object", field="request")
        kind = spec.get("kind")
        if kind == "pareto":
            sweep_spec, stream = parse_pareto_sweep(spec)
            if stream:
                return NDJSONStream(
                    stream_pareto_records(sweep_spec, self.cache, self.jobs)
                )
            return collect_pareto_sweep(sweep_spec, self.cache, self.jobs)
        x = spec.get("x")
        if not isinstance(x, (list, tuple)) or not x:
            raise RequestError("x must be a non-empty number list", field="x")
        x = parse_axis(x, "x")
        kwargs: dict[str, Any] = {}
        for key in ("acceleratable_fraction", "granularity"):
            if spec.get(key) is not None:
                kwargs[key] = finite_number(spec[key], key, key)
        try:
            result = api.sweep(
                str(kind),
                parse_core(spec.get("core")),
                parse_accelerator(spec.get("accelerator")),
                x,
                drain_estimator=parse_drain(spec.get("drain")),
                modes=parse_modes(spec.get("modes", spec.get("mode"))),
                **kwargs,
            )
        except ValueError as exc:
            if isinstance(exc, RequestError):
                raise
            raise RequestError(str(exc), field="kind") from exc
        return {"result": result.to_dict()}

    def handle_simulate(self, payload: Any) -> dict[str, Any]:
        """``POST /simulate``: cycle-level simulation of posted traces.

        Accepts one run object
        (``trace``/``config``/``warm_ranges``/``sampling``) or
        ``{"runs": [...]}``.  Cached runs are answered immediately; the
        remainder fan out over the configured worker processes, each
        shipping the precompiled trace from the fingerprint-keyed LRU.
        ``sampling`` opts a run into interval-sampled estimation (see
        :mod:`repro.sim.sample`); each result reports ``sim_mode``
        (``"exact"`` or ``"sampled"``) and, when sampled, the sampling
        report with per-stat confidence intervals.
        """
        if not isinstance(payload, Mapping):
            raise RequestError("expected a simulate object", field="request")
        if "runs" in payload:
            run_specs = payload["runs"]
            if not isinstance(run_specs, (list, tuple)) or not run_specs:
                raise RequestError("runs must be a non-empty list", field="runs")
            runs = [
                (i, spec) for i, spec in enumerate(run_specs)
            ]
        else:
            runs = [(None, payload)]
        parsed = []
        with span("serve.simulate.parse"):
            for index, spec in runs:
                if not isinstance(spec, Mapping):
                    raise RequestError(
                        "each run must be an object",
                        field=_field("runs", index, ""),
                    )
                trace = parse_trace(
                    spec.get("trace"), _field("runs", index, "trace")
                )
                config = parse_sim_config(
                    spec.get("config", "a72"), _field("runs", index, "config")
                )
                warm = parse_warm_ranges(
                    spec.get("warm_ranges"), _field("runs", index, "warm_ranges")
                )
                sampling = parse_sampling(
                    spec.get("sampling"), _field("runs", index, "sampling")
                )
                # Compiled form for every run — result-cache hits still
                # count an LRU hit, and uncached runs ship the precompiled
                # trace to the worker pool instead of recompiling per
                # process.
                compiled = self._compiled_for(
                    trace, _field("runs", index, "trace")
                )
                parsed.append((compiled, config, warm, sampling))

        registry = get_registry()
        results: list[dict[str, Any] | None] = [None] * len(parsed)
        fresh: list[tuple[int, tuple[Any, Any, Any, Any], str]] = []
        with span("serve.simulate.cache_probe"):
            for i, (trace, config, warm, sampling) in enumerate(parsed):
                key = simulation_key(config, trace, warm, sampling=sampling)
                value = self.cache.get(key)
                if value is not MISS:
                    results[i] = api.SimulationResult(
                        trace_name=trace.name,
                        config_name=config.name,
                        mode=config.tca_mode,
                        stats=SimStats.from_dict(value["stats"]),
                        cached=True,
                        sampling=value.get("sampling"),
                    ).to_dict()
                else:
                    fresh.append((i, (trace, config, warm, sampling), key))
        if fresh:
            with span("serve.simulate.run"):
                run_dicts = parallel_map(
                    _simulate_run,
                    [item for _, item, _ in fresh],
                    jobs=self.jobs,
                )
            for (i, (trace, config, warm, sampling), key), run in zip(
                fresh, run_dicts
            ):
                if "cycle_limit" in run:
                    raise RequestError(
                        run["cycle_limit"],
                        field=_field("runs", runs[i][0], "config.max_cycles"),
                    )
                self.cache.put(
                    key, {"stats": run["stats"], "sampling": run["sampling"]}
                )
                results[i] = api.SimulationResult(
                    trace_name=trace.name,
                    config_name=config.name,
                    mode=config.tca_mode,
                    stats=SimStats.from_dict(run["stats"]),
                    cached=False,
                    sampling=run["sampling"],
                ).to_dict()
        for result in results:
            mode = result.get("sim_mode", "exact") if result else "exact"
            registry.counter(f"serve.simulate.{mode}_runs").inc()
        body = {
            "results": results,
            "cache": self.cache.stats(),
            "compiled_traces": self.compiled_trace_stats(),
        }
        if "runs" not in payload:
            body["result"] = results[0]
        return body

    def handle_healthz(self) -> dict[str, Any]:
        """``GET /healthz``: liveness plus provenance and cache state.

        ``latency`` summarizes the per-endpoint request-latency
        histograms (count/mean/p50/p90/p99/max, pool-merged on pooled
        workers).  On a pooled worker (``--workers N``) the response
        also carries a ``pool`` block: pool size,
        per-worker pid/liveness/request counts/uptime/last-request
        timestamps, and cache counters merged across all workers.
        """
        prefix = "serve.latency."
        body = {
            "status": "ok",
            "schema": schema_tag(),
            "uptime_s": monotonic() - self.started_at,
            "cache": self.cache.stats(),
            "compiled_traces": self.compiled_trace_stats(),
            "latency": {
                name[len(prefix) :]: summary
                for name, summary in self._metrics_registry()
                .histogram_summaries(prefix)
                .items()
            },
            "manifest": build_manifest(
                metrics=get_registry().snapshot(), cache=self.cache.stats()
            ),
        }
        if self.pool_info is not None:
            body["pool"] = self.pool_info()
        return body


class _Handler(BaseHTTPRequestHandler):
    """HTTP plumbing: routing, size bounds, JSON codec, error mapping."""

    server: "ServeServer"
    #: Route table: (method, path) -> app handler name.
    ROUTES = {
        ("POST", "/evaluate"): "handle_evaluate",
        ("POST", "/sweep"): "handle_sweep",
        ("POST", "/simulate"): "handle_simulate",
    }

    def log_message(self, format: str, *args: Any) -> None:
        """Route http.server's chatter into the package logger."""
        _log.info("%s %s", self.address_string(), format % args)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        request_id: str | None = None,
    ) -> None:
        # Fast path first: allow_nan=False raises on any non-finite
        # float, so the (overwhelmingly common) all-finite response pays
        # nothing; only a payload that actually carries NaN/inf takes
        # the _json_safe rebuild.
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError:
            body = json.dumps(
                _json_safe(payload), allow_nan=False
            ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_ndjson(self, stream: NDJSONStream, request_id: str) -> None:
        """Stream an NDJSON response, one flushed JSON line per record.

        The default HTTP/1.0 protocol version delimits the body by
        connection close, so no Content-Length is needed — records go
        out as they are produced.  Mid-stream failures (after headers
        are committed) emit a final ``{"error": ...}`` line rather than
        a status change; a vanished client just ends the stream.
        """
        # The body is delimited by connection close; make sure no
        # keep-alive path ever leaves the client waiting for EOF.
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", stream.content_type)
        self.send_header("X-Request-Id", request_id)
        self.end_headers()
        registry = get_registry()
        try:
            for record in stream.records:
                try:
                    line = json.dumps(record, allow_nan=False)
                except ValueError:
                    line = json.dumps(_json_safe(record), allow_nan=False)
                self.wfile.write(line.encode("utf-8") + b"\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            registry.counter("serve.requests.disconnected").inc()
            _log.info("client disconnected mid-stream")
        except Exception:
            registry.counter("serve.requests.errors").inc()
            _log.exception("error while streaming response")
            try:
                self.wfile.write(
                    json.dumps({"error": "internal server error"}).encode(
                        "utf-8"
                    )
                    + b"\n"
                )
            except OSError:  # pragma: no cover - client already gone
                pass

    def _send_text(
        self, status: int, text: str, content_type: str, request_id: str
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("X-Request-Id", request_id)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or "")
        except ValueError:
            raise RequestError("Content-Length header required") from None
        if length > self.server.max_request_bytes:
            raise _TooLarge(length)
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"request body is not valid JSON: {exc}") from exc

    def _dispatch(
        self, endpoint: str, handler_name: str | None, query: str = ""
    ) -> None:
        """Run one request under a traced scope and send the response.

        The request scope opens before the handler and closes before the
        bytes go out, so the root span covers effectively all of the
        handler wall time; its duration feeds the per-endpoint latency
        histogram, the slow-request log, and — when the client asked
        with ``?debug=trace`` — the ``trace`` block of the JSON body.
        """
        registry = get_registry()
        name = endpoint.lstrip("/")
        registry.counter(f"serve.requests.{name}").inc()
        want_trace = "trace" in parse_qs(query).get("debug", [])
        request_id = self.headers.get("X-Request-Id") or new_request_id()
        status = 200
        payload: dict[str, Any] = {}
        metrics_page: str | None = None
        streamed = False
        with request_scope(f"serve.{name}", request_id) as trace:
            try:
                with registry.timer("serve.request").time():
                    if endpoint == "/metrics":
                        metrics_page = self.server.app.render_metrics()
                    elif handler_name is None:  # healthz
                        payload = self.server.app.handle_healthz()
                    else:
                        with span("serve.read_body"):
                            body = self._read_body()
                        result = getattr(self.server.app, handler_name)(body)
                        if isinstance(result, NDJSONStream):
                            # Stream inside the scope: the records are
                            # produced lazily, so writing them IS the
                            # handler work and must be covered by the
                            # latency span.  _send_ndjson never raises.
                            self._send_ndjson(result, request_id)
                            streamed = True
                        else:
                            payload = result
            except _TooLarge as exc:
                registry.counter("serve.requests.rejected").inc()
                status = 413
                payload = {
                    "error": f"request body of {exc.length} bytes exceeds "
                    f"the {self.server.max_request_bytes}-byte limit"
                }
            except RequestError as exc:
                registry.counter("serve.requests.bad").inc()
                status, payload = 400, exc.to_payload()
            except Exception:
                registry.counter("serve.requests.errors").inc()
                _log.exception("unhandled error serving %s", endpoint)
                status, payload = 500, {"error": "internal server error"}
        registry.histogram(f"serve.latency.{name}").observe(trace.duration_s)
        slow_after = self.server.slow_request_s
        if slow_after is not None and trace.duration_s >= slow_after:
            _slow_log.warning(
                "slow request %s",
                json.dumps(trace.summary_line(), sort_keys=True),
            )
        # The hook (a pool worker's state-file report) runs before the
        # response goes out, so a client that has its answer can scrape
        # any worker and see this request counted.
        hook = self.server.after_request
        if hook is not None:
            hook()
        if streamed:
            return  # response already written line by line
        if metrics_page is not None:
            self._send_text(
                status, metrics_page, PROMETHEUS_CONTENT_TYPE, request_id
            )
        else:
            if want_trace:
                payload["trace"] = trace.to_dict()
            self._send_json(status, payload, request_id)

    def do_GET(self) -> None:
        """Serve ``GET /healthz`` and ``GET /metrics`` (else a 404)."""
        path, _, query = self.path.partition("?")
        if path in ("/healthz", "/metrics"):
            self._dispatch(path, None, query)
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})

    def do_POST(self) -> None:
        """Serve the evaluation endpoints (anything else is a 404)."""
        path, _, query = self.path.partition("?")
        handler_name = self.ROUTES.get(("POST", path))
        if handler_name is None:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})
            return
        self._dispatch(path, handler_name, query)


class _TooLarge(Exception):
    """Internal signal: request body exceeds the configured bound."""

    def __init__(self, length: int) -> None:
        super().__init__(str(length))
        self.length = length


class ServeServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`ServeApp`.

    Handler threads are non-daemonic and ``block_on_close`` is left on,
    so ``shutdown()`` + ``server_close()`` drain in-flight requests
    before returning — the graceful-termination half of the SIGTERM
    story.
    """

    daemon_threads = False
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        app: ServeApp,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        sock: socket.socket | None = None,
        slow_request_s: float | None = None,
    ) -> None:
        if sock is None:
            super().__init__(address, _Handler)
        else:
            # Pooled workers adopt the pool's shared listening socket
            # instead of binding their own.
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()  # the unbound one socketserver made
            self.socket = sock
            self.server_address = sock.getsockname()
            host, port = self.server_address[:2]
            self.server_name = socket.getfqdn(host)
            self.server_port = port
        self.app = app
        self.max_request_bytes = max_request_bytes
        #: Requests at or above this many wall seconds emit a structured
        #: record to the ``repro.serve.slow`` log (``None`` disables).
        self.slow_request_s: float | None = (
            default_slow_request_s() if slow_request_s is None else slow_request_s
        )
        #: Optional post-request hook (pool workers report state here).
        self.after_request: Callable[[], None] | None = None

    def get_request(self) -> tuple[socket.socket, Any]:
        """Accept one connection, re-blocking it for the handler.

        A pool's shared listening socket is non-blocking (so a worker
        that loses the accept race isn't stuck); accepted connections
        must be switched back to blocking before ``http.server`` reads
        from them.
        """
        request, client_address = super().get_request()
        request.setblocking(True)
        return request, client_address


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    app: ServeApp | None = None,
    max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
    slow_request_s: float | None = None,
) -> ServeServer:
    """A ready-to-run server (port 0 = ephemeral, for tests).

    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()`` + ``server_close()`` to stop.
    """
    return ServeServer(
        (host, port),
        app if app is not None else ServeApp(),
        max_request_bytes,
        slow_request_s=slow_request_s,
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``repro-serve``."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve cached, batched TCA-model and simulator "
        "evaluations over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8123, help="bind port")
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=DEFAULT_MAX_ENTRIES,
        metavar="N",
        help="in-memory cache bound (default: %(default)s)",
    )
    parser.add_argument(
        "--disk-cache",
        action="store_true",
        help="also persist results under ~/.cache/repro/ "
        "(or $REPRO_CACHE_DIR), versioned by schema tag",
    )
    parser.add_argument(
        "--disk-cache-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU-evict disk-cache entries beyond this total size "
        "(0 = unbounded; default: $REPRO_DISK_CACHE_BYTES or 1073741824)",
    )
    parser.add_argument(
        "--max-request-bytes",
        type=int,
        default=DEFAULT_MAX_REQUEST_BYTES,
        metavar="BYTES",
        help="reject request bodies larger than this (default: %(default)s)",
    )
    parser.add_argument(
        "--slow-request-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log a structured slow-request record for requests at or "
        "above this many seconds (default: $REPRO_SLOW_REQUEST_S or 1.0)",
    )
    add_common_arguments(parser, jobs=True, workers=True)
    args = parser.parse_args(argv)
    configure_from_args(args)

    def app_factory() -> ServeApp:
        # Called in each worker process (after fork) so every worker
        # owns fresh in-memory caches; with --disk-cache, workers share
        # the on-disk store (shared by path, with atomic per-entry
        # writes).
        return ServeApp(
            cache=EvaluationCache(
                max_entries=args.cache_entries,
                disk=DiskCache(max_bytes=args.disk_cache_bytes)
                if args.disk_cache
                else None,
            ),
            jobs=args.jobs,
        )

    if args.workers > 1:
        from repro.serve.pool import run_pool

        code = run_pool(
            args.host,
            args.port,
            args.workers,
            app_factory,
            max_request_bytes=args.max_request_bytes,
            slow_request_s=args.slow_request_s,
        )
        maybe_print_profile(args)
        return code

    app = app_factory()
    server = make_server(
        args.host,
        args.port,
        app,
        max_request_bytes=args.max_request_bytes,
        slow_request_s=args.slow_request_s,
    )

    def _request_shutdown(signum: int, frame: Any) -> None:
        _log.warning(
            "received %s; draining in-flight requests",
            signal.Signals(signum).name,
        )
        # shutdown() blocks until serve_forever exits, so it must run off
        # the main thread (which is inside serve_forever).
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)

    host, port = server.server_address[:2]
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"(schema {schema_tag()}; workers=1)",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.server_close()
    maybe_print_profile(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
