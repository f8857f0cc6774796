"""The workloads that drive a live ``repro-serve`` over HTTP.

``evaluate-http`` is a closed loop of ``POST /evaluate`` requests on two
client connections; ``pareto-stream`` is a closed loop of streamed
``POST /sweep kind=pareto`` requests on one.  Each pass starts a fresh
single-process server with only its memory cache and warms it with
traffic disjoint from the timed traffic.  Every response is checked
against an in-process oracle after the timed loop.
"""

from __future__ import annotations

import json
import random
import threading
from http.client import HTTPConnection, HTTPException
from time import perf_counter
from typing import Any

import numpy as np

from harness import (
    PROBE_EVERY_S,
    HostSpeed,
    Op,
    Pass,
    Server,
    add_self_times,
    client_trace,
    pin_client,
    span_from_dict,
    timed_span,
)
from repro import api
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
from repro.obs.span import request_scope, span
from repro.serve.params import parse_pareto_sweep

CORES = {"a72": ARM_A72, "hp": HIGH_PERF, "lp": LOW_PERF}
MODES = tuple(mode.value for mode in TCAMode.all_modes())
HEADERS = {"Content-Type": "application/json"}


def strict_json(raw: bytes) -> Any:
    """Parse RFC 8259 JSON, rejecting the NaN/Infinity extensions."""

    def reject(token: str) -> None:
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(raw, parse_constant=reject)


def canonical(value: Any) -> str:
    """Order-independent JSON text, for exact comparison."""
    return json.dumps(value, sort_keys=True)


class HTTPWorkload:
    """A workload served by a fresh single-process server.

    With two CPUs or more, the server runs on one and this process on
    another, and host probes time both.
    """

    name = ""
    #: The server's memory high-water mark is read once this many timed
    #: requests have completed.  Its cache keeps what every request added,
    #: so a mark read at the end of the loop would grow with however many
    #: requests the host's speed allowed, not with the memory they cost.
    rss_after_requests = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server: Server | None = None
        self.cpus = pin_client()
        self._rss_mb: float | None = None

    def fresh_setup_s(self) -> float:
        """Start a fresh server and warm it up; returns the seconds taken."""
        self.close()
        started = perf_counter()
        self.server = Server(self.cpus[0] if self.cpus else None)
        self.warm_up()
        return perf_counter() - started

    def prepare(self) -> None:
        """Make sure a warmed-up server is running."""
        if self.server is None:
            self.fresh_setup_s()

    def reset(self) -> None:
        """A fresh server, so a replay meets the same cold caches."""
        self.fresh_setup_s()

    def mark_rss(self, completed: int) -> None:
        """Read the server's memory high-water mark, once, when
        ``completed`` timed requests reach :attr:`rss_after_requests`."""
        if self._rss_mb is None and completed >= self.rss_after_requests:
            self._rss_mb = self.server.peak_rss_mb()

    def peak_rss_mb(self) -> float:
        """The server's resident-memory high-water mark after
        :attr:`rss_after_requests` timed requests (or all, if fewer ran)."""
        return self.server.peak_rss_mb() if self._rss_mb is None else self._rss_mb

    def busy_s(self, run: Pass) -> float:
        """Wall seconds of the closed loop."""
        return run.elapsed_s

    def model_error(self) -> tuple[float, float]:
        """Max and mean model error over the validation suite."""
        import simulation

        return simulation.model_error(simulation.Suite().records)

    def close(self) -> None:
        """Stop the server, if one runs."""
        if self.server is not None:
            self.server.stop()
            self.server = None

    def warm_up(self) -> None:
        """Send the warm-up traffic."""
        raise NotImplementedError


# ------------------------------------------------------------ evaluate-http

QUERIES_PER_REQUEST = 25
#: Share of queries that repeat an earlier query of the same run, so the
#: result cache answers about half of them.
REPEAT_SHARE = 0.5
CONNECTIONS = 2
ACCELERATORS = ({"acceleration": 3.0}, {"acceleration": 8.0}, {"latency": 25.0})
DRAINS = (None, {"kind": "explicit", "cycles": 40.0}, {"kind": "balanced_window"})
#: Timed queries draw granularities from GRANULARITY and warm-up queries
#: from above it, so warm-up traffic never fills the timed traffic's cache.
GRANULARITY = (2.0, 5000.0)
WARMUP_GRANULARITY = (6000.0, 9000.0)
WARMUP_REQUESTS = 8
#: Request bodies generated before the timed loop starts.
PREFILL_REQUESTS = 1000
TOLERANCE = 1e-9

#: Span names of the server's ``/evaluate`` tree, by layer.
EVALUATE_LAYERS = {
    "serve.evaluate": "serve.dispatch",
    "serve.read_body": "serve.read_body",
    "serve.evaluate.parse": "serve.params.parse",
    "serve.batch": "serve.batch.group",
    "serve.batch.partition": "serve.batch.partition",
    "serve.batch.cache_probe": "serve.cache.probe",
    "serve.batch.evaluate": "core.model.grid",
    "serve.batch.store": "serve.cache.store",
    "serve.evaluate.assemble": "api.assemble",
}


class QueryStream:
    """Seeded ``/evaluate`` bodies of 25 heterogeneous queries each.

    A query repeats an earlier query of the stream with probability
    :data:`REPEAT_SHARE`.  Request ``i`` depends only on the seed and
    ``i``, so a replay sends the same bodies.
    """

    def __init__(self, seed: str, granularity: tuple[float, float]) -> None:
        self._rng = random.Random(seed)
        self._granularity = granularity
        self._seen: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self.queries: list[list[dict[str, Any]]] = []
        self.repeats: list[int] = []
        self.bodies: list[bytes] = []

    def body(self, index: int) -> bytes:
        """The body of request ``index``."""
        with self._lock:
            while len(self.bodies) <= index:
                self._extend()
            return self.bodies[index]

    def _extend(self) -> None:
        rng = self._rng
        batch = []
        repeats = 0
        for _ in range(QUERIES_PER_REQUEST):
            if self._seen and rng.random() < REPEAT_SHARE:
                batch.append(rng.choice(self._seen))
                repeats += 1
                continue
            query = {
                "core": rng.choice(tuple(CORES)),
                "accelerator": rng.choice(ACCELERATORS),
                "workload": {
                    "granularity": rng.uniform(*self._granularity),
                    "acceleratable_fraction": rng.uniform(0.05, 0.95),
                },
                "modes": [rng.choice(MODES)],
                "drain": rng.choice(DRAINS),
            }
            self._seen.append(query)
            batch.append(query)
        self.queries.append(batch)
        self.repeats.append(repeats)
        self.bodies.append(json.dumps({"queries": batch}).encode("utf-8"))


def scalar_speedup(query: dict[str, Any], mode: str) -> float:
    """The scalar :class:`TCAModel` answer to one query: the oracle."""
    drain = query["drain"]
    if drain is None:
        estimator = None
    elif drain["kind"] == "explicit":
        estimator = ExplicitDrain(drain["cycles"])
    else:
        estimator = BalancedWindowDrain()
    workload = WorkloadParameters.from_granularity(
        query["workload"]["granularity"],
        query["workload"]["acceleratable_fraction"],
    )
    model = TCAModel(
        CORES[query["core"]],
        AcceleratorParameters(**query["accelerator"]),
        workload,
        drain_estimator=estimator,
    )
    return model.speedup(TCAMode(mode))


class EvaluateHTTP(HTTPWorkload):
    """``evaluate-http``: closed-loop ``/evaluate`` batches, half repeated."""

    name = "evaluate-http"
    rss_after_requests = 1000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._oracle: dict[str, float] = {}
        self._cache_base: dict[str, int] = {}
        self._cache_end: dict[str, int] = {}
        self.properties: dict[str, Any] = {}

    def warm_up(self) -> None:
        """Eight requests whose queries the timed traffic never sends."""
        stream = QueryStream(f"evaluate-warmup/{self.seed}", WARMUP_GRANULARITY)
        run, responses = self._loop(stream, count=WARMUP_REQUESTS, path="/evaluate")
        self._check(run, responses, stream, traced=False)
        if run.failed:
            raise RuntimeError(f"warm-up failed: {run.errors[:3]}")
        self._cache_base = self._cache_end

    def run(
        self, seconds: float | None = None, count: int | None = None,
        traced: bool = False,
    ) -> Pass:
        """One closed-loop pass, then the oracle check of every response."""
        stream = QueryStream(f"evaluate/{self.seed}", GRANULARITY)
        stream.body(max(PREFILL_REQUESTS, count or 0) - 1)
        path = "/evaluate?debug=trace" if traced else "/evaluate"
        host = HostSpeed(self.cpus)
        self._rss_mb = None
        run, responses = self._loop(
            stream, seconds=seconds, count=count, path=path, host=host
        )
        self._check(run, responses, stream, traced)
        host.normalize(run)
        base, end = self._cache_base, self._cache_end or self._cache_base
        looked_up = end["hits"] + end["misses"] - base["hits"] - base["misses"]
        sent = QUERIES_PER_REQUEST * len(run.ops)
        self.properties = {
            "repeat_share": sum(stream.repeats[op.index] for op in run.ops) / sent,
            "cache_hit_ratio": (end["hits"] - base["hits"]) / looked_up
            if looked_up else 0.0,
        }
        return run

    def layer_extras(self, traced: Pass) -> dict[str, float]:
        """The result-cache hit ratio of the traced pass."""
        return {"serve.cache.hit_ratio": self.properties["cache_hit_ratio"]}

    def _loop(
        self,
        stream: QueryStream,
        *,
        path: str,
        seconds: float | None = None,
        count: int | None = None,
        host: HostSpeed | None = None,
    ) -> tuple[Pass, dict[int, tuple[int, bytes]]]:
        """Each connection sends its next request when its last one completes.

        With ``host``, the loop runs in slices of :data:`PROBE_EVERY_S`
        and, between slices, while no request is in flight, probes the
        host and marks the server's memory.
        """
        run = Pass()
        responses: dict[int, tuple[int, bytes]] = {}
        claim_lock = threading.Lock()
        cursor = [0]
        stop_at = None if seconds is None else perf_counter() + seconds

        def finished() -> bool:
            return (count is not None and cursor[0] >= count) or (
                stop_at is not None and perf_counter() >= stop_at
            )

        def claim(slice_end: float) -> int | None:
            with claim_lock:
                if finished() or perf_counter() >= slice_end:
                    return None
                cursor[0] += 1
                return cursor[0] - 1

        def drive(conn: HTTPConnection, slice_end: float) -> None:
            while (index := claim(slice_end)) is not None:
                body = stream.body(index)
                started = perf_counter()
                try:
                    conn.request("POST", path, body=body, headers=HEADERS)
                    response = conn.getresponse()
                    first = perf_counter()
                    raw = response.read()
                except (OSError, HTTPException) as exc:
                    conn.close()
                    op = Op(index, started, perf_counter() - started, 0.0)
                    run.ops.append(op)
                    run.fail(op, f"request {index}: {exc!r}")
                    continue
                done = perf_counter()
                run.ops.append(Op(index, started, done - started, first - started))
                responses[index] = (response.status, raw)

        conns = [self.server.connection(timeout=30.0) for _ in range(CONNECTIONS)]
        started = perf_counter()
        try:
            while not finished():
                slice_end = float("inf")
                if host is not None:
                    host.probe()
                    slice_end = perf_counter() + PROBE_EVERY_S
                threads = [
                    threading.Thread(target=drive, args=(conn, slice_end), daemon=True)
                    for conn in conns
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                if host is not None:
                    self.mark_rss(len(run.ops))
        finally:
            for conn in conns:
                conn.close()
        run.elapsed_s = perf_counter() - started
        run.ops.sort(key=lambda op: op.index)
        return run, responses

    def _speedup(self, query: dict[str, Any], mode: str) -> float:
        key = canonical([query, mode])
        if key not in self._oracle:
            self._oracle[key] = scalar_speedup(query, mode)
        return self._oracle[key]

    def _check(
        self,
        run: Pass,
        responses: dict[int, tuple[int, bytes]],
        stream: QueryStream,
        traced: bool,
    ) -> None:
        """Every speedup must match the scalar model within 1e-9."""
        self._cache_end = {}
        for op in run.ops:
            if not op.ok:
                continue
            status, raw = responses[op.index]
            if status != 200:
                run.fail(op, f"request {op.index}: HTTP {status}: {raw[:200]!r}")
                continue
            queries = stream.queries[op.index]
            try:
                body = strict_json(raw)
                results = body["results"]
                if len(results) != len(queries):
                    raise ValueError(f"{len(results)} results for {len(queries)} queries")
                for query, result in zip(queries, results):
                    for mode in query["modes"]:
                        got = result["speedups"][mode]
                        want = self._speedup(query, mode)
                        if not isinstance(got, float) or abs(got - want) > TOLERANCE:
                            raise ValueError(f"{mode} speedup {got!r}, scalar model {want!r}")
                counters = body["cache"]["memory"]
            except (ValueError, KeyError, TypeError) as exc:
                run.fail(op, f"request {op.index}: {exc}")
                continue
            op.work = len(queries)
            end = self._cache_end
            if not end or counters["hits"] + counters["misses"] > end["hits"] + end["misses"]:
                self._cache_end = counters
            if traced:
                self._layers(op, body)

    def _layers(self, op: Op, body: dict[str, Any]) -> None:
        """Split a traced request into the server's spans and the rest."""
        root = body["trace"]["root"]
        add_self_times(op.layers, root, EVALUATE_LAYERS)
        outside = op.latency_s - root["duration_s"]
        op.layers["serve.http.outside"] = outside
        started = perf_counter()
        json.dumps(body, allow_nan=False)
        op.layers["serve.json.encode"] = perf_counter() - started
        server = span_from_dict(root, op.started + outside / 2)
        op.trace = client_trace(
            f"perfbench.{self.name}", body["trace"].get("request_id"),
            op.started, op.latency_s, [server],
        )


# ------------------------------------------------------------ pareto-stream

#: Each request sweeps 3 cores × 4 modes × AXIS_POINTS² lattice cells.
AXIS_POINTS = 200
PARETO_CORES = ("a72", "hp", "lp")
EVALUATE_TIMER = "repro_serve_pareto_evaluate_seconds_sum"
CHUNK_HITS = "repro_serve_pareto_cache_hits_total"
CHUNK_MISSES = "repro_serve_pareto_cache_misses_total"


def sweep_request(
    label: str,
    axis: int = AXIS_POINTS,
    cores: tuple[str, ...] = PARETO_CORES,
    acceleration: tuple[float, float] = (2.0, 12.0),
) -> dict[str, Any]:
    """A seeded pareto sweep over a lattice of its own."""
    rng = random.Random(label)
    fractions = np.linspace(rng.uniform(0.02, 0.1), rng.uniform(0.6, 0.98), axis)
    frequencies = np.geomspace(rng.uniform(1e-5, 1e-4), rng.uniform(0.005, 0.05), axis)
    return {
        "kind": "pareto",
        "cores": list(cores),
        "accelerator": {"acceleration": rng.uniform(*acceleration)},
        "fractions": fractions.tolist(),
        "frequencies": frequencies.tolist(),
    }


def pareto_oracle(request: dict[str, Any]) -> dict[str, Any]:
    """The in-process :func:`repro.api.pareto_sweep` result for a request."""
    return api.pareto_sweep(
        [CORES[name] for name in request["cores"]],
        AcceleratorParameters(**request["accelerator"]),
        request["fractions"],
        request["frequencies"],
    ).to_dict()


class ParetoStream(HTTPWorkload):
    """``pareto-stream``: one connection, one streamed sweep at a time."""

    name = "pareto-stream"
    rss_after_requests = 8

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._requests: dict[int, dict[str, Any]] = {}
        self._oracle: dict[int, dict[str, Any]] = {}
        self._chunk_hits = 0
        self._chunk_misses = 0
        self.properties: dict[str, Any] = {}

    def busy_s(self, run: Pass) -> float:
        """Seconds inside the sweeps: with one connection, the loop's time
        less the client's own work between them."""
        return sum(op.latency_s for op in run.good)

    def request(self, index: int) -> dict[str, Any]:
        """The sweep of request ``index``: a distinct lattice per request."""
        if index not in self._requests:
            self._requests[index] = sweep_request(f"pareto/{self.seed}/{index}")
        return self._requests[index]

    def warm_up(self) -> None:
        """One small sweep with an accelerator the timed traffic never uses."""
        request = sweep_request(
            f"pareto-warmup/{self.seed}", axis=20, cores=("a72",),
            acceleration=(1.2, 1.8),
        )
        _, status, lines = self._stream(-1, json.dumps(request).encode("utf-8"))
        if status != 200 or not lines or b'"summary"' not in lines[-1]:
            raise RuntimeError(f"warm-up sweep failed: HTTP {status}")

    def run(
        self, seconds: float | None = None, count: int | None = None,
        traced: bool = False,
    ) -> Pass:
        """One closed-loop pass, then the oracle check of every stream."""
        run = Pass()
        host = HostSpeed(self.cpus)
        streams = []
        self._chunk_hits = self._chunk_misses = 0
        self._rss_mb = None
        started = perf_counter()
        index = 0
        while (count is None or index < count) and (
            seconds is None or perf_counter() - started < seconds
        ):
            body = json.dumps(self.request(index)).encode("utf-8")
            before = self.server.metrics() if traced else None
            host.maybe_probe()
            op, status, lines = self._stream(index, body)
            run.ops.append(op)
            streams.append((op, status, lines))
            if traced:
                self._layers(op, body, before)
            index += 1
            self.mark_rss(index)
        run.elapsed_s = perf_counter() - started
        cached = chunks = 0
        for op, status, lines in streams:
            try:
                records = self._check(op.index, status, lines)
            except (ValueError, KeyError, TypeError) as exc:
                run.fail(op, f"request {op.index}: {exc}")
                continue
            op.work = records[-1]["summary"]["total_points"]
            chunks += len(records) - 1
            cached += sum(record["cached"] for record in records[:-1])
        self.properties = {"chunk_hit_ratio": cached / chunks if chunks else 0.0}
        host.normalize(run)
        return run

    def layer_extras(self, traced: Pass) -> dict[str, float]:
        """The chunk-cache hit ratio the server counted (expected 0)."""
        looked_up = self._chunk_hits + self._chunk_misses
        return {
            "serve.stream.cache_hit_ratio": self._chunk_hits / looked_up
            if looked_up else 0.0
        }

    def _stream(self, index: int, body: bytes) -> tuple[Op, int | None, list[bytes]]:
        """Send one sweep and read its NDJSON records as they arrive.

        A transport error leaves the status ``None``; the check fails it.
        """
        conn = self.server.connection(timeout=60.0)
        lines: list[bytes] = []
        status = None
        first = None
        started = perf_counter()
        try:
            conn.request("POST", "/sweep", body=body, headers=HEADERS)
            response = conn.getresponse()
            while line := response.readline():
                if first is None:
                    first = perf_counter()
                lines.append(line)
            status = response.status
        except (OSError, HTTPException):
            pass
        finally:
            conn.close()
        done = perf_counter()
        return Op(index, started, done - started, (first or done) - started), status, lines

    def _check(self, index: int, status: int | None, lines: list[bytes]) -> list[dict]:
        """A complete stream whose frontier equals api.pareto_sweep's."""
        if status != 200:
            raise ValueError(f"HTTP {status}" if status else "transport error")
        if not lines:
            raise ValueError("empty response")
        if not all(line.endswith(b"\n") for line in lines):
            raise ValueError("truncated NDJSON stream")
        records = [strict_json(line) for line in lines]
        summary = records[-1]["summary"]
        request = self.request(index)
        points = (
            len(request["cores"]) * len(MODES)
            * len(request["fractions"]) * len(request["frequencies"])
        )
        streamed = sum(record["lattice_points"] for record in records[:-1])
        if summary["total_points"] != points or streamed != points:
            raise ValueError(f"stream covers {streamed} of {points} lattice points")
        if index not in self._oracle:
            self._oracle[index] = pareto_oracle(request)
        oracle = self._oracle[index]
        for key in ("frontier_size", "points_seen", "total_points"):
            if summary[key] != oracle[key]:
                raise ValueError(f"{key} {summary[key]} != api.pareto_sweep {oracle[key]}")
        if canonical(summary["frontier"]) != canonical(oracle["frontier"]):
            raise ValueError("frontier differs from api.pareto_sweep")
        return records

    def _layers(self, op: Op, body: bytes, before: dict[str, float]) -> None:
        """The server's evaluate timer, the client's stream timestamps, and
        the parse and sweep timed again in-process on the same request."""
        after = self.server.metrics()
        evaluate = after.get(EVALUATE_TIMER, 0.0) - before.get(EVALUATE_TIMER, 0.0)
        self._chunk_hits += int(after.get(CHUNK_HITS, 0) - before.get(CHUNK_HITS, 0))
        self._chunk_misses += int(
            after.get(CHUNK_MISSES, 0) - before.get(CHUNK_MISSES, 0)
        )
        with request_scope("perfbench.pareto-stream.in-process") as side:
            with span("serve.params.parse_pareto"):
                parse_pareto_sweep(json.loads(body))
            with span("core.pareto.sweep"):
                self._oracle[op.index] = pareto_oracle(self.request(op.index))
        parse, sweep = side.root.children
        after_first = op.latency_s - op.first_s
        op.layers = {
            "serve.params.parse_pareto": parse.duration_s,
            "core.pareto.sweep": sweep.duration_s,
            "serve.stream.evaluate": evaluate,
            "serve.stream.after_first": after_first,
        }
        first_at = op.started + op.first_s
        op.trace = client_trace(
            f"perfbench.{self.name}", None, op.started, op.latency_s,
            [
                timed_span("serve.stream.evaluate", first_at - evaluate, evaluate),
                timed_span("serve.stream.after_first", first_at, after_first),
            ],
        )
