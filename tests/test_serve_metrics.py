"""End-to-end serving telemetry: /metrics, request traces, slow-request
log, and pool-wide aggregation.

The single-process tests run an in-process server over a real socket;
the pool tests drive a ``repro-serve --workers 2`` subprocess, because
pool-wide aggregation (merging per-worker state files) only exists
across real forked workers.
"""

import json
import logging
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from test_obs_prometheus import assert_valid_exposition

from repro.serve.service import (
    PROMETHEUS_CONTENT_TYPE,
    ServeApp,
    default_slow_request_s,
    make_server,
)

EVALUATE_QUERY = {
    "core": "a72",
    "accelerator": {"acceleration": 3.0},
    "workload": {"granularity": 53, "acceleratable_fraction": 0.3},
}


@pytest.fixture(scope="module")
def server_port():
    server = make_server(port=0, app=ServeApp())
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield port
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _request(port, path, payload=None, headers=None):
    """(status, headers, raw body bytes) for one request."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, server_port):
        status, _, _ = _request(server_port, "/evaluate", EVALUATE_QUERY)
        assert status == 200
        status, headers, body = _request(server_port, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        page = body.decode("utf-8")
        assert_valid_exposition(page)
        assert "repro_serve_requests_evaluate_total" in page
        # the per-endpoint latency histogram renders as cumulative
        # buckets ending in +Inf, plus _sum/_count
        assert re.search(
            r'repro_serve_latency_evaluate_bucket\{le="\+Inf"\} \d+', page
        )
        assert "repro_serve_latency_evaluate_count" in page
        assert "repro_serve_latency_evaluate_sum" in page

    def test_scrape_moves_request_counter(self, server_port):
        def counter(page):
            match = re.search(
                r"^repro_serve_requests_metrics_total (\d+)$", page, re.M
            )
            return int(match.group(1)) if match else 0

        first = counter(_request(server_port, "/metrics")[2].decode())
        second = counter(_request(server_port, "/metrics")[2].decode())
        assert second == first + 1


class TestRequestId:
    def test_generated_id_echoed_on_every_response(self, server_port):
        _, headers, _ = _request(server_port, "/evaluate", EVALUATE_QUERY)
        rid = headers["X-Request-Id"]
        assert len(rid) == 16
        int(rid, 16)

    def test_client_supplied_id_honored(self, server_port):
        _, headers, _ = _request(
            server_port,
            "/evaluate",
            EVALUATE_QUERY,
            headers={"X-Request-Id": "feedface00000001"},
        )
        assert headers["X-Request-Id"] == "feedface00000001"

    def test_error_responses_carry_the_id_too(self, server_port):
        status, headers, _ = _request(
            server_port,
            "/evaluate",
            {"core": "no-such-core"},
            headers={"X-Request-Id": "feedface00000002"},
        )
        assert status == 400
        assert headers["X-Request-Id"] == "feedface00000002"


class TestDebugTrace:
    def test_opt_in_only(self, server_port):
        _, _, body = _request(server_port, "/evaluate", EVALUATE_QUERY)
        assert "trace" not in json.loads(body)

    def test_trace_tree_structure(self, server_port):
        _, headers, body = _request(
            server_port, "/evaluate?debug=trace", EVALUATE_QUERY
        )
        payload = json.loads(body)
        trace = payload["trace"]
        assert trace["request_id"] == headers["X-Request-Id"]
        root = trace["root"]
        assert root["name"] == "serve.evaluate"
        assert root["duration_s"] > 0
        names = {child["name"] for child in root["children"]}
        assert "serve.read_body" in names
        assert "serve.evaluate.parse" in names
        assert "serve.batch" in names
        # batch phases nest under serve.batch
        batch = next(
            c for c in root["children"] if c["name"] == "serve.batch"
        )
        sub = {child["name"] for child in batch.get("children", [])}
        assert "serve.batch.partition" in sub
        assert "serve.batch.evaluate" in sub

    def test_root_covers_measured_wall_time(self):
        # the acceptance bar: the root span accounts for >= 95% of the
        # server's own wall time for the request, from dispatch to the
        # last byte written, which the server reports through its
        # after_response hook.  A ~5k-query batch makes the handler
        # dominate the socket write by a wide margin.
        server = make_server(port=0, app=ServeApp())
        reported = {}
        written = threading.Event()

        def after_response(request_id, seconds):
            reported[request_id] = seconds
            written.set()

        server.after_response = after_response
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        payload = {
            "queries": [
                {
                    "core": "a72",
                    "accelerator": {"acceleration": float(3 + i % 7)},
                    "workload": {
                        "granularity": 10.0 + i,
                        "acceleratable_fraction": 0.5,
                    },
                }
                for i in range(5000)
            ]
        }
        try:
            _, headers, body = _request(
                server.server_address[1],
                "/evaluate?debug=trace",
                payload,
                headers={"X-Request-Id": "root-coverage"},
            )
            assert written.wait(timeout=60)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert headers["X-Request-Id"] == "root-coverage"
        trace = json.loads(body)["trace"]
        names = {child["name"] for child in trace["root"]["children"]}
        assert "serve.encode" in names
        assert trace["root"]["duration_s"] >= 0.95 * reported["root-coverage"]

    def test_simulate_trace_includes_sim_run(self, server_port):
        import io

        from repro.isa.instructions import TCADescriptor
        from repro.isa.trace import TraceBuilder
        from repro.isa.trace_io import dump_trace

        builder = TraceBuilder("metrics-trace")
        builder.independent_block(40, [0, 1, 2, 3])
        builder.tca(
            TCADescriptor(
                name="t", compute_latency=10, replaced_instructions=50
            )
        )
        buffer = io.StringIO()
        dump_trace(builder.build(), buffer)
        _, _, body = _request(
            server_port,
            "/simulate?debug=trace",
            {"trace": buffer.getvalue(), "config": "a72"},
        )
        trace = json.loads(body)["trace"]
        names = [
            node["name"]
            for node in _walk(trace["root"])
        ]
        assert "serve.simulate.run" in names
        assert "sim.run" in names  # the simulator's span joined the tree


def _walk(node):
    yield node
    for child in node.get("children", []):
        yield from _walk(child)


class TestHealthzLatency:
    def test_percentile_summaries_per_endpoint(self, server_port):
        _request(server_port, "/evaluate", EVALUATE_QUERY)
        _, _, body = _request(server_port, "/healthz")
        latency = json.loads(body)["latency"]
        assert "evaluate" in latency
        block = latency["evaluate"]
        assert block["count"] >= 1
        assert 0 < block["p50"] <= block["p99"]


class TestSlowRequestLog:
    def test_threshold_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_REQUEST_S", "0.25")
        assert default_slow_request_s() == 0.25
        monkeypatch.setenv("REPRO_SLOW_REQUEST_S", "not-a-number")
        assert default_slow_request_s() == 1.0
        monkeypatch.delenv("REPRO_SLOW_REQUEST_S")
        assert default_slow_request_s() == 1.0

    def test_slow_request_logged_with_request_id(self):
        # threshold 0 -> every request is "slow"; capture the structured
        # record straight off the repro.serve.slow logger
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = _Capture(level=logging.WARNING)
        slow_logger = logging.getLogger("repro.serve.slow")
        slow_logger.addHandler(handler)
        server = make_server(port=0, app=ServeApp(), slow_request_s=0.0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            _request(
                port,
                "/evaluate",
                EVALUATE_QUERY,
                headers={"X-Request-Id": "feedface00000003"},
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            slow_logger.removeHandler(handler)
        slow = [m for m in records if m.startswith("slow request ")]
        assert slow, records
        record = json.loads(slow[0][len("slow request "):])
        assert record["request_id"] == "feedface00000003"
        assert record["name"] == "serve.evaluate"
        assert record["duration_s"] > 0
        assert all({"name", "duration_s"} <= set(s) for s in record["spans"])

    def test_fast_requests_not_logged_by_default(self):
        records = []

        class _Capture(logging.Handler):
            def emit(self, record):
                records.append(record.getMessage())

        handler = _Capture(level=logging.WARNING)
        slow_logger = logging.getLogger("repro.serve.slow")
        slow_logger.addHandler(handler)
        server = make_server(port=0, app=ServeApp())  # 1s default threshold
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            _request(port, "/evaluate", EVALUATE_QUERY)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            slow_logger.removeHandler(handler)
        assert not [m for m in records if m.startswith("slow request ")]


# --- pool-wide aggregation (real forked workers) ----------------------

pool_only = pytest.mark.skipif(
    os.name != "posix", reason="worker pools require os.fork"
)


def _spawn_pool(workers=2, extra_args=()):
    env = dict(
        os.environ,
        PYTHONPATH="src",
        # no report throttling: every request lands in the worker's
        # state file immediately, so the scrape sees all of them
        REPRO_SERVE_REPORT_INTERVAL_S="0",
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve.service",
            "--port",
            "0",
            "--workers",
            str(workers),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    banner = proc.stdout.readline()
    assert "repro-serve listening on" in banner, banner
    port = int(banner.split("http://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
    return proc, port


def _terminate(proc, timeout=30):
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise


@pool_only
def test_pool_metrics_aggregates_across_workers():
    """One /metrics scrape must account for every worker's requests."""
    proc, port = _spawn_pool(workers=2)
    try:
        for _ in range(8):
            status, _, _ = _request(port, "/evaluate", EVALUATE_QUERY)
            assert status == 200
        status, headers, body = _request(port, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        page = body.decode("utf-8")
        assert_valid_exposition(page)
        # pool-wide counter: all 8 evaluates, regardless of which worker
        # served the scrape
        match = re.search(
            r"^repro_serve_requests_evaluate_total (\d+)$", page, re.M
        )
        assert match, page
        assert int(match.group(1)) == 8
        # pool-wide histogram: the per-endpoint latency series sums to 8
        # samples across the merged worker registries
        count = re.search(
            r"^repro_serve_latency_evaluate_count (\d+)$", page, re.M
        )
        assert count and int(count.group(1)) == 8, page
        inf_bucket = re.search(
            r'^repro_serve_latency_evaluate_bucket\{le="\+Inf"\} (\d+)$',
            page,
            re.M,
        )
        assert inf_bucket and int(inf_bucket.group(1)) == 8
        # cumulative within the series
        buckets = [
            int(v)
            for v in re.findall(
                r'^repro_serve_latency_evaluate_bucket\{le="[^"]+"\} (\d+)$',
                page,
                re.M,
            )
        ]
        assert buckets == sorted(buckets)
    finally:
        assert _terminate(proc) == 0


@pool_only
def test_pool_healthz_reports_worker_uptime_and_last_request():
    proc, port = _spawn_pool(workers=2)
    try:
        before = time.time()
        for _ in range(4):
            assert _request(port, "/evaluate", EVALUATE_PAYLOAD_OK)[0] == 200
        _, _, body = _request(port, "/healthz")
        pool = json.loads(body)["pool"]
        assert len(pool["workers"]) == 2
        for worker in pool["workers"]:
            assert worker["uptime_s"] is None or worker["uptime_s"] >= 0
        # at least one worker served a request just now
        stamps = [
            w["last_request_ts"]
            for w in pool["workers"]
            if w.get("last_request_ts")
        ]
        assert stamps
        assert max(stamps) >= before - 60  # sane wall-clock stamp
    finally:
        assert _terminate(proc) == 0


EVALUATE_PAYLOAD_OK = EVALUATE_QUERY


@pool_only
def test_pool_slow_log_lands_in_stderr():
    """--slow-request-s 0 makes every pooled request emit a parseable
    slow-request record (the repro-obs tail-slow input format)."""
    from repro.obs.cli import parse_slow_records

    proc, port = _spawn_pool(
        workers=2, extra_args=("--slow-request-s", "0")
    )
    try:
        status, headers, _ = _request(
            port,
            "/evaluate",
            EVALUATE_QUERY,
            headers={"X-Request-Id": "feedface00000004"},
        )
        assert status == 200
    finally:
        code = _terminate(proc)
    output = proc.stdout.read()
    assert code == 0
    records = parse_slow_records(output.splitlines())
    assert any(r["request_id"] == "feedface00000004" for r in records), output
