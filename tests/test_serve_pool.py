"""Tests of the pre-forked worker pool (``repro-serve --workers N``).

The pool's contract is operational, so these tests exercise the real
thing: a ``repro-serve`` subprocess with ``--workers 2``, driven over
HTTP.  They pin the load-bearing behaviors — the shared listener serves
while workers come and go, a killed worker is respawned, SIGTERM drains
in-flight requests before the pool exits — plus the pure helpers
(atomic state files, state merging) without forking.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro.serve.pool import PoolMember, _read_json, _write_json_atomic

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="worker pools require os.fork"
)

EVALUATE_PAYLOAD = json.dumps(
    {
        "core": "a72",
        "accelerator": {"acceleration": 4.0},
        "workload": {"granularity": 100, "acceleratable_fraction": 0.4},
        "modes": ["L_T", "NL_NT"],
    }
).encode("utf-8")


def _spawn_pool(workers=2, extra_args=()):
    """A ``repro-serve --workers N`` subprocess on an ephemeral port.

    Workers flush their state file on every request: with the default
    0.25 s throttle, a scrape served by an idle worker can miss a busy
    sibling's counters (the workers share one accept queue, so one of
    them may take every request).
    """
    env = dict(os.environ, PYTHONPATH="src", REPRO_SERVE_REPORT_INTERVAL_S="0")
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


def _request(port, path, payload=None, timeout=30):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=payload,
        headers={} if payload is None else {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _terminate(proc, timeout=30):
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise


class TestStateFiles:
    def test_atomic_write_round_trips(self, tmp_path):
        path = str(tmp_path / "state.json")
        _write_json_atomic(path, {"pid": 42})
        assert _read_json(path) == {"pid": 42}
        # no leftover temp files from the write
        assert os.listdir(tmp_path) == ["state.json"]

    def test_read_missing_or_corrupt_is_none(self, tmp_path):
        assert _read_json(str(tmp_path / "nope.json")) is None
        bad = tmp_path / "bad.json"
        bad.write_text("{mid-replace garbag")
        assert _read_json(str(bad)) is None


class TestPoolServing:
    def test_pool_serves_and_reports_health(self):
        proc, port = _spawn_pool(workers=2)
        try:
            for _ in range(8):
                status, body = _request(port, "/evaluate", EVALUATE_PAYLOAD)
                assert status == 200
                assert body["results"][0]["speedups"]
            status, health = _request(port, "/healthz")
            assert status == 200
            pool = health["pool"]
            assert pool["size"] == 2
            assert len(pool["workers"]) == 2
            assert all(worker["alive"] for worker in pool["workers"])
            merged = pool["cache_merged"]["memory"]
            assert merged["hits"] + merged["misses"] > 0
        finally:
            assert _terminate(proc) == 0


def test_killed_worker_is_respawned_without_dropping_listener():
    proc, port = _spawn_pool(workers=2)
    try:
        _, health = _request(port, "/healthz")
        pids = {w["slot"]: w["pid"] for w in health["pool"]["workers"]}
        os.kill(pids[0], signal.SIGKILL)
        deadline = time.monotonic() + 30
        respawned = False
        while time.monotonic() < deadline:
            # the port must keep serving through the respawn window: the
            # surviving worker drains the one shared accept queue
            status, body = _request(port, "/evaluate", EVALUATE_PAYLOAD)
            assert status == 200
            _, health = _request(port, "/healthz")
            pool = health["pool"]
            slot0 = next(w for w in pool["workers"] if w["slot"] == 0)
            if slot0["pid"] != pids[0] and slot0["alive"]:
                assert pool["restarts"]["0"] == 1
                respawned = True
                break
            time.sleep(0.2)
        assert respawned, "slot 0 was never respawned"
    finally:
        assert _terminate(proc) == 0


def test_sigterm_drains_in_flight_requests():
    """A request racing SIGTERM still gets its 200 before the pool exits."""
    proc, port = _spawn_pool(workers=2)
    # enough work per request to keep it in flight while SIGTERM lands
    big = json.dumps(
        {
            "queries": [
                {
                    "core": "a72",
                    "accelerator": {"acceleration": float(3 + i % 7)},
                    "workload": {
                        "granularity": 10.0 + i,
                        "acceleratable_fraction": 0.5,
                    },
                }
                for i in range(4000)
            ]
        }
    ).encode("utf-8")
    outcomes = []

    def fire():
        try:
            outcomes.append(_request(port, "/evaluate", big)[0])
        except Exception as exc:  # pragma: no cover - failure detail
            outcomes.append(exc)

    threads = [threading.Thread(target=fire) for _ in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.2)  # let the requests reach the workers
    code = _terminate(proc)
    for thread in threads:
        thread.join(timeout=30)
    assert code == 0
    assert len(outcomes) == 4
    # every request either completed with 200 (accepted, then drained) or
    # was reset/refused while still sitting unaccepted in the listen
    # backlog when SIGTERM closed the listener — none may die mid-flight
    # after acceptance.  The head start means at most one straggler can
    # miss acceptance, so demand ≥3 drained 200s and nothing but
    # 200/pre-acceptance outcomes.
    drained = [o for o in outcomes if o == 200]
    pre_accept = [
        o
        for o in outcomes
        if isinstance(o, (ConnectionError, urllib.error.URLError))
    ]
    assert len(drained) + len(pre_accept) == 4, outcomes
    assert len(drained) >= 3, outcomes


@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_closes_idle_kept_alive_connections(workers):
    """An idle persistent connection must not hold the drain open."""
    proc, port = _spawn_pool(workers=workers)
    conn = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        for _ in range(2):
            conn.request(
                "POST", "/evaluate", body=EVALUATE_PAYLOAD,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            response.read()
        assert not response.will_close  # the connection stays open, idle
        started = time.monotonic()
        assert _terminate(proc, timeout=5) == 0
        assert time.monotonic() - started < 5
    finally:
        conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_single_worker_flag_stays_single_process():
    """``--workers 1`` keeps the portable single-process path (no pool)."""
    proc, port = _spawn_pool(workers=1)
    try:
        status, health = _request(port, "/healthz")
        assert status == 200
        assert "pool" not in health
    finally:
        assert _terminate(proc) == 0


def test_pool_member_merges_worker_states(tmp_path):
    """healthz merging sums cache counters over every worker's report."""

    class FakeCache:
        def stats(self):
            return {
                "memory": {
                    "hits": 3,
                    "misses": 1,
                    "evictions": 0,
                    "entries": 2,
                },
            }

    class FakeApp:
        cache = FakeCache()

    _write_json_atomic(
        str(tmp_path / "pool.json"),
        {
            "workers": 2,
            "supervisor_pid": os.getpid(),
            "pids": {"0": os.getpid(), "1": os.getpid()},
            "restarts": {"0": 0, "1": 0},
        },
    )
    member = PoolMember(str(tmp_path), slot=0, app=FakeApp())
    member.requests = 5
    other = PoolMember(str(tmp_path), slot=1, app=FakeApp())
    other.requests = 7
    other.report(force=True)
    health = member.healthz()
    assert health["size"] == 2
    assert health["requests"] == 12
    assert health["cache_merged"]["memory"]["hits"] == 6
    assert set(health["cache_merged"]) == {"memory"}
    assert [w["alive"] for w in health["workers"]] == [True, True]
    # per-worker runtime vitals ride along in each worker entry
    slot1 = next(w for w in health["workers"] if w["slot"] == 1)
    assert slot1["uptime_s"] >= 0
    assert slot1["last_request_ts"] is None  # never served a request


def test_pool_member_state_file_carries_metrics_and_vitals(tmp_path):
    """Worker reports embed a full metrics snapshot plus uptime and the
    last-request wall-clock stamp — the inputs to pool-wide /metrics."""

    class FakeCache:
        def stats(self):
            return {"memory": {"hits": 0, "misses": 0, "evictions": 0,
                               "entries": 0}}

    class FakeApp:
        cache = FakeCache()

    member = PoolMember(str(tmp_path), slot=0, app=FakeApp())
    member.after_request()
    state = _read_json(member._state_path(0))
    assert state["uptime_s"] >= 0
    assert state["last_request_unix"] == pytest.approx(time.time(), abs=60)
    metrics = state["metrics"]
    assert set(metrics) >= {"counters", "gauges", "timers", "histograms"}
    assert "info" not in metrics  # provenance blobs stay out of reports


def test_pool_member_merged_metrics_sums_worker_snapshots(tmp_path):
    """merged_metrics folds every slot's snapshot into one registry."""
    from repro.obs.metrics import MetricsRegistry

    class FakeCache:
        def stats(self):
            return {"memory": {"hits": 0, "misses": 0, "evictions": 0,
                               "entries": 0}}

    class FakeApp:
        cache = FakeCache()

    _write_json_atomic(
        str(tmp_path / "pool.json"),
        {
            "workers": 2,
            "supervisor_pid": os.getpid(),
            "pids": {"0": os.getpid(), "1": os.getpid()},
            "restarts": {"0": 0, "1": 0},
        },
    )
    other_registry = MetricsRegistry()
    other_registry.counter("serve.requests.evaluate").inc(3)
    other_registry.histogram("serve.latency.evaluate").observe(0.05)
    other_state = {
        "slot": 1,
        "pid": os.getpid(),
        "requests": 3,
        "metrics": other_registry.snapshot(),
        "updated_unix": time.time(),
    }
    _write_json_atomic(str(tmp_path / "worker-1.json"), other_state)

    member = PoolMember(str(tmp_path), slot=0, app=FakeApp())
    from repro.obs.metrics import get_registry

    own = get_registry()
    evaluate_before = own.counter("serve.requests.evaluate").value
    own.counter("serve.requests.evaluate").inc(2)
    own.histogram("serve.latency.evaluate").observe(0.1)
    try:
        merged = member.merged_metrics()
    finally:
        # undo the bleed into the shared process registry
        own.counter("serve.requests.evaluate").value = evaluate_before
    assert (
        merged.counter("serve.requests.evaluate").value
        == evaluate_before + 2 + 3
    )
    histogram = merged.histogram("serve.latency.evaluate")
    assert histogram.count >= 2
    assert histogram.min <= 0.05 and histogram.max >= 0.1
