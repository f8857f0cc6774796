"""Tests of the zero-copy shared caches (:mod:`repro.serve.shm`).

Two layers: the :class:`SharedBlobStore` data structure in-process
(publish/probe protocol, probe bounds, capacity rejection, counters),
and the pool lifecycle against a real ``repro-serve --workers 2``
subprocess — segments created before fork, inherited by respawns after
``SIGKILL``, unlinked on drain, and never created in single-worker
mode.  The lifecycle tests are the operational contract of the
supervisor-owns-the-segment design: a worker death of any kind must
neither leak nor lose the shared state.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.obs.metrics import get_registry
from repro.serve.cache import MISS, DiskCache, EvaluationCache
from repro.serve.shm import (
    PoolSharedState,
    SharedBlobStore,
    pickle_blob,
    unpickle_blob,
)

pytestmark = pytest.mark.skipif(
    os.name != "posix", reason="shared segments ride across os.fork"
)


@pytest.fixture
def store():
    s = SharedBlobStore.create(256 * 1024, 64, "test")
    yield s
    s.destroy()


class TestSharedBlobStore:
    def test_round_trip(self, store):
        assert store.get("missing") is None
        assert store.put("k", b"payload")
        assert store.get("k") == b"payload"

    def test_put_of_existing_key_is_a_noop(self, store):
        assert store.put("k", b"first")
        assert not store.put("k", b"second")
        assert store.get("k") == b"first"

    def test_oversized_blob_rejected(self, store):
        cap = store.stats()["data_cap"]
        assert not store.put("big", b"x" * (cap + 1))
        assert store.stats()["put_rejects"] == 1
        # the reject reserved nothing: a fitting blob still lands
        assert store.put("ok", b"y")

    def test_slab_fills_then_rejects(self, store):
        cap = store.stats()["data_cap"]
        chunk = cap // 4
        stored = sum(
            1 for i in range(8) if store.put(f"k{i}", bytes(chunk))
        )
        assert stored == 4  # exactly the slab capacity
        stats = store.stats()
        assert stats["entries"] == 4
        assert stats["put_rejects"] == 4
        assert stats["data_used"] == 4 * chunk

    def test_index_probe_window_bounds_occupancy(self):
        # With more keys than index slots, puts beyond the probe window
        # reject instead of scanning the whole table — and every stored
        # key remains retrievable through the same bounded probe.
        s = SharedBlobStore.create(1024 * 1024, 16, "bound")
        try:
            stored = [k for k in (f"k{i}" for i in range(64)) if s.put(k, b"v")]
            assert len(stored) == 16  # table full, the rest rejected
            assert s.stats()["put_rejects"] == 48
            for key in stored:
                assert s.get(key) == b"v"
        finally:
            s.destroy()

    def test_values_survive_many_keys(self, store):
        blobs = {f"key-{i}": bytes([i]) * (i + 1) for i in range(32)}
        for key, blob in blobs.items():
            assert store.put(key, blob)
        for key, blob in blobs.items():
            assert store.get(key) == blob

    def test_counters_and_stats(self, store):
        store.put("a", b"1")
        store.get("a")
        store.get("nope")
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["puts"] == 1
        assert stats["lock_timeouts"] == 0
        assert stats["name"] == store.name

    def test_mark_attached_once_per_process(self, store):
        store.mark_attached()
        store.mark_attached()
        assert store.stats()["attaches_total"] == 1

    def test_registry_counters_mirrored(self, store):
        get_registry().reset()
        store.put("a", b"1")
        store.get("a")
        store.get("nope")
        counters = get_registry().snapshot()["counters"]
        assert counters["serve.shm.test.puts"] == 1
        assert counters["serve.shm.test.hits"] == 1
        assert counters["serve.shm.test.misses"] == 1

    def test_lock_timeout_degrades_to_miss(self, store):
        store.lock_timeout_s = 0.05
        store._lock.acquire()  # simulate a stuck holder
        try:
            assert store.get("k") is None
            assert not store.put("k", b"v")
            assert store.stats()["lock_timeouts"] == 2
        finally:
            store._lock.release()

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            SharedBlobStore.create(64, 8, "tiny")  # no room for a slab
        with pytest.raises(ValueError):
            SharedBlobStore.create(1024 * 1024, 0, "noslots")


class TestPoolSharedState:
    def test_create_attach_stats_destroy(self):
        state = PoolSharedState.create(4 * 1024 * 1024)
        try:
            state.attach_worker()
            stats = state.stats()
            assert stats["traces"]["attaches_total"] == 1
            assert stats["results"]["attaches_total"] == 1
            assert stats["traces"]["data_cap"] > 0
            for store in (state.traces, state.results):
                assert os.path.exists(f"/dev/shm/{store.name}")
        finally:
            names = [state.traces.name, state.results.name]
            state.destroy()
        for name in names:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError):
            PoolSharedState.create(1024)

    def test_pickle_helpers_round_trip(self):
        value = {"stats": {"cycles": 12.0}, "sampling": None}
        assert unpickle_blob(pickle_blob(value)) == value


class TestEvaluationCacheSharedTier:
    """Two caches over one store model two workers of a pool."""

    def _pair(self, store, **kwargs):
        return (
            EvaluationCache(shared=store, **kwargs),
            EvaluationCache(shared=store, **kwargs),
        )

    def test_cross_cache_hit_and_promotion(self, store):
        a, b = self._pair(store)
        a.put("key", {"x": 1.5})
        assert b.get("key") == {"x": 1.5}
        assert store.hits == 1
        # promoted into b's memory: the second get never touches shm
        assert b.get("key") == {"x": 1.5}
        assert store.hits == 1
        assert b.stats()["shared"]["hits"] == 1

    def test_get_many_probes_shared_tier(self, store):
        a, b = self._pair(store)
        a.put_many([("k1", 1), ("k2", 2)])
        values = b.get_many(["k1", "k2", "k3"])
        assert values == [1, 2, MISS]
        assert b.memory.get("k1") == 1  # promoted

    def test_disk_hits_are_published_to_shared(self, store, tmp_path):
        disk = DiskCache(root=str(tmp_path), fsync=False)
        a = EvaluationCache(shared=store, disk=disk)
        disk.put("key", {"v": 2})
        assert a.get("key") == {"v": 2}
        # the disk promotion published the value for sibling workers
        fresh = EvaluationCache(shared=store)
        assert fresh.get("key") == {"v": 2}

    def test_stats_carry_the_shared_block(self, store):
        cache = EvaluationCache(shared=store)
        assert cache.stats()["shared"]["tag"] == "test"
        assert EvaluationCache().stats()["shared"] is None


# ---------------------------------------------------------------------------
# Pool lifecycle, against the real pre-forked service.
# ---------------------------------------------------------------------------

EVALUATE_PAYLOAD = json.dumps(
    {
        "core": "a72",
        "accelerator": {"acceleration": 4.0},
        "workload": {"granularity": 100, "acceleratable_fraction": 0.4},
    }
).encode("utf-8")


def _spawn_pool(workers=2, extra_args=()):
    env = dict(
        os.environ,
        PYTHONPATH="src",
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
    finally:
        proc.stdout.close()


def _segment_names(healthz):
    shared = healthz["shared"]
    return shared["traces"]["name"], shared["results"]["name"]


def test_pool_shares_segments_and_unlinks_on_drain():
    proc, port = _spawn_pool()
    try:
        _, body = _request(port, "/evaluate", EVALUATE_PAYLOAD)
        assert body["cache"]["shared"] is not None
        _, health = _request(port, "/healthz")
        names = _segment_names(health)
        for name in names:
            assert os.path.exists(f"/dev/shm/{name}")
        # both initial workers attached the supervisor-created segments
        assert health["shared"]["traces"]["attaches_total"] == 2
    finally:
        code = _terminate(proc)
    assert code == 0
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}"), f"leaked {name}"


def test_killed_worker_respawn_reattaches_without_leaking():
    proc, port = _spawn_pool()
    try:
        _, health = _request(port, "/healthz")
        names = _segment_names(health)
        victim = next(w["pid"] for w in health["pool"]["workers"] if w["alive"])
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        attaches = 0
        while time.monotonic() < deadline:
            time.sleep(0.25)
            try:
                _, health = _request(port, "/healthz", timeout=5)
            except Exception:
                continue
            attaches = health["shared"]["traces"]["attaches_total"]
            if attaches >= 3:
                break
        # the respawned worker (forked from the supervisor) re-attached
        assert attaches >= 3
        # ... to the *same* segments: nothing leaked, nothing recreated
        assert _segment_names(health) == names
        for name in names:
            assert os.path.exists(f"/dev/shm/{name}")
    finally:
        code = _terminate(proc)
    assert code == 0
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}"), f"leaked {name}"


def test_single_worker_mode_stays_shm_free():
    proc, port = _spawn_pool(workers=1)
    try:
        _, health = _request(port, "/healthz")
        assert "shared" not in health
        assert health["cache"]["shared"] is None
    finally:
        _terminate(proc)


def test_shared_mem_bytes_zero_disables_the_segments():
    proc, port = _spawn_pool(extra_args=("--shared-mem-bytes", "0"))
    try:
        _, health = _request(port, "/healthz")
        assert "shared" not in health
        assert health["cache"]["shared"] is None
    finally:
        code = _terminate(proc)
    assert code == 0
