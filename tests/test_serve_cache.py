"""Tests of the memoization layer: keys and LRU semantics.

The cache is only safe to rely on if its keys are *reproducible* (across
processes, hash seeds, restarts) and its bounds actually bound — these
tests pin both, plus thread safety under concurrent hammering.
"""

import json
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.core.drain import BalancedWindowDrain, ExplicitDrain, PowerLawDrain
from repro.core.model import TCAModel
from repro.core.modes import TCAMode
from repro.core.parameters import (
    ARM_A72,
    AcceleratorParameters,
    CoreParameters,
    WorkloadParameters,
)
from repro.serve import keys
from repro.serve.cache import (
    MISS,
    EvaluationCache,
    LRUCache,
)
from repro.serve.keys import (
    canonical_json,
    drain_config,
    evaluation_group_key,
    evaluation_key,
    schema_tag,
    sha256_key,
)
from repro.serve.service import ServeApp


ACCEL = AcceleratorParameters(name="t", acceleration=3.0)
WORKLOAD = WorkloadParameters.from_granularity(53, acceleratable_fraction=0.3)


class TestKeys:
    def test_key_is_group_digest_plus_workload_suffix(self):
        """Evaluation keys are (sha256-hex group digest, a, v, drain)."""
        key = evaluation_key(ARM_A72, ACCEL, WORKLOAD, TCAMode.L_T)
        digest, a, v, drain = key
        assert len(digest) == 64
        int(digest, 16)  # hex
        assert digest == evaluation_group_key(ARM_A72, ACCEL, TCAMode.L_T)
        assert (a, v, drain) == (
            WORKLOAD.acceleratable_fraction,
            WORKLOAD.invocation_frequency,
            None,
        )

    def test_group_digest_amortizes_over_workloads(self):
        """Different workloads share the (expensive) group digest."""
        other = WorkloadParameters.from_granularity(
            200, acceleratable_fraction=0.7
        )
        key1 = evaluation_key(ARM_A72, ACCEL, WORKLOAD, TCAMode.L_T)
        key2 = evaluation_key(ARM_A72, ACCEL, other, TCAMode.L_T)
        assert key1[0] == key2[0]
        assert key1 != key2

    def test_key_depends_on_every_input(self):
        base = evaluation_key(ARM_A72, ACCEL, WORKLOAD, TCAMode.L_T)
        variants = [
            evaluation_key(ARM_A72.with_ipc(2.0), ACCEL, WORKLOAD, TCAMode.L_T),
            evaluation_key(
                ARM_A72,
                AcceleratorParameters(name="t", acceleration=4.0),
                WORKLOAD,
                TCAMode.L_T,
            ),
            evaluation_key(
                ARM_A72,
                ACCEL,
                WorkloadParameters.from_granularity(
                    100, acceleratable_fraction=0.3
                ),
                TCAMode.L_T,
            ),
            evaluation_key(ARM_A72, ACCEL, WORKLOAD, TCAMode.NL_NT),
            evaluation_key(
                ARM_A72, ACCEL, WORKLOAD, TCAMode.L_T, ExplicitDrain(40.0)
            ),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_display_names_do_not_split_the_cache(self):
        renamed = AcceleratorParameters(name="other-name", acceleration=3.0)
        assert evaluation_key(
            ARM_A72, ACCEL, WORKLOAD, TCAMode.L_T
        ) == evaluation_key(ARM_A72, renamed, WORKLOAD, TCAMode.L_T)

    def test_default_drain_matches_explicit_power_law(self):
        assert evaluation_key(
            ARM_A72, ACCEL, WORKLOAD, TCAMode.NL_T
        ) == evaluation_key(
            ARM_A72, ACCEL, WORKLOAD, TCAMode.NL_T, PowerLawDrain()
        )

    def test_group_digest_memo_matches_unmemoized_digest(self, monkeypatch):
        class ListDrain(PowerLawDrain):
            def cache_config(self):
                return {**super().cache_config(), "fits": [3, 3.0]}

        def unmemoized(core, accelerator, mode, drain):
            return sha256_key(
                {
                    "kind": "evaluate",
                    "schema": schema_tag(),
                    "core": core.to_canonical_dict(),
                    "accelerator": accelerator.to_canonical_dict(),
                    "mode": mode.value,
                    "drain": drain_config(drain),
                }
            )

        # Values equal under Python equality whose canonical JSON differs.
        groups = [
            (core, accelerator, TCAMode.NL_T, drain)
            for core in (
                CoreParameters(1.1, 128, 3, 0.0),
                CoreParameters(1.1, 128, 3, -0.0),
                CoreParameters(3, 128, 3, 4.0),
                CoreParameters(3.0, 128.0, 3, 4),
            )
            for accelerator in (
                AcceleratorParameters(latency=0.0),
                AcceleratorParameters(latency=-0.0),
                AcceleratorParameters(acceleration=3),
                AcceleratorParameters(acceleration=3.0),
            )
            for drain in (
                None,
                ExplicitDrain(40),
                ExplicitDrain(40.0),
                ExplicitDrain(0.0),
                ExplicitDrain(-0.0),
                BalancedWindowDrain(beta=1),
                BalancedWindowDrain(beta=True),
                ListDrain(),
            )
        ]
        monkeypatch.setattr(keys, "_group_digests", {})
        for _ in range(2):  # the second pass answers from the memo
            for group in groups:
                assert evaluation_group_key(*group) == unmemoized(*group)
        assert keys._group_digests
        # 3 cores x 3 accelerators x 8 drains canonicalize differently
        # (int and float core/accelerator fields are coerced alike).
        assert len({unmemoized(*group) for group in groups}) == 72

    def test_group_digest_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(keys, "_group_digests", {})
        for i in range(keys.GROUP_KEY_MEMO_SIZE + 10):
            accelerator = AcceleratorParameters(acceleration=1.0 + i)
            assert evaluation_group_key(
                ARM_A72, accelerator, TCAMode.L_T
            ) == evaluation_group_key(ARM_A72, accelerator, TCAMode.L_T)
        assert 0 < len(keys._group_digests) <= keys.GROUP_KEY_MEMO_SIZE

    def test_request_hashes_once_per_distinct_group_value(self, monkeypatch):
        # Every query of a request is parsed into new parameter objects;
        # the digest pass runs once per distinct group value.
        monkeypatch.setattr(keys, "_group_digests", {})
        digests = []
        monkeypatch.setattr(
            keys,
            "sha256_key",
            lambda payload: digests.append(payload) or sha256_key(payload),
        )
        values = [
            ("a72", {"acceleration": 3.0}, "L_T", None),
            (
                "hp",
                {"latency": 25.0},
                "NL_T",
                {"kind": "explicit", "cycles": 40.0},
            ),
            ("lp", {"acceleration": 8.0}, "NL_NT", {"kind": "balanced_window"}),
        ]
        payload = {
            "queries": [
                {
                    "core": core,
                    "accelerator": dict(accelerator),
                    "workload": {
                        "granularity": 10.0 + i,
                        "acceleratable_fraction": 0.5,
                    },
                    "modes": [mode],
                    "drain": None if drain is None else dict(drain),
                }
                for i in range(25)
                for core, accelerator, mode, drain in [values[i % 3]]
            ]
        }
        app = ServeApp()
        first = app.handle_evaluate(payload)
        assert len(digests) == len(values)
        again = app.handle_evaluate(json.loads(json.dumps(payload)))
        assert len(digests) == len(values)
        assert again["results"] == [
            {**result, "cached": True} for result in first["results"]
        ]

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'

    def test_key_stable_across_hash_seeds(self):
        """Keys must survive process restarts under any PYTHONHASHSEED."""
        program = textwrap.dedent(
            """
            from repro.core.modes import TCAMode
            from repro.core.parameters import (
                ARM_A72, AcceleratorParameters, WorkloadParameters,
            )
            from repro.serve.keys import evaluation_key
            print(repr(evaluation_key(
                ARM_A72,
                AcceleratorParameters(name="t", acceleration=3.0),
                WorkloadParameters.from_granularity(53, acceleratable_fraction=0.3),
                TCAMode.L_T,
            )))
            """
        )
        keys = set()
        for seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            keys.add(proc.stdout.strip())
        keys.add(repr(evaluation_key(ARM_A72, ACCEL, WORKLOAD, TCAMode.L_T)))
        assert len(keys) == 1, f"keys differ across processes: {keys}"


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(max_entries=4)
        assert cache.get("k") is MISS
        cache.put("k", 1.5)
        assert cache.get("k") == 1.5
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_none_is_storable(self):
        cache = LRUCache(max_entries=4)
        cache.put("k", None)
        assert cache.get("k") is None

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)

    def test_thread_safety_under_hammering(self):
        cache = LRUCache(max_entries=64)

        def hammer(worker: int) -> int:
            for i in range(500):
                key = f"k{(worker * 500 + i) % 100}"
                if cache.get(key) is MISS:
                    cache.put(key, key)
            return worker

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(hammer, range(8))) == list(range(8))
        stats = cache.stats()
        assert stats["entries"] <= 64
        assert stats["hits"] + stats["misses"] == 8 * 500

    def test_get_many_preserves_order_and_counts(self):
        cache = LRUCache(max_entries=8)
        cache.put("a", 1)
        cache.put("c", 3)
        values = cache.get_many(["a", "b", "c", "a"])
        assert values[0] == 1 and values[2] == 3 and values[3] == 1
        assert values[1] is MISS
        stats = cache.stats()
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_get_many_on_empty_cache_is_all_misses(self):
        cache = LRUCache(max_entries=8)
        assert cache.get_many(["x", "y"]) == [MISS, MISS]
        assert cache.stats()["misses"] == 2

    def test_put_many_bounds_and_refreshes(self):
        cache = LRUCache(max_entries=3)
        cache.put_many([(f"k{i}", i) for i in range(5)])
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["evictions"] == 2
        # last-written keys survive
        assert cache.get_many(["k2", "k3", "k4"]) == [2, 3, 4]

    def test_bulk_ops_thread_safety_under_hammering(self):
        """get_many/put_many from 8+ threads: bounds hold, counters add up."""
        cache = LRUCache(max_entries=64)
        probes_per_worker = 300
        batch = 10

        def hammer(worker: int) -> int:
            rounds = 0
            for i in range(probes_per_worker):
                keys = [
                    f"k{(worker * 31 + i * batch + j) % 120}"
                    for j in range(batch)
                ]
                values = cache.get_many(keys)
                missing = [
                    (key, key)
                    for key, value in zip(keys, values)
                    if value is MISS
                ]
                if missing:
                    cache.put_many(missing)
                rounds += 1
                stats = cache.stats()
                assert stats["entries"] <= 64
            return rounds

        with ThreadPoolExecutor(max_workers=9) as pool:
            results = list(pool.map(hammer, range(9)))
        assert results == [probes_per_worker] * 9
        stats = cache.stats()
        assert stats["entries"] <= 64
        assert stats["hits"] + stats["misses"] == 9 * probes_per_worker * batch
        # every hit must have returned the value that was stored for it
        for key in list(cache._entries):
            assert cache.get(key) == key


class TestEvaluationCache:
    def test_registry_counters_track_accesses(self):
        registry = repro.get_registry()
        before = registry.counter("serve.cache.hits").value
        cache = EvaluationCache(max_entries=2)
        cache.put("k1", 1.0)
        cache.get("k1")
        cache.get("nope")
        assert registry.counter("serve.cache.hits").value == before + 1

    def test_stats_shape_matches_manifest_contract(self):
        stats = EvaluationCache().stats()
        assert set(stats) == {"memory"}
        json.dumps(stats)  # must be JSON-safe for manifests

    def test_bulk_ops_round_trip_exact_values(self):
        """put_many/get_many return stored values bit-exact, in order."""
        registry = repro.get_registry()
        hits = registry.counter("serve.cache.hits").value
        misses = registry.counter("serve.cache.misses").value
        key = evaluation_key(ARM_A72, ACCEL, WORKLOAD, TCAMode.L_T)
        expected = TCAModel(ARM_A72, ACCEL, WORKLOAD).speedup(TCAMode.L_T)
        cache = EvaluationCache()
        cache.put_many([(key, expected), ("bb" * 32, 2.5)])
        values = cache.get_many([key, "nope", "bb" * 32])
        assert values == [pytest.approx(expected, abs=0), MISS, 2.5]
        assert registry.counter("serve.cache.hits").value == hits + 2
        assert registry.counter("serve.cache.misses").value == misses + 1
        assert cache.stats()["memory"]["entries"] == 2

    def test_bulk_ops_match_scalar_ops_under_threads(self, tmp_path):
        """8 threads mixing bulk and scalar ops: values stay coherent."""
        cache = EvaluationCache(max_entries=256)

        def hammer(worker: int) -> int:
            for i in range(200):
                keys = [f"w{(worker + i + j) % 50}" for j in range(5)]
                values = cache.get_many(keys)
                fresh = [
                    (key, key)
                    for key, value in zip(keys, values)
                    if value is MISS
                ]
                if fresh:
                    cache.put_many(fresh)
                solo = f"w{(worker * 7 + i) % 50}"
                value = cache.get(solo)
                assert value is MISS or value == solo
            return worker

        with ThreadPoolExecutor(max_workers=8) as pool:
            assert sorted(pool.map(hammer, range(8))) == list(range(8))
        stats = cache.stats()["memory"]
        assert stats["entries"] <= 256
