"""Tests for the chunked NDJSON pareto stream (cache-first, lazy)."""

import numpy as np

from repro.core.parameters import ARM_A72, AcceleratorParameters
from repro.core.pareto import ParetoSweepSpec, sweep_pareto
from repro.obs.metrics import get_registry
from repro.serve import stream
from repro.serve.cache import EvaluationCache


def _spec():
    return ParetoSweepSpec(
        cores=(ARM_A72,),
        accelerator=AcceleratorParameters(name="s", acceleration=5.0),
        fractions=tuple(np.linspace(0.1, 1.0, 6)),
        frequencies=tuple(np.geomspace(1e-3, 0.5, 5)),
        block_size=10,
    )


def _counting(monkeypatch):
    calls = []
    real = stream._reduce_chunk_state

    def reduce(chunk):
        calls.append(chunk.index)
        return real(chunk)

    monkeypatch.setattr(stream, "_reduce_chunk_state", reduce)
    return calls


class TestStreamParetoRecords:
    def test_first_record_after_exactly_one_evaluation(self, monkeypatch):
        calls = _counting(monkeypatch)
        spec = _spec()
        count = len(list(spec.chunks()))
        assert count > 2
        records = stream.stream_pareto_records(spec, EvaluationCache(), jobs=1)
        first = next(records)
        assert calls == [0]
        assert (first["chunk"], first["cached"]) == (0, False)
        rest = list(records)
        assert calls == list(range(count))
        assert [r["chunk"] for r in rest[:-1]] == list(range(1, count))
        expected = sweep_pareto(spec)
        assert rest[-1]["summary"]["frontier"] == expected.points()
        assert rest[-1]["summary"]["points_seen"] == expected.points_seen

    def test_misses_between_hits_are_evaluated_in_order(self, monkeypatch):
        spec = _spec()
        cache = EvaluationCache()
        chunks = list(spec.chunks())
        # Warm every other chunk, then stream: only the cold ones run,
        # each when its record is due, and each is cached afterwards.
        for chunk in chunks[::2]:
            cache.put(
                stream.pareto_chunk_key(chunk),
                stream._reduce_chunk_state(chunk),
            )
        calls = _counting(monkeypatch)
        timer = get_registry().timer("serve.pareto.evaluate")
        before = timer.count
        flags = []
        for record in stream.stream_pareto_records(spec, cache, jobs=1):
            if "chunk" in record:
                flags.append(record["cached"])
                assert calls == [
                    c.index for c in chunks[: record["chunk"] + 1]
                ][1::2]
        assert flags == [i % 2 == 0 for i in range(len(chunks))]
        assert timer.count - before == len(chunks[1::2])
        again = list(stream.stream_pareto_records(spec, cache, jobs=1))
        assert all(r["cached"] for r in again[:-1])

    def test_jobs_do_not_change_the_records(self):
        spec = _spec()
        serial = list(stream.stream_pareto_records(spec, EvaluationCache(), 1))
        pooled = list(stream.stream_pareto_records(spec, EvaluationCache(), 2))
        assert [r.get("summary") for r in serial] == [
            r.get("summary") for r in pooled
        ]
        assert serial[:-1] == pooled[:-1]
