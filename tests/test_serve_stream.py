"""Tests for the chunked NDJSON pareto stream (cache-first, lazy)."""

import dataclasses

import numpy as np

from repro.core.drain import ExplicitDrain
from repro.core.energy import EnergyParameters
from repro.core.modes import TCAMode
from repro.core.parameters import ARM_A72, HIGH_PERF, AcceleratorParameters
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


def _keys(spec):
    digests = {}
    return {
        chunk.index: stream.pareto_chunk_key(chunk, digests)
        for chunk in spec.chunks()
    }


class TestParetoChunkKey:
    def test_equal_chunk_content_gives_equal_keys_across_requests(self):
        spec = _spec()
        # Another request: an extra core panel first, so equal chunks
        # sit at other indices, and a fraction axis whose last slice
        # differs from ours.
        assert len(spec.fractions) == 6
        other = dataclasses.replace(
            spec,
            cores=(HIGH_PERF, ARM_A72),
            fractions=spec.fractions[:4] + (0.95, 1.0),
        )
        ours = list(spec.chunks())
        theirs = {
            (c.core.name, c.mode, c.a_start): c
            for c in other.chunks()
            if c.core is ARM_A72
        }
        other_keys = _keys(other)
        for chunk, key in zip(ours, _keys(spec).values()):
            twin = theirs[(chunk.core.name, chunk.mode, chunk.a_start)]
            if twin.fractions == chunk.fractions:
                assert other_keys[twin.index] == key
            else:
                assert other_keys[twin.index] != key
            # A key needs no memo shared with its sweep.
            assert stream.pareto_chunk_key(chunk) == key
        cache = EvaluationCache()
        list(stream.stream_pareto_records(spec, cache))
        records = list(stream.stream_pareto_records(other, cache))[:-1]
        assert sum(r["cached"] for r in records) == len(ours) - 4

    def test_any_changed_input_changes_the_key(self, monkeypatch):
        spec = _spec()
        keys = _keys(spec)
        assert len(set(keys.values())) == len(keys)  # slices, modes
        chunk = next(spec.chunks())
        key = stream.pareto_chunk_key(chunk)
        changed = [
            dataclasses.replace(chunk, fractions=chunk.fractions[:1]),
            dataclasses.replace(chunk, frequencies=chunk.frequencies[1:]),
            # Equal as floats, but other values: the memo must not merge them.
            dataclasses.replace(chunk, fractions=(0.0,)),
            dataclasses.replace(chunk, fractions=(-0.0,)),
            dataclasses.replace(chunk, drain_estimator=ExplicitDrain(3.0)),
            dataclasses.replace(
                chunk, energy=EnergyParameters(core_static_power=0.25)
            ),
            dataclasses.replace(chunk, tech="finfet-hp-20"),
            dataclasses.replace(chunk, mode=TCAMode.L_T),
        ]
        digests = {}
        changed_keys = [stream.pareto_chunk_key(c, digests) for c in changed]
        assert key not in changed_keys
        assert len(set(changed_keys)) == len(changed_keys)
        monkeypatch.setattr(stream, "schema_tag", lambda: "other-schema")
        assert stream.pareto_chunk_key(chunk) != key
