"""Unit tests for the heap microbenchmark generator."""

import pytest

from repro.workloads.heap import (
    HEAP_TCA_LATENCY,
    HeapWorkloadSpec,
    generate_heap_program,
    heap_granularity,
)
from repro.workloads.tcmalloc import FREE_SOFTWARE_UOPS, MALLOC_SOFTWARE_UOPS


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slots": 0},
            {"call_probability": -0.1},
            {"call_probability": 1.5},
            {"filler_block": 0},
            {"filler_load_every": 0},
            {"max_live": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            HeapWorkloadSpec(**kwargs)

    def test_granularity_is_mean_of_fast_paths(self):
        assert heap_granularity() == (MALLOC_SOFTWARE_UOPS + FREE_SOFTWARE_UOPS) / 2


class TestGeneration:
    def test_deterministic(self):
        spec = HeapWorkloadSpec(slots=100, call_probability=0.3, seed=9)
        first = generate_heap_program(spec)
        second = generate_heap_program(spec)
        assert len(first.baseline) == len(second.baseline)
        assert first.baseline.instructions == second.baseline.instructions

    def test_seed_changes_trace(self):
        a = generate_heap_program(HeapWorkloadSpec(slots=100, seed=1))
        b = generate_heap_program(HeapWorkloadSpec(slots=100, seed=2))
        assert a.baseline.instructions != b.baseline.instructions

    def test_call_probability_drives_frequency(self):
        low = generate_heap_program(
            HeapWorkloadSpec(slots=400, call_probability=0.05, seed=3)
        )
        high = generate_heap_program(
            HeapWorkloadSpec(slots=400, call_probability=0.5, seed=3)
        )
        assert high.invocation_frequency > low.invocation_frequency
        assert high.acceleratable_fraction > low.acceleratable_fraction

    def test_regions_are_full_call_sequences(self):
        program = generate_heap_program(
            HeapWorkloadSpec(slots=200, call_probability=0.4, seed=5)
        )
        for region in program.regions:
            assert region.length in (MALLOC_SOFTWARE_UOPS, FREE_SOFTWARE_UOPS)
            assert region.descriptor.compute_latency == HEAP_TCA_LATENCY
            assert region.descriptor.name in ("heap-malloc", "heap-free")

    def test_accelerated_trace_consistent(self):
        program = generate_heap_program(
            HeapWorkloadSpec(slots=200, call_probability=0.4, seed=5)
        )
        stats = program.accelerated().stats()
        assert stats.tca_invocations == program.num_invocations
        assert stats.baseline_instructions == len(program.baseline)

    def test_zero_probability_has_no_regions(self):
        program = generate_heap_program(
            HeapWorkloadSpec(slots=50, call_probability=0.0)
        )
        assert program.num_invocations == 0

    def test_always_probability_all_calls(self):
        program = generate_heap_program(
            HeapWorkloadSpec(slots=50, call_probability=1.0)
        )
        assert program.num_invocations == 50

    def test_frees_never_exceed_mallocs(self):
        program = generate_heap_program(
            HeapWorkloadSpec(slots=300, call_probability=0.8, seed=11)
        )
        mallocs = frees = 0
        for region in program.regions:
            if region.descriptor.name == "heap-malloc":
                mallocs += 1
            else:
                frees += 1
            assert frees <= mallocs  # never free without a live object

    def test_warm_ranges_metadata_present(self):
        program = generate_heap_program(HeapWorkloadSpec(slots=50))
        ranges = program.baseline.metadata["warm_ranges"]
        assert all(size > 0 for _addr, size in ranges)
        assert len(ranges) >= 4

    def test_malloc_regions_write_pointer_register(self):
        program = generate_heap_program(
            HeapWorkloadSpec(slots=100, call_probability=0.5, seed=2)
        )
        malloc_regions = [
            r for r in program.regions if r.descriptor.name == "heap-malloc"
        ]
        assert malloc_regions
        assert all(r.dsts for r in malloc_regions)
