"""Fast-forward stall attribution vs a cycle-stepped reference.

When the run loop makes no progress it jumps straight to the next cycle
at which anything can happen, bulk-charging the skipped cycles to the
active :class:`~repro.sim.stats.StallReason` and bulk-sampling ROB
occupancy.  The ground truth is the seed engine
(:class:`seed_engine.ReferenceCoreSim`), which steps every cycle and
charges stalls one at a time: every stats field — stall buckets,
``rob_occupancy_sum``, ``rob_samples`` — must match it exactly.
"""

import dataclasses
import json

import pytest

from repro.core.modes import TCAMode
from repro.isa.trace import TraceBuilder
from repro.sim.config import HIGH_PERF_SIM, LOW_PERF_SIM
from repro.sim.core import CoreSim
from repro.sim.stats import StallReason
from repro.workloads.heap import HeapWorkloadSpec, generate_heap_program
from seed_engine import ReferenceCoreSim


def _barrier_trace():
    """An NL/NT TCA with long compute: a long TCA_BARRIER stall period."""
    builder = TraceBuilder("barrier")
    builder.chain(20, 0)
    builder.tca_over_range(
        "acc",
        compute_latency=400,
        read_ranges=[(0, 256)],
        replaced_instructions=50,
    )
    builder.independent_block(40, [1, 2, 3])
    return builder.build()


def _redirect_trace():
    """A mispredicted branch gated by a slow producer: BRANCH_REDIRECT."""
    builder = TraceBuilder("redirect")
    builder.alu(0, latency=30)
    builder.branch(srcs=[0], mispredicted=True)
    builder.independent_block(30, [1, 2])
    return builder.build()


def _rob_full_trace():
    """A slow op at the ROB head behind a flood of cheap ops: ROB_FULL."""
    builder = TraceBuilder("rob-full")
    builder.alu(0, latency=200)
    builder.independent_block(400, [1, 2, 3, 4])
    return builder.build()


def _drain_trace():
    """A lone slow op: the tail is pure TRACE_DRAINED waiting."""
    builder = TraceBuilder("drain")
    builder.alu(0, latency=120)
    return builder.build()


TARGETED = [
    ("tca-barrier", _barrier_trace(), StallReason.TCA_BARRIER),
    ("branch-redirect", _redirect_trace(), StallReason.BRANCH_REDIRECT),
    ("rob-full", _rob_full_trace(), StallReason.ROB_FULL),
    ("trace-drained", _drain_trace(), StallReason.TRACE_DRAINED),
]


def _config(base=HIGH_PERF_SIM, mode=TCAMode.NL_NT):
    return dataclasses.replace(base, tca_mode=mode)


def _dump(stats) -> str:
    return json.dumps(stats.to_dict(), sort_keys=False)


class TestSkippedCycleAttribution:
    @pytest.mark.parametrize(
        "label,trace,reason", TARGETED, ids=[t[0] for t in TARGETED]
    )
    def test_matches_cycle_stepped_reference(self, label, trace, reason):
        config = _config()
        stepped = ReferenceCoreSim(config, trace).run()
        fast = CoreSim(config, trace).run()
        assert _dump(fast) == _dump(stepped)
        # The scenario actually produced the stall class it targets, and
        # the period is long enough that fast-forward must have skipped
        # cycles inside it (multi-cycle periods charged to one reason).
        assert fast.stall_cycles.get(reason, 0) > 10


class TestRobOccupancySampling:
    @pytest.mark.parametrize(
        "label,trace,reason", TARGETED, ids=[t[0] for t in TARGETED]
    )
    def test_rob_samples_cover_every_cycle(self, label, trace, reason):
        # Skipped cycles still sample ROB occupancy: exactly one sample
        # per simulated cycle, and sums identical to the stepped run.
        config = _config()
        stepped = ReferenceCoreSim(config, trace).run()
        fast = CoreSim(config, trace).run()
        assert fast.rob_samples == fast.cycles
        assert fast.rob_samples == stepped.rob_samples
        assert fast.rob_occupancy_sum == stepped.rob_occupancy_sum
        assert fast.max_rob_occupancy == stepped.max_rob_occupancy

    def test_workload_trace_cycle_for_cycle(self):
        # A full generated workload (loads, stores, TCAs, mispredicts)
        # exercises every stall source at once; warm and cold, both
        # bundled config extremes, all against the stepped reference.
        program = generate_heap_program(
            HeapWorkloadSpec(slots=60, call_probability=0.3, seed=11)
        )
        warm = program.baseline.metadata.get("warm_ranges")
        for base in (HIGH_PERF_SIM, LOW_PERF_SIM):
            for trace in (program.baseline, program.accelerated()):
                for ranges in (None, warm):
                    config = _config(base)
                    stepped = ReferenceCoreSim(
                        config, trace, warm_ranges=ranges
                    ).run()
                    fast = CoreSim(config, trace, warm_ranges=ranges).run()
                    assert _dump(fast) == _dump(stepped)
