"""Behavioural tests for the simulator extensions: multi-context TCA
units and confidence-gated (partial) speculation."""

import pytest

from dataclasses import replace

from repro.core.modes import TCAMode
from repro.isa.instructions import TCADescriptor
from repro.isa.trace import TraceBuilder
from repro.sim.simulator import simulate
from seed_engine import TCAUnit


def burst_trace(count: int, latency: int):
    builder = TraceBuilder("burst")
    descriptor = TCADescriptor(
        name="b", compute_latency=latency, replaced_instructions=latency
    )
    for _ in range(count):
        builder.tca(descriptor)
    return builder.build()


def branchy_trace(low_confidence: bool):
    builder = TraceBuilder("branchy")
    descriptor = TCADescriptor(
        name="t", compute_latency=5, replaced_instructions=20
    )
    for i in range(8):
        builder.load(0, 0x9000_0000 + i * 64)  # slow (missing) condition
        builder.branch(srcs=(0,), low_confidence=low_confidence)
        builder.independent_block(10, [1, 2, 3])
        builder.tca(descriptor)
        builder.independent_block(10, [1, 2, 3])
    return builder.build()


class TestMultiContextTCA:
    def test_two_units_overlap_invocations(self, tiny_sim_config):
        trace = burst_trace(10, latency=30)
        one = simulate(trace, replace(tiny_sim_config, tca_units=1))
        two = simulate(trace, replace(tiny_sim_config, tca_units=2))
        assert two.cycles < one.cycles
        # Ten 30-cycle invocations: 1 unit >= 300 cycles, 2 units ~ half.
        assert one.cycles >= 300
        assert two.cycles <= one.cycles * 0.62

    def test_capacity_saturates(self, tiny_sim_config):
        trace = burst_trace(8, latency=20)
        four = simulate(trace, replace(tiny_sim_config, tca_units=4))
        eight = simulate(trace, replace(tiny_sim_config, tca_units=8))
        # beyond available parallelism extra contexts cannot hurt
        assert eight.cycles <= four.cycles

    def test_rejects_zero_units(self, tiny_sim_config):
        with pytest.raises(ValueError):
            replace(tiny_sim_config, tca_units=0)

    def test_unit_bookkeeping(self):
        unit = TCAUnit(TCAMode.L_T, capacity=2)

        class _Fake:
            def __init__(self, seq):
                self.seq = seq
                self.inst = type(
                    "I", (), {"tca": TCADescriptor(name="x", compute_latency=1)}
                )()
                self.tca_read_index = 0

        a, b, c = _Fake(1), _Fake(2), _Fake(3)
        assert unit.try_start(b)
        assert unit.try_start(a)
        assert not unit.try_start(c)  # at capacity
        assert unit.current is a  # oldest first
        unit.finish(a)
        assert unit.try_start(c)
        with pytest.raises(RuntimeError):
            unit.finish(a)  # no longer active

    def test_nl_modes_unaffected_by_extra_units(self, tiny_sim_config):
        # NL + NT modes fully serialize invocations regardless of contexts.
        trace = burst_trace(6, latency=15)
        config = tiny_sim_config.with_mode(TCAMode.NL_NT)
        one = simulate(trace, replace(config, tca_units=1))
        four = simulate(trace, replace(config, tca_units=4))
        assert four.cycles == one.cycles


class TestPartialSpeculation:
    def test_confident_gating_beats_full_drain(self, tiny_sim_config):
        trace = branchy_trace(low_confidence=False)
        nl = simulate(trace, tiny_sim_config.with_mode(TCAMode.NL_T))
        gated = simulate(
            trace,
            replace(
                tiny_sim_config.with_mode(TCAMode.NL_T), partial_speculation=True
            ),
        )
        # With only high-confidence branches ahead, the gated TCA starts
        # early: drain waits shrink dramatically.
        assert gated.stats.tca_wait_drain_cycles < nl.stats.tca_wait_drain_cycles
        assert gated.cycles <= nl.cycles

    def test_low_confidence_branches_still_block(self, tiny_sim_config):
        config = replace(
            tiny_sim_config.with_mode(TCAMode.NL_T), partial_speculation=True
        )
        confident = simulate(branchy_trace(False), config)
        doubtful = simulate(branchy_trace(True), config)
        # Low-confidence branches gate the TCA until they resolve.
        assert (
            doubtful.stats.tca_wait_drain_cycles
            > confident.stats.tca_wait_drain_cycles
        )

    def test_partial_between_nl_and_l(self, tiny_sim_config):
        trace = branchy_trace(low_confidence=False)
        nl = simulate(trace, tiny_sim_config.with_mode(TCAMode.NL_T)).cycles
        gated = simulate(
            trace,
            replace(
                tiny_sim_config.with_mode(TCAMode.NL_T), partial_speculation=True
            ),
        ).cycles
        l = simulate(trace, tiny_sim_config.with_mode(TCAMode.L_T)).cycles
        assert l <= gated <= nl

    def test_l_modes_ignore_partial_flag(self, tiny_sim_config):
        trace = branchy_trace(low_confidence=True)
        plain = simulate(trace, tiny_sim_config.with_mode(TCAMode.L_T))
        flagged = simulate(
            trace,
            replace(
                tiny_sim_config.with_mode(TCAMode.L_T), partial_speculation=True
            ),
        )
        assert plain.cycles == flagged.cycles


class TestAblationsExperiment:
    def test_runs_at_smoke_scale(self):
        from repro.experiments.ablations import run

        result = run("smoke")
        assert result.rows
        assert any("partial speculation recovers" in n for n in result.notes)
        assert any("drain ablation" in n for n in result.notes)
