"""Adaptive synthetic microbenchmark (paper §V-A, Fig. 4).

The paper validates the model over "a sweep of microbenchmarks which
varies over many different invocation frequencies and percentage of
acceleratable code": increasing the number of accelerator instructions
raises both ``v`` and ``a`` simultaneously, and the accelerator
instructions are placed *randomly* to deliberately violate the model's
even-distribution assumption.

:func:`generate_synthetic_program` reproduces that: a baseline trace of
configurable instruction mix with ``num_invocations`` equally-sized
acceleratable regions scattered at random offsets.

The default mix is deliberately *window-limited* in the Eyerman sense the
model builds on: long-latency loads (streaming over a far-larger-than-L2
region, one fresh cache line each) are spread through the instruction
stream so that the core's sustained IPC comes from the memory-level
parallelism the reorder buffer can expose.  In that regime the ROB runs
full, the drain time of a full window matches the power-law/balanced
estimate ``s_ROB / IPC``, and dispatch meters execution — exactly the
assumptions of the interval model.  The knobs (``load_every``,
``chain_every``, ``mispredict_every``) let tests explore workloads that
*violate* those assumptions too.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.isa.instructions import Instruction, OpClass, TCADescriptor
from repro.isa.program import AcceleratableRegion, Program
from repro.isa.trace import TraceBuilder, alu_record, load_record, row_template

#: Streaming data region for the synthetic loads.
DATA_BASE = 0x3000_0000

_REGS = tuple(range(16))
_CHAIN_REG = 15


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic microbenchmark instance.

    Attributes:
        total_instructions: baseline trace length.
        num_invocations: acceleratable regions to scatter (each becomes
            one TCA).
        region_size: baseline instructions per region.
        tca_latency: explicit accelerator latency per invocation in
            cycles (architect-provided, paper §III-E).
        load_every: one long-latency load per this many instructions.
            Each load touches a fresh cache line of a streaming region far
            larger than the L2, so the loads always miss and the core's
            IPC is set by how many the ROB can overlap (window-limited
            memory-level parallelism).
        chain_every: one instruction per this many extends a serial
            dependency chain (a light serial spine; not the IPC limiter
            at the default setting).
        mispredict_every: one mispredicted branch per this many
            instructions (0 disables mispredictions).
        working_set: bytes of the load-streaming region (wraps around;
            keep it far above the L2 capacity so reuse never warms up).
        seed: RNG seed for region placement.
    """

    total_instructions: int = 20_000
    num_invocations: int = 20
    region_size: int = 300
    tca_latency: int = 200
    load_every: int = 40
    chain_every: int = 7
    mispredict_every: int = 0
    working_set: int = 1 << 25
    seed: int = 7

    def __post_init__(self) -> None:
        if self.total_instructions <= 0:
            raise ValueError("total_instructions must be positive")
        if self.num_invocations < 0:
            raise ValueError("num_invocations must be non-negative")
        if self.region_size <= 0:
            raise ValueError("region_size must be positive")
        if self.num_invocations * self.region_size > self.total_instructions:
            raise ValueError(
                "acceleratable regions exceed the trace: "
                f"{self.num_invocations} x {self.region_size} > "
                f"{self.total_instructions}"
            )
        if self.tca_latency < 1:
            raise ValueError("tca_latency must be >= 1")
        if self.load_every <= 0 or self.chain_every <= 0:
            raise ValueError("load_every and chain_every must be positive")
        if self.mispredict_every < 0:
            raise ValueError("mispredict_every must be non-negative")

    @property
    def acceleratable_fraction(self) -> float:
        """The ``a`` this spec produces."""
        return self.num_invocations * self.region_size / self.total_instructions

    @property
    def invocation_frequency(self) -> float:
        """The ``v`` this spec produces."""
        return self.num_invocations / self.total_instructions


@lru_cache(maxsize=8)
def _mixed_template(
    load_every: int, chain_every: int, mispredict_every: int, length: int
) -> tuple[tuple[Instruction, ...], np.ndarray, tuple[int, ...]]:
    """The baseline mix at positions ``[0, length)``, loads left as holes.

    Returns :func:`~repro.isa.trace.row_template`'s records and index,
    then the register of each load in order.  The mix at position
    ``index`` depends only on ``index`` modulo :func:`_mix_period`, so a
    template one period long, repeated, is the whole trace; its records
    are built once here and shared by every repetition.  Loads are the
    only records that differ between repetitions (each streams a fresh
    line), so :func:`_emit_mixed` builds them itself.
    """
    layout: list[Instruction | None] = []
    load_regs: list[int] = []
    for index in range(length):
        if mispredict_every and index % mispredict_every == mispredict_every - 1:
            layout.append(_branch_record(_REGS[index % 8], True))
        elif index % load_every == 0:
            load_regs.append(_REGS[index % 8])
            layout.append(None)
        elif index % chain_every == 0:
            layout.append(alu_record(_CHAIN_REG, (_CHAIN_REG,)))
        elif index % 17 == 0:
            layout.append(_branch_record(_REGS[index % 8], False))
        else:
            layout.append(alu_record(_REGS[index % 8]))
    return (*row_template(layout), tuple(load_regs))


@lru_cache(maxsize=32)
def _branch_record(reg: int, mispredicted: bool) -> Instruction:
    """One shared branch on ``reg``."""
    return Instruction(OpClass.BRANCH, srcs=(reg,), mispredicted=mispredicted)


def _mix_period(spec: SyntheticSpec) -> int:
    """Positions after which the baseline mix repeats (loads aside)."""
    return math.lcm(
        spec.load_every, spec.chain_every, 17, 8, spec.mispredict_every or 1
    )


def _emit_mixed(builder: TraceBuilder, spec: SyntheticSpec) -> None:
    """Emit the whole baseline mix: repeated templates plus streaming loads.

    Each load touches a fresh 64 B line of the streaming region, in
    order, wrapping at ``working_set``.
    """
    period = min(_mix_period(spec), spec.total_instructions)
    repeats, tail = divmod(spec.total_instructions, period)
    line = 0
    for length, count in ((period, repeats), (tail, 1 if tail else 0)):
        records, index, load_regs = _mixed_template(
            spec.load_every, spec.chain_every, spec.mispredict_every, length
        )
        for _ in range(count):
            loads = []
            for reg in load_regs:
                loads.append(
                    load_record(reg, DATA_BASE + (line * 64) % spec.working_set, 8)
                )
                line += 1
            builder.extend_rows(records, index, loads)


def _region_offsets(spec: SyntheticSpec, rng: random.Random) -> list[int]:
    """Random non-overlapping region start offsets.

    Chosen by sampling gaps: place ``num_invocations`` regions into the
    trace by drawing the leftover slack and splitting it uniformly, which
    guarantees non-overlap without rejection sampling.
    """
    slack = spec.total_instructions - spec.num_invocations * spec.region_size
    cuts = sorted(rng.randint(0, slack) for _ in range(spec.num_invocations))
    offsets = []
    for i, cut in enumerate(cuts):
        offsets.append(cut + i * spec.region_size)
    return offsets


def generate_synthetic_program(spec: SyntheticSpec) -> Program:
    """Generate the adaptive microbenchmark as a :class:`Program`.

    The baseline trace carries the full instruction mix; each scattered
    region is marked acceleratable with an explicit-latency TCA
    descriptor.  Returns a program whose measured ``a``/``v`` equal
    :attr:`SyntheticSpec.acceleratable_fraction` and
    :attr:`SyntheticSpec.invocation_frequency`.
    """
    rng = random.Random(spec.seed)
    builder = TraceBuilder(
        name=f"synthetic-n{spec.num_invocations}-g{spec.region_size}",
        metadata={
            "workload": "synthetic",
            "num_invocations": spec.num_invocations,
            "region_size": spec.region_size,
            "tca_latency": spec.tca_latency,
            "seed": spec.seed,
        },
    )
    _emit_mixed(builder, spec)
    baseline = builder.build()

    descriptor = TCADescriptor(
        name="synthetic-tca",
        compute_latency=spec.tca_latency,
        replaced_instructions=spec.region_size,
    )
    regions = [
        AcceleratableRegion(start=offset, length=spec.region_size, descriptor=descriptor)
        for offset in _region_offsets(spec, rng)
    ]
    return Program(baseline, regions, name=baseline.name)
