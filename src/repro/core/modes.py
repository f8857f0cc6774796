"""The four TCA integration modes (paper §III, Fig. 3).

A TCA integration is characterised by whether the accelerator may execute
concurrently with **leading** (older, L) instructions — i.e. speculatively —
and whether **trailing** (younger, T) instructions may dispatch and execute
while the accelerator is in flight.  The paper studies all four
combinations; each trades hardware complexity for performance:

========  =========  =========  =============================================
mode      leading    trailing   hardware obligations
========  =========  =========  =============================================
NL_NT     no         no         none: no rollback, no dependency checks
L_NT      yes        no         rollback/checkpoint on misspeculation
NL_T      no         yes        register/memory dependency checks vs trailing
L_T       yes        yes        both of the above
========  =========  =========  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique


@unique
class TCAMode(Enum):
    """Degree of out-of-order concurrency around the accelerator."""

    NL_NT = "NL_NT"
    L_NT = "L_NT"
    NL_T = "NL_T"
    L_T = "L_T"

    # Singleton members: identity hashing agrees with equality, skips
    # Enum's Python-level hash (a batch hashes each query's mode).
    __hash__ = object.__hash__

    @property
    def leading(self) -> bool:
        """Whether the TCA may overlap with leading instructions
        (speculative TCA execution)."""
        return self in (TCAMode.L_NT, TCAMode.L_T)

    @property
    def trailing(self) -> bool:
        """Whether trailing instructions may dispatch/execute while the TCA
        is in flight."""
        return self in (TCAMode.NL_T, TCAMode.L_T)

    @property
    def requires_rollback_hardware(self) -> bool:
        """L modes must checkpoint/roll back accelerator state on squash."""
        return self.leading

    @property
    def requires_dependency_hardware(self) -> bool:
        """T modes must resolve register/memory dependences against trailing
        instructions (LSQ and rename integration)."""
        return self.trailing

    @property
    def description(self) -> str:
        """One-line human description."""
        return _DESCRIPTIONS[self]

    @classmethod
    def all_modes(cls) -> tuple["TCAMode", ...]:
        """All four modes in the paper's canonical order."""
        return (cls.NL_NT, cls.L_NT, cls.NL_T, cls.L_T)


_DESCRIPTIONS = {
    TCAMode.NL_NT: (
        "Non-Leading & Non-Trailing: ROB drains before the TCA executes and "
        "dispatch stalls until the TCA commits (simplest hardware)"
    ),
    TCAMode.L_NT: (
        "Leading & Non-Trailing: the TCA executes speculatively but dispatch "
        "stalls until it commits"
    ),
    TCAMode.NL_T: (
        "Non-Leading & Trailing: the ROB drains before the TCA executes, but "
        "trailing instructions dispatch immediately"
    ),
    TCAMode.L_T: (
        "Leading & Trailing: full out-of-order concurrency around the TCA "
        "(most complex hardware, best performance)"
    ),
}


@dataclass(frozen=True)
class ModeHardwareCost:
    """Relative hardware-complexity annotations for design-space reports.

    The paper's future-work section calls for pareto analysis of
    performance against hardware cost; these coarse unit-less scores let
    :mod:`repro.core.design_space` rank implementations.  They are
    deliberately simple: rollback support and dependency-resolution
    hardware each add cost, with dependency hardware (LSQ + rename
    integration) weighted heavier than checkpointing.
    """

    mode: TCAMode
    rollback_cost: float
    dependency_cost: float

    @property
    def total(self) -> float:
        """Combined relative hardware cost (baseline integration = 1.0)."""
        return 1.0 + self.rollback_cost + self.dependency_cost


#: Default relative hardware-cost annotations per mode.
MODE_COSTS: dict[TCAMode, ModeHardwareCost] = {
    TCAMode.NL_NT: ModeHardwareCost(TCAMode.NL_NT, 0.0, 0.0),
    TCAMode.L_NT: ModeHardwareCost(TCAMode.L_NT, 0.6, 0.0),
    TCAMode.NL_T: ModeHardwareCost(TCAMode.NL_T, 0.0, 1.0),
    TCAMode.L_T: ModeHardwareCost(TCAMode.L_T, 0.6, 1.0),
}
