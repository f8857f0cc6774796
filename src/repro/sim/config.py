"""Simulator configuration and core presets.

The presets mirror the cores the paper evaluates: a mid/high-performance
OoO core (1.8 IPC-class, 256-entry ROB, 4-issue), a low-performance OoO
core (0.5 IPC-class, 64-entry ROB, 2-issue), and an ARM A72-class core used
for the Fig. 2 granularity study (3-wide, 128-entry ROB).

Configuration is *static* core structure only.  Run-scoped concerns —
pipeline event tracing, metrics, logging — live in :mod:`repro.obs` and
are passed per simulation (``simulate(..., tracer=...)`` or the ambient
``repro.obs.tracing`` context), never stored on a :class:`SimConfig`:
presets are shared frozen instances and must stay observation-free.  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.modes import TCAMode
from repro.isa.instructions import CACHE_LINE_BYTES, MAX_LATENCY, OpClass

#: Upper bound on :attr:`SimConfig.max_cycles`.  With
#: :data:`~repro.isa.instructions.MAX_LATENCY` (2**26, the bound on every
#: latency field, functional unit, latency override and TCA compute
#: latency) it keeps every timestamp inside the C kernel's event packing,
#: which needs ``when < 2**31``.  An event is scheduled at most one
#: latency after cycle ``max_cycles + 1``, and the longest latency is a
#: full L1 + L2 + memory miss:
#: ``max_cycles + 2 + 3 * MAX_LATENCY <= 2**30 + 2 + 3 * 2**26 < 2**31``.
MAX_CYCLES = 1 << 30

_INF = float("inf")

#: The inclusive range of every int field: counts of structures, ports
#: and contexts, then latencies (cycles), then the watchdog.
_INT_RANGES = {
    **dict.fromkeys(
        ("dispatch_width", "issue_width", "commit_width", "rob_size", "iq_size",
         "lq_size", "sq_size", "load_ports", "store_ports", "l1d_size",
         "l1d_assoc", "l2_size", "l2_assoc", "mshrs", "tca_units"),
        (1, _INF),
    ),
    **dict.fromkeys(
        ("frontend_depth", "commit_latency", "redirect_penalty", "forward_latency"),
        (0, MAX_LATENCY),
    ),
    **dict.fromkeys(("l1d_latency", "l2_latency", "mem_latency"), (1, MAX_LATENCY)),
    "max_cycles": (1, MAX_CYCLES),
}


@dataclass(frozen=True)
class FunctionalUnitConfig:
    """Ports and latency for one op class.

    Attributes:
        ports: issues per cycle for this class (fully pipelined unless
            ``pipelined`` is False).
        latency: execution cycles from issue to completion.
        pipelined: when False, each port is busy for ``latency`` cycles
            per operation (e.g. dividers).
    """

    ports: int
    latency: int
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.ports <= 0:
            raise ValueError(f"ports must be positive, got {self.ports}")
        if not 1 <= self.latency <= MAX_LATENCY:
            raise ValueError(
                f"latency must be in [1, {MAX_LATENCY}], got {self.latency}"
            )


def _default_fus(width: int) -> dict[OpClass, FunctionalUnitConfig]:
    """A balanced FU complement for a core of the given dispatch width."""
    alu_ports = max(1, width)
    return {
        OpClass.INT_ALU: FunctionalUnitConfig(ports=alu_ports, latency=1),
        OpClass.INT_MUL: FunctionalUnitConfig(ports=max(1, width // 2), latency=3),
        OpClass.INT_DIV: FunctionalUnitConfig(ports=1, latency=12, pipelined=False),
        OpClass.FP_ALU: FunctionalUnitConfig(ports=max(1, width // 2), latency=3),
        OpClass.FP_MUL: FunctionalUnitConfig(ports=max(1, width // 2), latency=4),
        OpClass.FP_DIV: FunctionalUnitConfig(ports=1, latency=16, pipelined=False),
        OpClass.BRANCH: FunctionalUnitConfig(ports=max(1, width // 2), latency=1),
        OpClass.NOP: FunctionalUnitConfig(ports=alu_ports, latency=1),
    }


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of the simulated core.

    Attributes:
        name: preset name for reports.
        dispatch_width: instructions renamed/dispatched into the ROB per
            cycle.  This is the paper's ``w_issue`` (front-end width).
        issue_width: maximum instructions issued to functional units per
            cycle (including loads/stores).
        commit_width: instructions committed per cycle.
        rob_size: reorder-buffer entries (paper's ``s_ROB``).
        iq_size: issue-queue entries.
        lq_size: load-queue entries.
        sq_size: store-queue entries.
        frontend_depth: cycles from fetch to first dispatch (pipeline fill).
        commit_latency: cycles from completion to commit eligibility — the
            backend contribution to the paper's ``t_commit`` penalty.
        redirect_penalty: front-end refill cycles after a mispredicted
            branch resolves.
        load_ports: cache load accesses per cycle (shared core/TCA,
            arbitrated by age per paper §IV).
        store_ports: store-address/data slots per cycle.
        forward_latency: store-to-load forwarding latency.
        functional_units: per-class FU setup; classes absent from the map
            fall back to a 1-port latency-1 unit.
        l1d_size / l1d_assoc / l1d_latency: level-1 data cache geometry
            and hit latency.
        l2_size / l2_assoc / l2_latency: level-2 cache geometry and hit
            latency.
        mem_latency: DRAM access latency.
        prefetch_next_line: idealized next-line prefetcher on demand
            misses (default off; see :class:`repro.sim.cache.CacheHierarchy`).
        mshrs: maximum outstanding cache misses (core + TCA; at least
            one, or no L1 miss could ever issue).
        tca_mode: TCA integration mode (leading/trailing concurrency).
        tca_units: concurrent TCA invocations the accelerator supports
            (1 = the paper's single hardware block; higher values model a
            multi-context accelerator, an ablation axis).
        partial_speculation: when True, NL-mode TCAs use the paper's
            §VIII confidence-gated policy — an invocation may begin once
            every older *low-confidence* branch has resolved, instead of
            waiting for a full ROB drain.  L modes are unaffected.
        max_cycles: watchdog bound, at most :data:`MAX_CYCLES`; the
            simulator raises :class:`~repro.sim.core.CycleLimitError` if
            a run exceeds it.

    Construction type-checks every int and bool field and rejects values
    outside the ranges above, so a bad configuration fails here rather
    than mid-run.
    """

    name: str = "custom"
    dispatch_width: int = 4
    issue_width: int = 8
    commit_width: int = 8
    rob_size: int = 256
    iq_size: int = 64
    lq_size: int = 48
    sq_size: int = 32
    frontend_depth: int = 8
    commit_latency: int = 4
    redirect_penalty: int = 12
    load_ports: int = 2
    store_ports: int = 2
    forward_latency: int = 2
    functional_units: dict[OpClass, FunctionalUnitConfig] = field(
        default_factory=lambda: _default_fus(4)
    )
    l1d_size: int = 32 * 1024
    l1d_assoc: int = 8
    l1d_latency: int = 3
    l2_size: int = 512 * 1024
    l2_assoc: int = 8
    l2_latency: int = 12
    mem_latency: int = 140
    prefetch_next_line: bool = False
    mshrs: int = 8
    tca_mode: TCAMode = TCAMode.L_T
    tca_units: int = 1
    partial_speculation: bool = False
    max_cycles: int = 200_000_000

    def __post_init__(self) -> None:
        for attr, (low, high) in _INT_RANGES.items():
            value = getattr(self, attr)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{attr} must be an int, got {value!r}")
            if not low <= value <= high:
                raise ValueError(f"{attr} must be in [{low}, {high}], got {value}")
        for attr in ("prefetch_next_line", "partial_speculation"):
            value = getattr(self, attr)
            if not isinstance(value, bool):
                raise TypeError(f"{attr} must be a bool, got {value!r}")
        if self.rob_size < self.dispatch_width:
            raise ValueError("rob_size must be at least dispatch_width")
        for level in ("l1d", "l2"):
            size = getattr(self, f"{level}_size")
            assoc = getattr(self, f"{level}_assoc")
            if size % (assoc * CACHE_LINE_BYTES):
                raise ValueError(
                    f"{level}_size {size} is not a multiple of {level}_assoc "
                    f"* line ({assoc} * {CACHE_LINE_BYTES})"
                )

    def with_mode(self, mode: TCAMode) -> "SimConfig":
        """Copy of this config with a different TCA integration mode."""
        return replace(self, tca_mode=mode)

    def fu_for(self, op: OpClass) -> FunctionalUnitConfig:
        """The functional-unit config for an op class (with fallback)."""
        return self.functional_units.get(op, FunctionalUnitConfig(ports=1, latency=1))

    def to_canonical_dict(self) -> dict[str, object]:
        """Every timing-relevant field as a stable, JSON-safe dict.

        Used for content-addressed simulation cache keys
        (:mod:`repro.serve.keys`): functional units are keyed by op-class
        value in sorted order, the TCA mode by its string value, and the
        display ``name`` is omitted so identically configured cores share
        cache entries.  ``max_cycles`` is included because it can truncate
        a run (a watchdog abort is a different result).
        """
        fus = {
            op.value: {
                "ports": fu.ports,
                "latency": fu.latency,
                "pipelined": fu.pipelined,
            }
            for op, fu in sorted(
                self.functional_units.items(), key=lambda kv: kv[0].value
            )
        }
        return {
            "dispatch_width": self.dispatch_width,
            "issue_width": self.issue_width,
            "commit_width": self.commit_width,
            "rob_size": self.rob_size,
            "iq_size": self.iq_size,
            "lq_size": self.lq_size,
            "sq_size": self.sq_size,
            "frontend_depth": self.frontend_depth,
            "commit_latency": self.commit_latency,
            "redirect_penalty": self.redirect_penalty,
            "load_ports": self.load_ports,
            "store_ports": self.store_ports,
            "forward_latency": self.forward_latency,
            "functional_units": fus,
            "l1d_size": self.l1d_size,
            "l1d_assoc": self.l1d_assoc,
            "l1d_latency": self.l1d_latency,
            "l2_size": self.l2_size,
            "l2_assoc": self.l2_assoc,
            "l2_latency": self.l2_latency,
            "mem_latency": self.mem_latency,
            "prefetch_next_line": self.prefetch_next_line,
            "mshrs": self.mshrs,
            "tca_mode": self.tca_mode.value,
            "tca_units": self.tca_units,
            "partial_speculation": self.partial_speculation,
            "max_cycles": self.max_cycles,
        }


#: Mid/high-performance OoO core (paper Fig. 7 "HP": 256-entry ROB, 4-issue).
HIGH_PERF_SIM = SimConfig(
    name="high-perf",
    dispatch_width=4,
    issue_width=8,
    commit_width=8,
    rob_size=256,
    iq_size=96,
    lq_size=72,
    sq_size=56,
    frontend_depth=10,
    commit_latency=4,
    redirect_penalty=14,
    load_ports=2,
    store_ports=2,
    functional_units=_default_fus(4),
)

#: Low-performance OoO core (paper Fig. 7 "LP": 64-entry ROB, 2-issue).
LOW_PERF_SIM = SimConfig(
    name="low-perf",
    dispatch_width=2,
    issue_width=3,
    commit_width=4,
    rob_size=64,
    iq_size=24,
    lq_size=16,
    sq_size=12,
    frontend_depth=6,
    commit_latency=3,
    redirect_penalty=8,
    load_ports=1,
    store_ports=1,
    functional_units=_default_fus(2),
)

#: ARM Cortex-A72-class core (paper Fig. 2 parameters: 3-wide, 128-entry ROB).
ARM_A72_SIM = SimConfig(
    name="arm-a72",
    dispatch_width=3,
    issue_width=5,
    commit_width=6,
    rob_size=128,
    iq_size=48,
    lq_size=32,
    sq_size=24,
    frontend_depth=9,
    commit_latency=4,
    redirect_penalty=12,
    load_ports=2,
    store_ports=1,
    functional_units=_default_fus(3),
)
