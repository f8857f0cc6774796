"""The seed out-of-order core engine: a cycle-stepped test oracle.

This module preserves the original object-per-instruction simulator —
one :class:`DynInst` allocated per trace instruction per run, component
objects (:class:`ReorderBuffer`, :class:`IssueQueue`,
:class:`LoadStoreQueue`, :class:`RenameTable`, :class:`FUPool`,
:class:`TCAUnit`, :class:`RedirectUnit`) driven one cycle at a time —
as it behaved before the compile-once pipeline (:mod:`repro.sim.compile`)
replaced it.  No production path runs it; it is the ground truth the
tests hold :class:`~repro.sim.core.CoreSim` to:

- ``tests/test_sim_equivalence.py`` requires byte-identical
  :meth:`~repro.sim.stats.SimStats.to_dict` payloads across workloads,
  TCA modes, TCA contexts, partial speculation and warm/cold caches;
- ``tests/test_sim_fast_forward.py`` checks that the production loop's
  fast-forward charges skipped cycles to the active
  :class:`~repro.sim.stats.StallReason` and samples ROB occupancy exactly
  as this engine does by stepping every cycle.

Behavioural documentation for the pipeline lives in
:mod:`repro.sim.core` and ``docs/SIMULATOR.md``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional

from repro.core.modes import TCAMode
from repro.isa.instructions import Instruction, OpClass
from repro.isa.trace import Trace
from repro.sim.cache import CacheConfig, CacheHierarchy
from repro.sim.config import FunctionalUnitConfig, SimConfig
from repro.sim.core import DeadlockError
from repro.sim.stats import SimStats, StallReason


class DynInst:
    """Dynamic (in-flight) state of one trace instruction."""

    __slots__ = (
        "inst",
        "seq",
        "deps",
        "dependents",
        "completed",
        "complete_cycle",
        "forwarded",
        "issued",
        "first_ready_cycle",
        "tca_start_cycle",
        "tca_reads_left",
        "tca_read_index",
    )

    def __init__(self, inst: Instruction, seq: int) -> None:
        self.inst = inst
        self.seq = seq
        self.deps = 0
        self.dependents: list[DynInst] = []
        self.completed = False
        self.complete_cycle: int | None = None
        self.forwarded = False
        self.issued = False
        self.first_ready_cycle: int | None = None
        self.tca_start_cycle: int | None = None
        self.tca_reads_left = 0
        self.tca_read_index = 0

    def __lt__(self, other: "DynInst") -> bool:
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynInst(seq={self.seq}, op={self.inst.op.value})"


class ReorderBuffer:
    """Bounded in-order instruction window.

    Args:
        capacity: maximum in-flight instructions (paper's ``s_ROB``).
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ROB capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: deque["DynInst"] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        """Whether dispatch must stall for ROB space."""
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        """Whether the window is drained."""
        return not self._entries

    def head(self) -> Optional["DynInst"]:
        """The oldest in-flight instruction, or ``None`` when empty."""
        return self._entries[0] if self._entries else None

    def push(self, inst: "DynInst") -> None:
        """Dispatch an instruction into the window."""
        if self.full:
            raise RuntimeError("push into full ROB")
        self._entries.append(inst)

    def pop_head(self) -> "DynInst":
        """Commit (retire) the oldest instruction."""
        return self._entries.popleft()


class IssueQueue:
    """Bounded issue queue with an age-priority ready heap.

    Args:
        capacity: issue-queue entries.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"IQ capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._occupied = 0
        self._ready: list[tuple[int, int, "DynInst"]] = []

    @property
    def full(self) -> bool:
        """Whether dispatch must stall for IQ space."""
        return self._occupied >= self.capacity

    @property
    def occupancy(self) -> int:
        """Entries currently held by dispatched, un-issued instructions."""
        return self._occupied

    def allocate(self) -> None:
        """Claim an entry at dispatch."""
        if self.full:
            raise RuntimeError("allocate on full issue queue")
        self._occupied += 1

    def release(self) -> None:
        """Free an entry at issue."""
        if self._occupied <= 0:
            raise RuntimeError("release on empty issue queue")
        self._occupied -= 1

    def mark_ready(self, inst: "DynInst", ready_cycle: int) -> None:
        """Enqueue a ready instruction for the scheduler."""
        heapq.heappush(self._ready, (ready_cycle, inst.seq, inst))

    def next_ready_cycle(self) -> int | None:
        """Earliest ready cycle among queued candidates (for fast-forward)."""
        if not self._ready:
            return None
        return self._ready[0][0]

    def pop_ready(self, cycle: int) -> Optional["DynInst"]:
        """Pop the oldest candidate whose ready cycle has arrived."""
        while self._ready:
            ready_cycle, _seq, inst = self._ready[0]
            if ready_cycle > cycle:
                return None
            heapq.heappop(self._ready)
            return inst
        return None

    def peek_ready_seq(self, cycle: int) -> int | None:
        """Sequence number of the oldest issueable candidate, if any."""
        if self._ready and self._ready[0][0] <= cycle:
            return self._ready[0][1]
        return None

    def has_ready(self, cycle: int) -> bool:
        """Whether any candidate can issue at ``cycle``."""
        return bool(self._ready) and self._ready[0][0] <= cycle


class RenameTable:
    """Maps architectural registers to their youngest in-flight producer."""

    def __init__(self) -> None:
        self._producers: dict[int, "DynInst"] = {}

    def producer_of(self, reg: int) -> Optional["DynInst"]:
        """The in-flight producer of ``reg``, or ``None`` if the value is
        architecturally ready."""
        producer = self._producers.get(reg)
        if producer is not None and producer.completed:
            # Lazily clear completed producers so lookups stay O(1).
            del self._producers[reg]
            return None
        return producer

    def set_producer(self, reg: int, producer: "DynInst") -> None:
        """Record ``producer`` as the youngest writer of ``reg``."""
        self._producers[reg] = producer

    def clear_if_producer(self, reg: int, producer: "DynInst") -> None:
        """Remove the mapping if ``producer`` is still the youngest writer
        (called at commit)."""
        if self._producers.get(reg) is producer:
            del self._producers[reg]


class LoadStoreQueue:
    """Bounded LQ/SQ with an in-flight writer window for disambiguation.

    Args:
        lq_size: load-queue entries.
        sq_size: store-queue entries.
    """

    def __init__(self, lq_size: int, sq_size: int) -> None:
        if lq_size <= 0 or sq_size <= 0:
            raise ValueError("LQ/SQ sizes must be positive")
        self.lq_size = lq_size
        self.sq_size = sq_size
        self._loads = 0
        self._stores = 0
        # In-flight memory writers (stores and TCAs with output ranges) in
        # program order: (seq, ranges, inst).
        self._writers: list[tuple[int, tuple[tuple[int, int], ...], "DynInst"]] = []

    @property
    def lq_full(self) -> bool:
        """Whether a load must stall at dispatch."""
        return self._loads >= self.lq_size

    @property
    def sq_full(self) -> bool:
        """Whether a store must stall at dispatch."""
        return self._stores >= self.sq_size

    def allocate_load(self) -> None:
        """Claim a load-queue entry at dispatch."""
        if self.lq_full:
            raise RuntimeError("allocate on full load queue")
        self._loads += 1

    def allocate_store(self) -> None:
        """Claim a store-queue entry at dispatch."""
        if self.sq_full:
            raise RuntimeError("allocate on full store queue")
        self._stores += 1

    def release_load(self) -> None:
        """Free a load-queue entry at commit."""
        if self._loads <= 0:
            raise RuntimeError("release on empty load queue")
        self._loads -= 1

    def release_store(self) -> None:
        """Free a store-queue entry at commit."""
        if self._stores <= 0:
            raise RuntimeError("release on empty store queue")
        self._stores -= 1

    def register_writer(
        self, inst: "DynInst", ranges: tuple[tuple[int, int], ...]
    ) -> None:
        """Add an in-flight memory writer (store or writing TCA) at dispatch."""
        self._writers.append((inst.seq, ranges, inst))

    def deregister_writer(self, inst: "DynInst") -> None:
        """Remove a writer at commit."""
        for i in range(len(self._writers) - 1, -1, -1):
            if self._writers[i][2] is inst:
                del self._writers[i]
                return

    def youngest_conflicting_writer(
        self, seq: int, addr: int, size: int
    ) -> Optional["DynInst"]:
        """Youngest incomplete writer older than ``seq`` overlapping the range.

        Used at load/TCA dispatch to create the memory dependence edge.
        Returns ``None`` when the range is disambiguated (no older in-flight
        writer touches it or all such writers already completed).
        """
        end = addr + size
        for writer_seq, ranges, inst in reversed(self._writers):
            if writer_seq >= seq:
                continue
            if inst.completed:
                continue
            for w_addr, w_size in ranges:
                if w_addr < end and addr < w_addr + w_size:
                    return inst
        return None


class FUPool:
    """Tracks functional-unit availability cycle by cycle.

    Args:
        config: simulator configuration providing per-class FU setups.

    Call :meth:`new_cycle` once per simulated cycle, then :meth:`try_issue`
    for each candidate instruction.
    """

    def __init__(self, config: SimConfig) -> None:
        self._configs: dict[OpClass, FunctionalUnitConfig] = {}
        for op in OpClass:
            if op in (OpClass.LOAD, OpClass.STORE, OpClass.TCA):
                continue
            self._configs[op] = config.fu_for(op)
        self._ports_left: dict[OpClass, int] = {}
        # For non-pipelined units: cycle at which each port frees up.
        self._busy_until: dict[OpClass, list[int]] = {
            op: [0] * cfg.ports
            for op, cfg in self._configs.items()
            if not cfg.pipelined
        }
        self.new_cycle(0)

    def new_cycle(self, cycle: int) -> None:
        """Reset per-cycle port budgets for ``cycle``."""
        self._cycle = cycle
        for op, cfg in self._configs.items():
            if cfg.pipelined:
                self._ports_left[op] = cfg.ports
            else:
                self._ports_left[op] = sum(
                    1 for busy in self._busy_until[op] if busy <= cycle
                )

    def latency_of(self, op: OpClass) -> int:
        """The execution latency of an op class."""
        return self._configs[op].latency

    def try_issue(self, op: OpClass, latency_override: int | None = None) -> int | None:
        """Attempt to claim a port for ``op`` this cycle.

        Returns:
            The execution latency on success, ``None`` if no port is free.
        """
        cfg = self._configs[op]
        if self._ports_left[op] <= 0:
            return None
        self._ports_left[op] -= 1
        latency = latency_override if latency_override is not None else cfg.latency
        latency = max(1, latency)
        if not cfg.pipelined:
            busy = self._busy_until[op]
            for i, until in enumerate(busy):
                if until <= self._cycle:
                    busy[i] = self._cycle + latency
                    break
        return latency


class TCAUnit:
    """Occupancy tracking for the accelerator block(s).

    Args:
        mode: integration mode, kept for introspection/reporting.
        capacity: concurrent invocations supported (default 1).
    """

    def __init__(self, mode: TCAMode, capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"TCA unit capacity must be positive, got {capacity}")
        self.mode = mode
        self.capacity = capacity
        self._active: list["DynInst"] = []
        self.started = 0
        self.finished = 0

    @property
    def current(self) -> Optional["DynInst"]:
        """The oldest invocation currently executing, if any."""
        return self._active[0] if self._active else None

    @property
    def busy(self) -> bool:
        """Whether the unit has no free invocation slot."""
        return len(self._active) >= self.capacity

    @property
    def active(self) -> tuple["DynInst", ...]:
        """All in-flight invocations, oldest first."""
        return tuple(self._active)

    def oldest_with_pending_reads(self) -> Optional["DynInst"]:
        """The oldest active invocation that still has reads to issue."""
        for dyn in self._active:
            descriptor = dyn.inst.tca
            assert descriptor is not None
            if dyn.tca_read_index < len(descriptor.reads):
                return dyn
        return None

    def try_start(self, dyn: "DynInst") -> bool:
        """Claim an invocation slot for ``dyn``; fails when at capacity."""
        if len(self._active) >= self.capacity:
            return False
        self._active.append(dyn)
        self._active.sort(key=lambda d: d.seq)
        self.started += 1
        return True

    def finish(self, dyn: "DynInst") -> None:
        """Release ``dyn``'s slot when it completes."""
        try:
            self._active.remove(dyn)
        except ValueError:
            raise RuntimeError(
                "TCA completion for an invocation that is not active"
            ) from None
        self.finished += 1


class RedirectUnit:
    """Tracks the oldest unresolved mispredicted branch blocking dispatch.

    Args:
        penalty: front-end refill cycles charged after the branch resolves.
    """

    def __init__(self, penalty: int) -> None:
        self.penalty = penalty
        self._blocking: Optional["DynInst"] = None

    @property
    def active(self) -> bool:
        """Whether dispatch is currently blocked on a redirect."""
        return self._blocking is not None

    def block_on(self, branch: "DynInst") -> None:
        """Begin blocking dispatch behind ``branch``."""
        self._blocking = branch

    def resume_cycle(self) -> int | None:
        """Cycle at which dispatch may resume, if the branch has resolved."""
        if self._blocking is None:
            return None
        if self._blocking.complete_cycle is None:
            return None
        return self._blocking.complete_cycle + self.penalty

    def try_release(self, cycle: int) -> bool:
        """Release the block if the redirect has fully resolved by ``cycle``."""
        resume = self.resume_cycle()
        if resume is not None and cycle >= resume:
            self._blocking = None
            return True
        return False


# Completion-event kinds (heap payload tags).
_EV_OP = 0
_EV_TCA_READ = 1
_EV_MSHR = 2


class ReferenceCoreSim:
    """Seed cycle-level execution of one trace on one core configuration.

    Args:
        config: core configuration (including the TCA integration mode).
        trace: dynamic instruction stream to execute.
        warm_ranges: optional ``(addr, size)`` byte ranges pre-loaded into
            the caches before simulation (e.g. warmed data structures).
    """

    def __init__(
        self,
        config: SimConfig,
        trace: Trace,
        warm_ranges: list[tuple[int, int]] | None = None,
    ) -> None:
        self.config = config
        self.trace = trace
        self.stats = SimStats()
        self.rob = ReorderBuffer(config.rob_size)
        self.iq = IssueQueue(config.iq_size)
        self.lsq = LoadStoreQueue(config.lq_size, config.sq_size)
        self.rename = RenameTable()
        self.fus = FUPool(config)
        self.redirect = RedirectUnit(config.redirect_penalty)
        self.tca_unit = TCAUnit(config.tca_mode, capacity=config.tca_units)
        self.cache = CacheHierarchy(
            CacheConfig(config.l1d_size, config.l1d_assoc, config.l1d_latency),
            CacheConfig(config.l2_size, config.l2_assoc, config.l2_latency),
            config.mem_latency,
            prefetch_next_line=config.prefetch_next_line,
        )
        for addr, size in warm_ranges or ():
            self.cache.warm(addr, size)
        self._events: list[tuple[int, int, int, DynInst]] = []
        self._pc = 0
        self._committed = 0
        self._barrier: DynInst | None = None
        self._mshr_outstanding = 0
        self._last_stall = StallReason.NONE
        # In-flight low-confidence branches (for the §VIII partial-
        # speculation policy); pruned lazily as they complete.
        self._lowconf_branches: list[DynInst] = []

    # ------------------------------------------------------------------ run

    def run(self) -> SimStats:
        """Execute the trace to completion and return statistics."""
        trace_len = len(self.trace)
        cycle = 0
        max_cycles = self.config.max_cycles
        while self._committed < trace_len:
            if cycle > max_cycles:
                raise DeadlockError(
                    f"exceeded max_cycles={max_cycles} "
                    f"(committed {self._committed}/{trace_len})"
                )
            self._process_completions(cycle)
            self._commit(cycle)
            self._issue(cycle)
            dispatched = self._dispatch(cycle)

            rob_len = len(self.rob)
            if rob_len > self.stats.max_rob_occupancy:
                self.stats.max_rob_occupancy = rob_len

            if dispatched == 0 and self._last_stall is not StallReason.NONE:
                self.stats.add_stall(self._last_stall)
            self.stats.rob_occupancy_sum += rob_len
            self.stats.rob_samples += 1

            cycle += 1
        self.stats.cycles = cycle
        return self.stats

    # ---------------------------------------------------------- completions

    def _process_completions(self, cycle: int) -> int:
        events = self._events
        processed = 0
        while events and events[0][0] <= cycle:
            _when, _seq, kind, dyn = heapq.heappop(events)
            processed += 1
            if kind == _EV_OP:
                self._complete(dyn, cycle)
            elif kind == _EV_TCA_READ:
                dyn.tca_reads_left -= 1
                if dyn.tca_reads_left == 0 and dyn.tca_read_index >= len(
                    dyn.inst.tca.reads  # type: ignore[union-attr]
                ):
                    self._schedule_tca_compute(dyn, cycle)
            else:  # _EV_MSHR
                self._mshr_outstanding -= 1
        return processed

    def _complete(self, dyn: DynInst, cycle: int) -> None:
        dyn.completed = True
        dyn.complete_cycle = cycle
        for dep in dyn.dependents:
            dep.deps -= 1
            if dep.deps == 0:
                self._mark_ready(dep, cycle)
        dyn.dependents.clear()
        if dyn.inst.is_tca:
            self.tca_unit.finish(dyn)
            assert dyn.tca_start_cycle is not None
            self.stats.tca_exec_cycles += cycle - dyn.tca_start_cycle

    def _schedule_tca_compute(self, dyn: DynInst, cycle: int) -> None:
        latency = max(1, dyn.inst.tca.compute_latency)  # type: ignore[union-attr]
        heapq.heappush(self._events, (cycle + latency, dyn.seq, _EV_OP, dyn))

    def _mark_ready(self, dyn: DynInst, cycle: int) -> None:
        if dyn.first_ready_cycle is None:
            dyn.first_ready_cycle = cycle
        self.iq.mark_ready(dyn, cycle)

    # --------------------------------------------------------------- commit

    def _commit(self, cycle: int) -> int:
        commits = 0
        latency = self.config.commit_latency
        width = self.config.commit_width
        while commits < width:
            head = self.rob.head()
            if head is None or not head.completed:
                break
            assert head.complete_cycle is not None
            if cycle < head.complete_cycle + latency:
                break
            self._commit_one(head, cycle)
            commits += 1
        return commits

    def _commit_one(self, head: DynInst, cycle: int) -> None:
        self.rob.pop_head()
        inst = head.inst
        op = inst.op
        if op is OpClass.LOAD:
            self.lsq.release_load()
            self.stats.loads += 1
        elif op is OpClass.STORE:
            self.lsq.release_store()
            self.lsq.deregister_writer(head)
            assert inst.addr is not None
            self.cache.write(inst.addr, inst.size)
            self.stats.stores += 1
        elif op is OpClass.BRANCH:
            self.stats.branches += 1
            if inst.mispredicted:
                self.stats.mispredicts += 1
        elif op is OpClass.TCA:
            descriptor = inst.tca
            assert descriptor is not None
            if descriptor.writes:
                self.lsq.deregister_writer(head)
                for req in descriptor.writes:
                    self.cache.write(req.addr, req.size)
                self.stats.tca_write_requests += len(descriptor.writes)
            self.stats.tca_invocations += 1
        for dst in inst.dsts:
            self.rename.clear_if_producer(dst, head)
        if self._barrier is head:
            self._barrier = None
        self._committed += 1
        self.stats.instructions += 1

    # ---------------------------------------------------------------- issue

    def _issue(self, cycle: int) -> int:
        self.fus.new_cycle(cycle)
        issued = 0
        issue_left = self.config.issue_width
        load_ports = self.config.load_ports
        store_ports = self.config.store_ports
        deferred: list[DynInst] = []
        tca_reads_allowed = True

        while issue_left > 0:
            active_tca = (
                self.tca_unit.oldest_with_pending_reads()
                if tca_reads_allowed
                else None
            )
            tca_seq = active_tca.seq if active_tca is not None else None
            cand_seq = self.iq.peek_ready_seq(cycle)
            if tca_seq is not None and (cand_seq is None or tca_seq < cand_seq):
                # Older TCA read request competes for a load port first
                # (age-based arbitration, paper §IV).
                if load_ports > 0 and self._issue_tca_read(active_tca, cycle):
                    load_ports -= 1
                    issue_left -= 1
                    issued += 1
                    continue
                tca_reads_allowed = False
                continue
            if cand_seq is None:
                break
            dyn = self.iq.pop_ready(cycle)
            assert dyn is not None
            ok, used_load, used_store = self._try_issue_inst(
                dyn, cycle, load_ports, store_ports
            )
            if ok:
                issued += 1
                issue_left -= 1
                load_ports -= used_load
                store_ports -= used_store
            else:
                deferred.append(dyn)
        for dyn in deferred:
            self.iq.mark_ready(dyn, cycle + 1)
        return issued

    def _issue_tca_read(self, dyn: DynInst, cycle: int) -> bool:
        descriptor = dyn.inst.tca
        assert descriptor is not None
        req = descriptor.reads[dyn.tca_read_index]
        missed = self._would_miss(req.addr, req.size)
        if missed and self._mshr_outstanding >= self.config.mshrs:
            return False
        latency, missed = self.cache.access(req.addr, req.size)
        dyn.tca_read_index += 1
        dyn.tca_reads_left += 1
        heapq.heappush(self._events, (cycle + latency, dyn.seq, _EV_TCA_READ, dyn))
        if missed:
            self._mshr_outstanding += 1
            heapq.heappush(self._events, (cycle + latency, dyn.seq, _EV_MSHR, dyn))
        self.stats.tca_read_requests += 1
        return True

    def _try_issue_inst(
        self, dyn: DynInst, cycle: int, load_ports: int, store_ports: int
    ) -> tuple[bool, int, int]:
        """Attempt to issue one instruction; returns (ok, loads_used, stores_used)."""
        inst = dyn.inst
        op = inst.op
        if op is OpClass.TCA:
            return self._try_start_tca(dyn, cycle), 0, 0
        if op is OpClass.LOAD:
            if load_ports <= 0:
                return False, 0, 0
            assert inst.addr is not None
            if dyn.forwarded:
                latency = self.config.forward_latency
            else:
                if self._would_miss(inst.addr, inst.size) and (
                    self._mshr_outstanding >= self.config.mshrs
                ):
                    return False, 0, 0
                latency, missed = self.cache.access(inst.addr, inst.size)
                if missed:
                    self._mshr_outstanding += 1
                    heapq.heappush(
                        self._events, (cycle + latency, dyn.seq, _EV_MSHR, dyn)
                    )
            self._finish_issue(dyn, cycle, latency)
            return True, 1, 0
        if op is OpClass.STORE:
            if store_ports <= 0:
                return False, 0, 0
            self._finish_issue(dyn, cycle, 1)
            return True, 0, 1
        latency = self.fus.try_issue(op, inst.latency)
        if latency is None:
            return False, 0, 0
        self._finish_issue(dyn, cycle, latency)
        return True, 0, 0

    def _finish_issue(self, dyn: DynInst, cycle: int, latency: int) -> None:
        dyn.issued = True
        self.iq.release()
        heapq.heappush(self._events, (cycle + latency, dyn.seq, _EV_OP, dyn))

    def _try_start_tca(self, dyn: DynInst, cycle: int) -> bool:
        mode = self.config.tca_mode
        if not mode.leading:
            if self.config.partial_speculation:
                # Confidence-gated speculation (paper §VIII): start once
                # every older low-confidence branch has resolved.
                if self._has_unresolved_lowconf_branch(dyn.seq):
                    return False
            elif self.rob.head() is not dyn:
                # Non-speculative TCA: wait for every leading instruction
                # to commit (ROB drain) before beginning execution.
                return False
        if not self.tca_unit.try_start(dyn):
            return False
        dyn.issued = True
        dyn.tca_start_cycle = cycle
        if dyn.first_ready_cycle is not None:
            self.stats.tca_wait_drain_cycles += cycle - dyn.first_ready_cycle
        self.iq.release()
        descriptor = dyn.inst.tca
        assert descriptor is not None
        if not descriptor.reads:
            self._schedule_tca_compute(dyn, cycle)
        return True

    def _has_unresolved_lowconf_branch(self, seq: int) -> bool:
        """Whether any older low-confidence branch is still in flight."""
        live: list[DynInst] = []
        blocked = False
        for branch in self._lowconf_branches:
            if branch.completed:
                continue
            live.append(branch)
            if branch.seq < seq:
                blocked = True
        self._lowconf_branches = live
        return blocked

    def _would_miss(self, addr: int, size: int) -> bool:
        line = self.cache.l1.config.line
        first = addr - (addr % line)
        last = addr + size - 1
        line_addr = first
        while line_addr <= last:
            if not self.cache.l1.contains(line_addr):
                return True
            line_addr += line
        return False

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, cycle: int) -> int:
        trace = self.trace.instructions
        trace_len = len(trace)
        dispatched = 0
        self._last_stall = StallReason.NONE
        width = self.config.dispatch_width
        while dispatched < width:
            if self._pc >= trace_len:
                if dispatched == 0:
                    self._last_stall = StallReason.TRACE_DRAINED
                break
            if cycle < self.config.frontend_depth:
                self._last_stall = StallReason.FRONTEND_FILL
                break
            if self._barrier is not None:
                self._last_stall = StallReason.TCA_BARRIER
                break
            if self.redirect.active and not self.redirect.try_release(cycle):
                self._last_stall = StallReason.BRANCH_REDIRECT
                break
            if self.rob.full:
                self._last_stall = StallReason.ROB_FULL
                break
            inst = trace[self._pc]
            op = inst.op
            if self.iq.full:
                self._last_stall = StallReason.IQ_FULL
                break
            if op is OpClass.LOAD and self.lsq.lq_full:
                self._last_stall = StallReason.LQ_FULL
                break
            if op is OpClass.STORE and self.lsq.sq_full:
                self._last_stall = StallReason.SQ_FULL
                break
            dyn = self._dispatch_one(inst, cycle)
            dispatched += 1
            self.stats.dispatched += 1
            if op is OpClass.TCA and not self.config.tca_mode.trailing:
                # NT modes: the TCA is a dispatch barrier until it commits.
                self._barrier = dyn
                break
            if inst.mispredicted:
                self.redirect.block_on(dyn)
                break
        return dispatched

    def _dispatch_one(self, inst: Instruction, cycle: int) -> DynInst:
        dyn = DynInst(inst, self._pc)
        self._pc += 1
        producers: set[int] = set()
        for src in inst.srcs:
            producer = self.rename.producer_of(src)
            if producer is not None and id(producer) not in producers:
                producers.add(id(producer))
                dyn.deps += 1
                producer.dependents.append(dyn)
        op = inst.op
        if op is OpClass.LOAD:
            assert inst.addr is not None
            writer = self.lsq.youngest_conflicting_writer(
                dyn.seq, inst.addr, inst.size
            )
            if writer is not None and id(writer) not in producers:
                producers.add(id(writer))
                dyn.deps += 1
                writer.dependents.append(dyn)
                dyn.forwarded = True
            elif writer is not None:
                dyn.forwarded = True
            self.lsq.allocate_load()
        elif op is OpClass.STORE:
            assert inst.addr is not None
            self.lsq.allocate_store()
            self.lsq.register_writer(dyn, ((inst.addr, inst.size),))
        elif op is OpClass.TCA:
            descriptor = inst.tca
            assert descriptor is not None
            for req in descriptor.reads:
                writer = self.lsq.youngest_conflicting_writer(
                    dyn.seq, req.addr, req.size
                )
                if writer is not None and id(writer) not in producers:
                    producers.add(id(writer))
                    dyn.deps += 1
                    writer.dependents.append(dyn)
            if descriptor.writes:
                self.lsq.register_writer(
                    dyn, tuple((w.addr, w.size) for w in descriptor.writes)
                )
        if inst.low_confidence:
            self._lowconf_branches.append(dyn)
        for dst in inst.dsts:
            self.rename.set_producer(dst, dyn)
        self.iq.allocate()
        self.rob.push(dyn)
        if dyn.deps == 0:
            self._mark_ready(dyn, cycle + 1)
        return dyn
