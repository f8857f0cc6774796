"""The out-of-order pipeline: dispatch, issue, execute, commit.

One :class:`CoreSim` instance executes one trace to completion.  The
pipeline is modelled at the level the paper's analytical model abstracts:

- an in-order front end dispatching up to ``dispatch_width`` instructions
  per cycle into the ROB/IQ/LSQ, stalling on structural fullness, TCA
  dispatch barriers (NT modes), and branch redirects;
- an age-priority out-of-order issue stage with per-class functional-unit
  ports, shared load/store ports, and MSHR-limited cache misses;
- register renaming (producer tracking) and conservative memory
  disambiguation with store-to-load forwarding;
- in-order commit of up to ``commit_width`` instructions per cycle, each
  eligible ``commit_latency`` cycles after completing — the backend
  component of the paper's ``t_commit``.

TCA semantics follow paper §III/§IV: the accelerator reserves a ROB entry,
commits in order, issues its memory requests through the shared load ports
with age-based priority, may not start until ROB head in NL modes
(non-speculative flag), and blocks dispatch until commit in NT modes
(serialize-after flag).

Since the compile-once pipeline (:mod:`repro.sim.compile`) the engine is
split in two: :func:`~repro.sim.compile.compile_trace` pays the
trace-static analysis once (dependency edges, op/latency tables, cache-line
spans, pre-chunked TCA requests), and :class:`CoreSim` executes against the
resulting :class:`~repro.sim.compile.CompiledTrace` plus a pooled per-run
state block of flat arrays — no per-instruction object allocation, no
rename table, and a reorder buffer reduced to the contiguous sequence window
``[committed, pc)``.  The run loop skips stage calls whose structures are
provably idle and fast-forwards over cycles where no pipeline event can
occur, attributing the skipped cycles to the active dispatch-stall reason,
so wall-clock cost scales with events rather than cycles.

The stats produced are byte-identical (``SimStats.to_dict()``) to the seed
object-per-instruction engine, which steps every cycle and lives outside
the package as a test oracle (``tests/seed_engine.py``); the seeded
equivalence suite in ``tests/test_sim_equivalence.py`` pins the match.
"""

from __future__ import annotations

import heapq
from bisect import insort

from repro.isa.trace import Trace
from repro.obs.tracer import PipelineTracer, get_active_tracer
from repro.sim.cache import CacheConfig, CacheHierarchy
from repro.sim.compile import (
    FU_CLASSES,
    CompiledTrace,
    compile_trace,
    warm_lines,
)
from repro.sim.config import SimConfig
from repro.sim.stats import SimStats, StallReason

# Completion-event kinds (heap payload tags).
_EV_OP = 0
_EV_TCA_READ = 1
_EV_MSHR = 2

# Stall reasons as flat indices: the per-cycle accounting uses int list
# slots instead of enum-keyed dict lookups (Enum.__hash__ is a Python-level
# call), and converts back to StallReason only when flushing SimStats.
_STALL_REASONS = tuple(StallReason)
_STALL_INDEX = {reason: i for i, reason in enumerate(_STALL_REASONS)}


class DeadlockError(RuntimeError):
    """The pipeline can make no further progress (internal invariant broken)."""


class CycleLimitError(DeadlockError):
    """The run exceeded its configuration's ``max_cycles`` watchdog bound."""


class CoreSim:
    """Cycle-level execution of one trace on one core configuration.

    Args:
        config: core configuration (including the TCA integration mode).
        trace: dynamic instruction stream to execute — a
            :class:`~repro.isa.trace.Trace` (compiled on first use and
            memoized on the trace object) or an already-compiled
            :class:`~repro.sim.compile.CompiledTrace`.
        warm_ranges: optional ``(addr, size)`` byte ranges pre-loaded into
            the caches before simulation (e.g. warmed data structures).
        tracer: optional :class:`~repro.obs.tracer.PipelineTracer`
            receiving per-instruction dispatch/issue/complete/commit and
            stall events.  Defaults to the ambient tracer installed via
            :func:`repro.obs.tracer.tracing` (``None`` = tracing off).
            Disabled tracers are normalised to ``None`` so the hot loop
            pays exactly one attribute check per event site.
        start: first trace index to execute (segment runs; see below).
        stop: one past the last trace index to execute (default: the
            trace end).
        cache_state: a :meth:`CacheHierarchy.export_state` snapshot
            loaded into the hierarchy before the run (applied after
            ``warm_ranges``), letting a segment resume with the cache
            residency a preceding segment left behind.

    **Segment runs** (``start``/``stop``/``cache_state``) execute the
    half-open index window ``[start, stop)`` of the compiled trace: the
    pipeline starts empty at ``start`` (instructions before it are
    treated as architecturally complete — register producers below
    ``start`` carry no dependence, earlier stores are assumed drained)
    and runs until every instruction below ``stop`` has committed.  A
    full run (``start=0``, ``stop=None``) takes exactly the historical
    code path and stays byte-identical to the reference engine; segment
    runs are the substrate of :mod:`repro.sim.sample`'s interval
    sampling and resumable checkpoints.

    ``run()`` executes once; construct a fresh ``CoreSim`` per run (the
    compiled trace is shared, so repeat construction is cheap).
    """

    def __init__(
        self,
        config: SimConfig,
        trace: Trace | CompiledTrace,
        warm_ranges: list[tuple[int, int]] | None = None,
        tracer: PipelineTracer | None = None,
        *,
        start: int = 0,
        stop: int | None = None,
        cache_state: dict | None = None,
    ) -> None:
        compiled = compile_trace(trace)
        self.config = config
        self.compiled = compiled
        resolved_stop = compiled.length if stop is None else stop
        if not 0 <= start <= resolved_stop <= compiled.length:
            raise ValueError(
                f"invalid segment [{start}, {resolved_stop}) for a "
                f"{compiled.length}-instruction trace"
            )
        self._start = start
        self._stop = resolved_stop
        if tracer is None:
            tracer = get_active_tracer()
        if tracer is not None and not tracer.enabled:
            tracer = None
        if tracer is not None:
            tracer.ensure_run(compiled.name, config.name, config.tca_mode.value)
        self._tracer = tracer
        self.stats = SimStats()
        self.cache = CacheHierarchy(
            CacheConfig(config.l1d_size, config.l1d_assoc, config.l1d_latency),
            CacheConfig(config.l2_size, config.l2_assoc, config.l2_latency),
            config.mem_latency,
            prefetch_next_line=config.prefetch_next_line,
        )
        if warm_ranges:
            self.cache.warm_lines(warm_lines(warm_ranges))
        if cache_state is not None:
            self.cache.load_state(cache_state)

    # ------------------------------------------------------------------ run

    def run(self) -> SimStats:
        """Execute the (segment of the) trace and return statistics."""
        if self._tracer is None:
            from repro.sim import backend

            stats = backend.try_run_native(self)
            if stats is not None:
                return stats
        compiled = self.compiled
        start = self._start
        state = compiled.acquire_state()
        if start:
            # Producers below the segment are architecturally complete.
            # The pool may hand back a block whose completed[] prefix was
            # lazily dirtied by a differently-bounded earlier run, so the
            # prefix is stamped explicitly (a bytearray slice assign — a
            # C-level fill, cheap even for million-instruction traces).
            state.completed[:start] = b"\x01" * start
        stats = self._run(compiled, state, start, self._stop)
        # A run that raised leaves the state block dirty; only clean
        # completions recycle it (RunState reuse relies on the run's
        # self-cleaning invariants).
        compiled.release_state(state)
        return stats

    def _run(self, ct: CompiledTrace, st, start: int = 0, stop: int | None = None) -> SimStats:
        config = self.config
        stats = self.stats
        tracer = self._tracer
        cache = self.cache
        trace_len = ct.length if stop is None else stop

        # Compiled (trace-static) tables, in their Python-object form.
        tables = ct.oracle
        kind = tables.kind
        op_value = tables.op_value
        fu_class = tables.fu_class
        lat_override = tables.lat_override
        mispredicted_t = tables.mispredicted
        low_conf = tables.low_conf
        mem_addr = tables.mem_addr
        mem_size = tables.mem_size
        mem_lines = tables.mem_lines
        commit_write_lines = tables.commit_write_lines
        writer_ranges = tables.writer_ranges
        writer_lo = tables.writer_lo
        writer_hi = tables.writer_hi
        reg_edges = tables.reg_edges
        edge_consumer = tables.edge_consumer
        reg_producers = tables.reg_producers
        mem_edge_base = tables.mem_edge_base
        tca_reads_t = tables.tca_reads
        tca_read_lines = tables.tca_read_lines
        tca_read_count = tables.tca_read_count
        tca_write_count = tables.tca_write_count
        tca_compute_latency = tables.tca_compute_latency

        # Pooled per-run state.
        completed = st.completed
        complete_cycle = st.complete_cycle
        deps = st.deps
        first_ready = st.first_ready
        forwarded = st.forwarded
        tca_read_index = st.tca_read_index
        tca_reads_left = st.tca_reads_left
        tca_start_cycle = st.tca_start_cycle
        dep_head = st.dep_head
        edge_next = st.edge_next

        # Configuration.
        dispatch_width = config.dispatch_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        rob_size = config.rob_size
        iq_size = config.iq_size
        lq_size = config.lq_size
        sq_size = config.sq_size
        frontend_depth = config.frontend_depth
        commit_latency = config.commit_latency
        redirect_penalty = config.redirect_penalty
        load_ports_n = config.load_ports
        store_ports_n = config.store_ports
        forward_latency = config.forward_latency
        mshr_limit = config.mshrs
        max_cycles = config.max_cycles
        mode = config.tca_mode
        mode_leading = mode.leading
        mode_trailing = mode.trailing
        partial_spec = config.partial_speculation
        tca_units = config.tca_units

        # Functional-unit port state (only classes the trace uses).
        fu_used = ct.fu_used
        n_fu = len(FU_CLASSES)
        fu_ports = [0] * n_fu
        fu_latency = [1] * n_fu
        fu_pipelined = [True] * n_fu
        fu_busy: list[list[int] | None] = [None] * n_fu
        fu_left = [0] * n_fu
        for cls in fu_used:
            fu_cfg = config.fu_for(FU_CLASSES[cls])
            fu_ports[cls] = fu_cfg.ports
            fu_latency[cls] = max(1, fu_cfg.latency)
            fu_pipelined[cls] = fu_cfg.pipelined
            if not fu_cfg.pipelined:
                fu_busy[cls] = [0] * fu_cfg.ports

        heappush = heapq.heappush
        heappop = heapq.heappop
        l1_contains = cache.l1.contains
        access_lines = cache.access_lines
        write_lines = cache.write_lines

        # Both heaps hold packed ints instead of tuples: an event is
        # (when << 40) | (seq << 2) | kind and a ready entry is
        # (cycle << 40) | seq, so heap comparisons are single int
        # compares yet order exactly like the (when, seq, kind) /
        # (cycle, seq) tuples the reference engine uses.  Python ints
        # are unbounded, so when/cycle never overflow the packing.
        SEQ_MASK = (1 << 38) - 1
        READY_MASK = (1 << 40) - 1
        events: list[int] = []
        ready: list[int] = []
        writers: list[int] = []
        writers_start = 0
        lowconf: list[int] = []
        tca_active: list[int] = []
        tca_pending = 0  # started TCAs with reads still to issue

        pc = start
        committed = start
        barrier = -1
        redirect_seq = -1
        mshr_out = 0
        iq_occ = 0
        lq_count = 0
        sq_count = 0
        S_NONE = _STALL_INDEX[StallReason.NONE]
        S_FRONTEND_FILL = _STALL_INDEX[StallReason.FRONTEND_FILL]
        S_TCA_BARRIER = _STALL_INDEX[StallReason.TCA_BARRIER]
        S_BRANCH_REDIRECT = _STALL_INDEX[StallReason.BRANCH_REDIRECT]
        S_ROB_FULL = _STALL_INDEX[StallReason.ROB_FULL]
        S_IQ_FULL = _STALL_INDEX[StallReason.IQ_FULL]
        S_LQ_FULL = _STALL_INDEX[StallReason.LQ_FULL]
        S_SQ_FULL = _STALL_INDEX[StallReason.SQ_FULL]
        S_TRACE_DRAINED = _STALL_INDEX[StallReason.TRACE_DRAINED]
        last_stall = S_NONE

        # Stat accumulators (flushed into SimStats at the end).
        s_dispatched = 0
        s_instructions = 0
        s_loads = 0
        s_stores = 0
        s_branches = 0
        s_mispredicts = 0
        s_tca_inv = 0
        s_tca_reads = 0
        s_tca_writes = 0
        s_tca_wait = 0
        s_tca_exec = 0
        rob_occ_sum = 0
        rob_samples = 0
        max_rob = 0
        stall_counts = [0] * len(_STALL_REASONS)

        cycle = 0
        while committed < trace_len:
            if cycle > max_cycles:
                raise CycleLimitError(
                    f"exceeded max_cycles={max_cycles} "
                    f"(committed {committed}/{trace_len})"
                )
            progress = 0

            # ------------------------------------------------- completions
            ready_key = cycle << 40
            while events and (events[0] >> 40) <= cycle:
                ev = heappop(events)
                ekind = ev & 3
                s = (ev >> 2) & SEQ_MASK
                progress += 1
                if ekind == _EV_OP:
                    completed[s] = 1
                    complete_cycle[s] = cycle
                    if tracer is not None:
                        tracer.on_complete(s, cycle)
                    e = dep_head[s]
                    while e >= 0:
                        c = edge_consumer[e]
                        d = deps[c] - 1
                        deps[c] = d
                        if d == 0:
                            first_ready[c] = cycle
                            heappush(ready, ready_key | c)
                        e = edge_next[e]
                    dep_head[s] = -1
                    if kind[s] == 2:  # TCA
                        tca_active.remove(s)
                        s_tca_exec += cycle - tca_start_cycle[s]
                elif ekind == _EV_TCA_READ:
                    r = tca_reads_left[s] - 1
                    tca_reads_left[s] = r
                    if r == 0 and tca_read_index[s] >= tca_read_count[s]:
                        heappush(
                            events,
                            ((cycle + tca_compute_latency[s]) << 40)
                            | (s << 2),
                        )
                else:  # _EV_MSHR
                    mshr_out -= 1

            # ------------------------------------------------------ commit
            commits = 0
            while commits < commit_width and committed < pc:
                h = committed
                if not completed[h] or cycle < complete_cycle[h] + commit_latency:
                    break
                hk = kind[h]
                if hk == 0:  # LOAD
                    lq_count -= 1
                    s_loads += 1
                elif hk == 1:  # STORE
                    sq_count -= 1
                    write_lines(commit_write_lines[h])
                    s_stores += 1
                elif hk == 3:  # BRANCH
                    s_branches += 1
                    if mispredicted_t[h]:
                        s_mispredicts += 1
                elif hk == 2:  # TCA
                    wl = commit_write_lines[h]
                    if wl is not None:
                        write_lines(wl)
                        s_tca_writes += tca_write_count[h]
                    s_tca_inv += 1
                if barrier == h:
                    barrier = -1
                committed = h + 1
                s_instructions += 1
                if tracer is not None:
                    tracer.on_commit(h, cycle)
                commits += 1
            progress += commits

            # ------------------------------------------------------- issue
            issued = 0
            ready_limit = (cycle + 1) << 40
            if (ready and ready[0] < ready_limit) or tca_pending:
                for cls in fu_used:
                    if fu_pipelined[cls]:
                        fu_left[cls] = fu_ports[cls]
                    else:
                        n_free = 0
                        for b in fu_busy[cls]:
                            if b <= cycle:
                                n_free += 1
                        fu_left[cls] = n_free
                issue_left = issue_width
                lports = load_ports_n
                sports = store_ports_n
                deferred: list[int] = []
                tca_reads_allowed = True
                while issue_left > 0:
                    atca = -1
                    if tca_reads_allowed and tca_active:
                        for t in tca_active:
                            if tca_read_index[t] < tca_read_count[t]:
                                atca = t
                                break
                    cand = -1
                    if ready and ready[0] < ready_limit:
                        cand = ready[0] & READY_MASK
                    if atca >= 0 and (cand < 0 or atca < cand):
                        # Older TCA read request competes for a load port
                        # first (age-based arbitration, paper §IV).
                        did_read = False
                        if lports > 0:
                            idx = tca_read_index[atca]
                            rlines = tca_read_lines[atca][idx]
                            blocked = False
                            if mshr_out >= mshr_limit:
                                for la in rlines:
                                    if not l1_contains(la):
                                        blocked = True
                                        break
                            if not blocked:
                                lat, missed = access_lines(rlines)
                                tca_read_index[atca] = idx + 1
                                tca_reads_left[atca] += 1
                                if idx + 1 == tca_read_count[atca]:
                                    tca_pending -= 1
                                ev = ((cycle + lat) << 40) | (atca << 2)
                                heappush(events, ev | _EV_TCA_READ)
                                if missed:
                                    mshr_out += 1
                                    heappush(events, ev | _EV_MSHR)
                                s_tca_reads += 1
                                did_read = True
                        if did_read:
                            lports -= 1
                            issue_left -= 1
                            issued += 1
                            continue
                        tca_reads_allowed = False
                        continue
                    if cand < 0:
                        break
                    heappop(ready)
                    k = cand
                    kk = kind[k]
                    if kk == 2:  # TCA start
                        ok = True
                        if not mode_leading:
                            if partial_spec:
                                # Confidence-gated speculation (paper
                                # §VIII): start once every older
                                # low-confidence branch has resolved.
                                blocked = False
                                if lowconf:
                                    live: list[int] = []
                                    for b in lowconf:
                                        if completed[b]:
                                            continue
                                        live.append(b)
                                        if b < k:
                                            blocked = True
                                    lowconf = live
                                if blocked:
                                    ok = False
                            elif committed != k:
                                # Non-speculative TCA: wait for every
                                # leading instruction to commit (ROB
                                # drain) before beginning execution.
                                ok = False
                        if ok and len(tca_active) >= tca_units:
                            ok = False
                        if ok:
                            insort(tca_active, k)
                            tca_start_cycle[k] = cycle
                            if tracer is not None:
                                tracer.on_issue(k, cycle)
                            s_tca_wait += cycle - first_ready[k]
                            iq_occ -= 1
                            if tca_read_count[k] == 0:
                                heappush(
                                    events,
                                    ((cycle + tca_compute_latency[k]) << 40)
                                    | (k << 2),
                                )
                            else:
                                tca_pending += 1
                            issued += 1
                            issue_left -= 1
                        else:
                            deferred.append(k)
                        continue
                    if kk == 0:  # LOAD
                        if lports <= 0:
                            deferred.append(k)
                            continue
                        if forwarded[k]:
                            lat = forward_latency
                        else:
                            llines = mem_lines[k]
                            if mshr_out >= mshr_limit:
                                wm = False
                                for la in llines:
                                    if not l1_contains(la):
                                        wm = True
                                        break
                                if wm:
                                    deferred.append(k)
                                    continue
                            lat, missed = access_lines(llines)
                            if missed:
                                mshr_out += 1
                                heappush(
                                    events,
                                    ((cycle + lat) << 40) | (k << 2) | _EV_MSHR,
                                )
                        iq_occ -= 1
                        heappush(events, ((cycle + lat) << 40) | (k << 2))
                        if tracer is not None:
                            tracer.on_issue(k, cycle)
                        issued += 1
                        issue_left -= 1
                        lports -= 1
                        continue
                    if kk == 1:  # STORE
                        if sports <= 0:
                            deferred.append(k)
                            continue
                        iq_occ -= 1
                        heappush(events, ((cycle + 1) << 40) | (k << 2))
                        if tracer is not None:
                            tracer.on_issue(k, cycle)
                        issued += 1
                        issue_left -= 1
                        sports -= 1
                        continue
                    # Functional-unit op.
                    cls = fu_class[k]
                    if fu_left[cls] <= 0:
                        deferred.append(k)
                        continue
                    fu_left[cls] -= 1
                    lat = lat_override[k]
                    if lat < 0:
                        lat = fu_latency[cls]
                    if not fu_pipelined[cls]:
                        busy = fu_busy[cls]
                        for i in range(len(busy)):
                            if busy[i] <= cycle:
                                busy[i] = cycle + lat
                                break
                    iq_occ -= 1
                    heappush(events, ((cycle + lat) << 40) | (k << 2))
                    if tracer is not None:
                        tracer.on_issue(k, cycle)
                    issued += 1
                    issue_left -= 1
                for k in deferred:
                    heappush(ready, ready_limit | k)
            progress += issued

            # ---------------------------------------------------- dispatch
            dispatched = 0
            last_stall = S_NONE
            while dispatched < dispatch_width:
                if pc >= trace_len:
                    if dispatched == 0:
                        last_stall = S_TRACE_DRAINED
                    break
                if cycle < frontend_depth:
                    last_stall = S_FRONTEND_FILL
                    break
                if barrier >= 0:
                    last_stall = S_TCA_BARRIER
                    break
                if redirect_seq >= 0:
                    if (
                        completed[redirect_seq]
                        and cycle >= complete_cycle[redirect_seq] + redirect_penalty
                    ):
                        redirect_seq = -1
                    else:
                        last_stall = S_BRANCH_REDIRECT
                        break
                if pc - committed >= rob_size:
                    last_stall = S_ROB_FULL
                    break
                k = pc
                kk = kind[k]
                if iq_occ >= iq_size:
                    last_stall = S_IQ_FULL
                    break
                if kk == 0 and lq_count >= lq_size:
                    last_stall = S_LQ_FULL
                    break
                if kk == 1 and sq_count >= sq_size:
                    last_stall = S_SQ_FULL
                    break
                pc = k + 1
                completed[k] = 0
                if tracer is not None:
                    tracer.on_dispatch(k, op_value[k], cycle)
                ndeps = 0
                for e, p in reg_edges[k]:
                    if completed[p]:
                        continue
                    ndeps += 1
                    edge_next[e] = dep_head[p]
                    dep_head[p] = e
                if kk == 0:  # LOAD: conservative disambiguation + forwarding
                    addr = mem_addr[k]
                    end = addr + mem_size[k]
                    while writers_start < len(writers) and (
                        writers[writers_start] < committed
                    ):
                        writers_start += 1
                    w = -1
                    for i in range(len(writers) - 1, writers_start - 1, -1):
                        ws = writers[i]
                        if completed[ws]:
                            continue
                        if writer_lo[ws] < end and addr < writer_hi[ws]:
                            for wa, wsz in writer_ranges[ws]:
                                if wa < end and addr < wa + wsz:
                                    w = ws
                                    break
                            if w >= 0:
                                break
                    if w >= 0:
                        forwarded[k] = 1
                        if w not in reg_producers[k]:
                            ndeps += 1
                            e = mem_edge_base[k]
                            edge_next[e] = dep_head[w]
                            dep_head[w] = e
                    else:
                        forwarded[k] = 0
                    lq_count += 1
                elif kk == 1:  # STORE
                    sq_count += 1
                    writers.append(k)
                elif kk == 2:  # TCA
                    tca_read_index[k] = 0
                    tca_reads_left[k] = 0
                    reads = tca_reads_t[k]
                    if reads:
                        while writers_start < len(writers) and (
                            writers[writers_start] < committed
                        ):
                            writers_start += 1
                        rp = reg_producers[k]
                        mem_e = mem_edge_base[k]
                        n_attached = 0
                        attached_mem: list[int] = []
                        for ra, rs in reads:
                            rend = ra + rs
                            w = -1
                            for i in range(
                                len(writers) - 1, writers_start - 1, -1
                            ):
                                ws = writers[i]
                                if completed[ws]:
                                    continue
                                if writer_lo[ws] < rend and ra < writer_hi[ws]:
                                    for wa, wsz in writer_ranges[ws]:
                                        if wa < rend and ra < wa + wsz:
                                            w = ws
                                            break
                                    if w >= 0:
                                        break
                            if w >= 0 and w not in rp and w not in attached_mem:
                                attached_mem.append(w)
                                ndeps += 1
                                e = mem_e + n_attached
                                n_attached += 1
                                edge_next[e] = dep_head[w]
                                dep_head[w] = e
                    if writer_ranges[k] is not None:
                        writers.append(k)
                if low_conf[k]:
                    lowconf.append(k)
                iq_occ += 1
                deps[k] = ndeps
                if ndeps == 0:
                    first_ready[k] = cycle + 1
                    heappush(ready, ((cycle + 1) << 40) | k)
                dispatched += 1
                s_dispatched += 1
                if kk == 2 and not mode_trailing:
                    # NT modes: the TCA is a dispatch barrier until commit.
                    barrier = k
                    break
                if mispredicted_t[k]:
                    redirect_seq = k
                    break
            progress += dispatched

            # ------------------------------------------------- end of cycle
            rob_len = pc - committed
            if rob_len > max_rob:
                max_rob = rob_len
            if dispatched == 0 and last_stall != S_NONE:
                stall_counts[last_stall] += 1
                if tracer is not None:
                    tracer.on_stall(_STALL_REASONS[last_stall].value, cycle)
            rob_occ_sum += rob_len
            rob_samples += 1

            if progress:
                cycle += 1
                continue

            # Fast-forward to the next cycle at which any pipeline event
            # can occur.  A zero-progress cycle is *sterile*: every ready
            # candidate was attempted and deferred, and each blocker
            # (MSHR free, FU port free, completion, commit eligibility,
            # redirect resume, frontend fill) resolves exactly at one of
            # the candidate times below — so re-attempting the deferred
            # instructions before then cannot succeed, and the ready heap
            # is re-keyed to the target instead of being polled every
            # cycle, as the seed engine does.
            target = -1
            if events:
                target = events[0] >> 40
            if redirect_seq >= 0 and completed[redirect_seq]:
                t2 = complete_cycle[redirect_seq] + redirect_penalty
                if target < 0 or t2 < target:
                    target = t2
            if committed < pc and completed[committed]:
                t2 = complete_cycle[committed] + commit_latency
                if target < 0 or t2 < target:
                    target = t2
            if cycle < frontend_depth:
                if target < 0 or frontend_depth < target:
                    target = frontend_depth
            if target < 0:
                if ready:
                    # No event will unblock the deferred candidates; step
                    # and let the watchdog bound the livelock (matches the
                    # seed engine's behaviour).
                    target = cycle + 1
                else:
                    raise DeadlockError(
                        f"no progress possible at cycle {cycle} "
                        f"(committed {committed}/{trace_len}, "
                        f"rob={rob_len}, pc={pc})"
                    )
            if target < cycle + 1:
                target = cycle + 1
            if target > max_cycles + 1:
                target = max_cycles + 1
            skipped = target - cycle - 1
            if skipped > 0:
                if last_stall != S_NONE:
                    stall_counts[last_stall] += skipped
                    if tracer is not None:
                        tracer.on_stall(
                            _STALL_REASONS[last_stall].value, cycle + 1, skipped
                        )
                rob_occ_sum += rob_len * skipped
                rob_samples += skipped
                if ready:
                    # Deferred entries would have been re-keyed forward one
                    # cycle at a time; jump them to the target so age-order
                    # arbitration at the target cycle matches stepping.  At
                    # this point every entry is keyed exactly cycle + 1
                    # (anything older was popped by the issue stage this
                    # cycle and re-deferred), so the uniform re-key
                    # preserves the heap invariant without a heapify.
                    target_key = target << 40
                    ready = [target_key | (v & READY_MASK) for v in ready]
            cycle = target

        stats.cycles = cycle
        stats.instructions = s_instructions
        stats.dispatched = s_dispatched
        stats.loads = s_loads
        stats.stores = s_stores
        stats.branches = s_branches
        stats.mispredicts = s_mispredicts
        stats.tca_invocations = s_tca_inv
        stats.tca_read_requests = s_tca_reads
        stats.tca_write_requests = s_tca_writes
        stats.tca_wait_drain_cycles = s_tca_wait
        stats.tca_exec_cycles = s_tca_exec
        stats.rob_occupancy_sum = rob_occ_sum
        stats.rob_samples = rob_samples
        stats.max_rob_occupancy = max_rob
        for i, reason in enumerate(_STALL_REASONS):
            count = stall_counts[i]
            if count:
                stats.stall_cycles[reason] = count
        return stats
