"""The C kernel that runs the CoreSim hot loop, and the engine choice.

``repro/sim/_native/coresim.c`` is a hand-maintained mirror of the
pure-Python event loop in :meth:`repro.sim.core.CoreSim._run`, compiled
once with the system C compiler (``$CC``, else ``cc``/``gcc``/``clang``)
into ``~/.cache/repro/native`` (``$REPRO_NATIVE_CACHE_DIR``) and driven
through ``ctypes`` over flat int64 arrays.  It needs no Python
dependency beyond NumPy.

The simulator picks its engine from what it can observe: the kernel runs
whenever the compiler builds it; the Python loop runs when it cannot,
and for runs with a :class:`~repro.obs.tracer.PipelineTracer` attached.
:func:`set_backend` / :func:`use_backend` pin the Python loop (or the
kernel) as the oracle hook for tests and benchmarks.

Both engines produce byte-identical ``SimStats.to_dict()`` payloads
(enforced by ``tests/test_sim_equivalence.py`` / ``test_sim_backends.py``)
and leave the run's :class:`~repro.sim.cache.CacheHierarchy` with the
same residency and hit/miss counters (also checked there).  A cache
snapshot is each level's ``(tags, cnt)`` block, the memory the kernel
reads, so the snapshots segment runs start from
(:func:`repro.sim.sample.simulate_segments`) come from and go to either
engine.

A warm native run pays for the kernel and little else:

- **Cache residency stays in the kernel's arrays.**  Each
  :class:`~repro.sim.cache._CacheLevel` owns an int64 ``(tags, cnt)``
  block that the kernel reads and writes in place; the per-set Python
  lists are built only when something asks for them (the Python loop,
  ``contains``/``access``).  A segment run adopts a private copy of its
  snapshot's blocks after one vectorized check (shape, dtype, and every
  ``cnt`` in ``[0, assoc]``), so it builds no list either.
  :func:`warm` warms the arrays in the kernel (``repro_cache_warm``),
  exactly as :meth:`~repro.sim.cache.CacheHierarchy.warm_lines` warms
  the lists.
- **Pointers are marshalled once.**  A :class:`PackedTrace` holds its
  columns' addresses and each pooled :class:`NativeRunState` its own;
  a run adds one int64 block for its config, counters and scratch
  arrays.  ``argtypes`` are set when the library loads.

The ``sim.kernel.marshal`` span covers assembling a run's arguments,
``sim.kernel`` the C call, and ``sim.cache.sync`` moving residency or
counters between the kernel's arrays and the Python objects.

Events and ready entries are packed ints exactly like the pure-Python
hot loop, but with a 32-bit cycle shift so they fit in int64
(``(when << 32) | (seq << 2) | kind`` and ``(cycle << 32) | seq``).
Construction bounds make every run representable:
:data:`~repro.sim.compile.MAX_TRACE_LENGTH` keeps ``seq < 2**30`` and
:data:`~repro.sim.config.MAX_CYCLES` keeps ``when < 2**31``, so the
packing cannot overflow and orders identically to the reference tuples.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path

import numpy as np

from repro.obs.span import span
from repro.sim.compile import FU_CLASSES, CompiledTrace
from repro.sim.stats import SimStats, StallReason

_STALL_REASONS = tuple(StallReason)

#: Native-state pool bound per PackedTrace (mirrors compile._POOL_MAX).
_POOL_MAX = 8

#: The CompiledTrace columns the kernel reads, in its argument order:
#: the int32 row index, the per-row tables it indexes, then the
#: per-instruction register-edge CSR and memory-edge slots.
_TRACE_COLUMNS = (
    "row",
    "kind", "fu_cls", "lat_over", "mispred", "lowconf_flag",
    "mem_addr", "mem_size", "ml_start", "ml_lines",
    "cw_start", "cw_lines",
    "wr_start", "wr_addr", "wr_size", "writer_lo", "writer_hi",
    "tr_start", "tr_addr", "tr_size", "trl_start", "trl_lines",
    "tca_read_count", "tca_write_count", "tca_comp_lat",
    "re_start", "edge_prod", "edge_cons", "mem_edge_base",
)

# Kernel array slot layouts — mirror the enums in _native/coresim.c.
(
    CFG_DISPATCH_W, CFG_ISSUE_W, CFG_COMMIT_W, CFG_ROB, CFG_IQ,
    CFG_LQ, CFG_SQ, CFG_FRONTEND, CFG_COMMIT_LAT, CFG_REDIRECT,
    CFG_LPORTS, CFG_SPORTS, CFG_FWD_LAT, CFG_MSHRS, CFG_MAX_CYCLES,
    CFG_LEADING, CFG_TRAILING, CFG_PARTIAL, CFG_TCA_UNITS,
    CFG_L1_LAT, CFG_L2_LAT, CFG_MEM_LAT, CFG_PREFETCH,
    CFG_L1_SETS, CFG_L1_ASSOC, CFG_L2_SETS, CFG_L2_ASSOC,
    CFG_LINE_SHIFT, CFG_START, CFG_STOP, CFG_EVENTS_CAP, CFG_READY_CAP,
    CFG_N_FU, CFG_LINE, CFG_WRITERS_CAP, CFG_LOWCONF_CAP,
) = range(36)
CFG_LEN = 36

(
    ST_CYCLES, ST_INSTR, ST_DISPATCHED, ST_LOADS, ST_STORES,
    ST_BRANCHES, ST_MISPRED, ST_TCA_INV, ST_TCA_READS, ST_TCA_WRITES,
    ST_TCA_WAIT, ST_TCA_EXEC, ST_ROB_SUM, ST_ROB_SAMPLES, ST_MAX_ROB,
    ST_ERR_CYCLE, ST_ERR_COMMITTED, ST_ERR_PC, ST_ERR_ARRAY,
) = range(19)
ST_STALL_BASE = 20  # one slot per StallReason, in definition order
ST_LEN = 32

CS_L1_ACC, CS_L1_MISS, CS_L2_ACC, CS_L2_MISS, CS_PREFETCHES = range(5)
CS_LEN = 8

RC_OK = 0
RC_CAPACITY = -2  # a scratch array overflowed (names it in ST_ERR_ARRAY)
RC_WATCHDOG = -3  # exceeded max_cycles
RC_DEADLOCK = -4  # no progress possible

#: The scratch arrays ST_ERR_ARRAY names (mirrors CAP_* in coresim.c).
_CAPACITY_ARRAYS = {1: "events", 2: "ready", 3: "writers", 4: "lowconf"}

_I64 = np.int64
_U8 = np.uint8


# ===================================================================== packing


def _address(array: np.ndarray) -> int:
    """The address of an array's first element (the kernel's pointer)."""
    return array.ctypes.data


class NativeRunState:
    """Pooled per-run mutable arrays (the numpy twin of RunState).

    Besides the per-instruction state it holds the scratch arrays whose
    size depends only on the trace (``writers``, ``lowconf``,
    ``attached``); ``pointers`` are all of their addresses in the
    kernel's argument order, taken once when the block is allocated.
    """

    __slots__ = (
        "completed", "forwarded", "complete_cycle", "deps", "first_ready",
        "tca_read_index", "tca_reads_left", "tca_start_cycle",
        "dep_head", "edge_next", "writers", "lowconf", "attached",
        "pointers",
    )

    def __init__(self, pt: "PackedTrace") -> None:
        length = pt.length
        self.completed = np.zeros(length, dtype=_U8)
        self.forwarded = np.zeros(length, dtype=_U8)
        self.complete_cycle = np.zeros(length, dtype=_I64)
        self.deps = np.zeros(length, dtype=_I64)
        self.first_ready = np.zeros(length, dtype=_I64)
        self.tca_read_index = np.zeros(length, dtype=_I64)
        self.tca_reads_left = np.zeros(length, dtype=_I64)
        self.tca_start_cycle = np.zeros(length, dtype=_I64)
        self.dep_head = np.full(length, -1, dtype=_I64)
        self.edge_next = np.zeros(max(1, pt.n_edges), dtype=_I64)
        self.writers = np.zeros(max(1, pt.writers_cap), dtype=_I64)
        self.lowconf = np.zeros(max(1, pt.lowconf_cap), dtype=_I64)
        self.attached = np.zeros(max(1, pt.max_tca_reads), dtype=_I64)
        self.pointers = tuple(
            _address(a)
            for a in (
                self.completed, self.forwarded, self.complete_cycle,
                self.deps, self.first_ready, self.tca_read_index,
                self.tca_reads_left, self.tca_start_cycle, self.dep_head,
                self.edge_next, self.writers, self.lowconf, self.attached,
            )
        )


class PackedTrace:
    """The C kernel's view of a :class:`CompiledTrace`.

    The compiled trace already holds every trace column as the flat
    int32/int64/uint8 array the kernel reads (CSR tables included), so
    packing only takes their addresses in the kernel's argument order,
    derives the few whole-trace bounds that size the kernel's scratch
    arrays, and owns the pool of per-run native state blocks.  The
    bounds count instructions, so row facts are weighted by
    ``row_count``.  Built once per compiled trace (memoized on
    ``CompiledTrace._packed``) and shared read-only across runs and
    threads.
    """

    __slots__ = (
        "length", "n_edges", "columns", "fu_used", "fu_classes", "pointers",
        "max_tca_reads", "writers_cap", "lowconf_cap", "_pool",
    )

    def __init__(self, ct: CompiledTrace) -> None:
        n = ct.length
        self.length = n
        self.n_edges = ct.n_edges
        self.columns = tuple(getattr(ct, name) for name in _TRACE_COLUMNS)
        self.fu_used = np.asarray(ct.fu_used, dtype=_I64)
        self.fu_classes = tuple(ct.fu_used)
        #: ``fu_used`` then the columns: the kernel's arguments 2 and 9-38.
        self.pointers = tuple(_address(a) for a in (self.fu_used, *self.columns))
        self.max_tca_reads = int(ct.tca_read_count.max()) if n else 0
        uses = ct.row_count
        self.writers_cap = int(uses[np.diff(ct.wr_start) != 0].sum())
        self.lowconf_cap = int(uses[ct.lowconf_flag != 0].sum())
        self._pool: list[NativeRunState] = []

    def acquire_state(self) -> NativeRunState:
        """Take a per-run native state block from the pool (or allocate)."""
        try:
            return self._pool.pop()
        except IndexError:
            return NativeRunState(self)

    def release_state(self, state: NativeRunState) -> None:
        """Return a block whose run completed cleanly to the pool."""
        if len(self._pool) < _POOL_MAX:
            self._pool.append(state)


def get_packed(ct: CompiledTrace) -> PackedTrace:
    """The packed form of ``ct`` (built once, memoized on the trace)."""
    pt = getattr(ct, "_packed", None)
    if pt is None:
        with span("sim.backend.pack"):
            pt = PackedTrace(ct)
        ct._packed = pt
    return pt


# =================================================================== selection

_lock = threading.Lock()
_requested: str | None = None  # "python", "c", or None (the kernel if it builds)
_resolved: str | None = None  # the engine in effect, resolved on first use


def set_backend(name: str | None) -> None:
    """Pin the engine: ``"python"`` (the oracle loop), ``"c"`` or ``None``.

    The oracle hook for tests and benchmarks.  ``None`` restores the
    default: the kernel whenever the C compiler builds it.  ``"c"``
    builds the kernel now and raises ``RuntimeError`` if it cannot.
    """
    global _requested, _resolved
    if name not in ("python", "c", None):
        raise ValueError(f"unknown sim backend {name!r}; valid: 'python', 'c', None")
    if name == "c":
        _build_c_kernel()
    with _lock:
        _requested = name
        _resolved = None


@contextmanager
def use_backend(name: str | None):
    """Context manager form of :func:`set_backend` (restores on exit)."""
    previous = _requested
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


#: The kernel's two entry points, set when the library loads.
_C_FUNC = None  # repro_coresim_run
_C_WARM = None  # repro_cache_warm

_PTR = ctypes.c_void_p
_INT = ctypes.c_int64

#: repro_coresim_run's parameters: every one is an array pointer.
_RUN_ARGTYPES = [_PTR] * (8 + len(_TRACE_COLUMNS) + 10 + 5 + 8)
#: repro_cache_warm(lines, n, shift, l1 tags, cnt, sets, assoc, l2 ...).
_WARM_ARGTYPES = [_PTR, _INT, _INT, _PTR, _PTR, _INT, _INT, _PTR, _PTR, _INT, _INT]


def _build_c_kernel():
    """Compile (once) and load the C kernel; returns the run function."""
    global _C_FUNC, _C_WARM
    if _C_FUNC is not None:
        return _C_FUNC
    src = Path(__file__).parent / "_native" / "coresim.c"
    source = src.read_bytes()
    cc = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if not cc:
        raise RuntimeError("no C compiler found (set CC or install cc/gcc/clang)")
    cache_dir = Path(
        os.environ.get("REPRO_NATIVE_CACHE_DIR")
        or Path.home() / ".cache" / "repro" / "native"
    )
    digest = hashlib.sha256(source).hexdigest()[:16]
    so_path = cache_dir / f"coresim-{digest}.so"
    if not so_path.exists():
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
        cmd = [cc, "-O2", "-fPIC", "-shared", "-o", str(tmp), str(src)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(
                f"C kernel build failed ({' '.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp, so_path)
    lib = ctypes.CDLL(str(so_path))
    warm = lib.repro_cache_warm
    warm.restype = None
    warm.argtypes = _WARM_ARGTYPES
    fn = lib.repro_coresim_run
    fn.restype = ctypes.c_int64
    fn.argtypes = _RUN_ARGTYPES
    _C_WARM = warm
    _C_FUNC = fn
    return fn


def effective_backend() -> str:
    """The engine untraced runs use: ``"c"`` or ``"python"``."""
    global _resolved
    with _lock:
        if _resolved is None:
            _resolved = "python"
            if _requested != "python":
                try:
                    _build_c_kernel()
                    _resolved = "c"
                except (OSError, RuntimeError):  # no compiler, or it failed
                    pass
        return _resolved


# ====================================================================== driver


def warm(cache, lines: np.ndarray) -> None:
    """Warm int64 line addresses into ``cache``, counting no stats.

    :meth:`~repro.sim.cache.CacheHierarchy.warm_lines` (each line through
    L1, and through L2 after an L1 miss): on the kernel's arrays in one
    call when the kernel is the engine, else on the per-set lists.
    """
    if effective_backend() != "c":
        cache.warm_lines(lines.tolist())
        return
    lines = np.ascontiguousarray(lines, dtype=_I64)
    l1, l2 = cache.l1, cache.l2
    _C_WARM(
        _address(lines), len(lines), l1._line_shift,
        *l1.pointers(), l1._num_sets, l1._assoc,
        *l2.pointers(), l2._num_sets, l2._assoc,
    )


def _marshal(sim, pt: PackedTrace, st: NativeRunState):
    """A run's kernel arguments, and the int64 block holding its own arrays.

    The block packs everything sized by the config: ``cfg``, the cache
    counters (``cstats``), the FU tables, the kernel's stats output, and
    the event/ready/deferred/TCA scratch arrays.  Returns
    ``(block, cstats offset, stats offset, argument tuple)``.
    """
    config = sim.config
    cache = sim.cache
    l1, l2 = cache.l1, cache.l2
    l1c, l2c = l1.config, l2.config
    n = pt.length
    mode = config.tca_mode

    n_fu = len(FU_CLASSES)
    fu_ports = [1] * n_fu
    fu_latency = [1] * n_fu
    fu_pipelined = [1] * n_fu
    busy_counts = [0] * n_fu
    for cls in pt.fu_classes:
        fu_cfg = config.fu_for(FU_CLASSES[cls])
        fu_ports[cls] = fu_cfg.ports
        fu_latency[cls] = max(1, fu_cfg.latency)
        if not fu_cfg.pipelined:
            fu_pipelined[cls] = 0
            busy_counts[cls] = fu_cfg.ports
    busy_start = [0, *accumulate(busy_counts)]

    events_cap = (
        min(config.rob_size, max(1, n))
        + config.tca_units * pt.max_tca_reads
        + config.mshrs
        + 16
    )
    ready_cap = config.iq_size + config.dispatch_width + 8

    cfg = [0] * CFG_LEN
    cfg[CFG_DISPATCH_W] = config.dispatch_width
    cfg[CFG_ISSUE_W] = config.issue_width
    cfg[CFG_COMMIT_W] = config.commit_width
    cfg[CFG_ROB] = config.rob_size
    cfg[CFG_IQ] = config.iq_size
    cfg[CFG_LQ] = config.lq_size
    cfg[CFG_SQ] = config.sq_size
    cfg[CFG_FRONTEND] = config.frontend_depth
    cfg[CFG_COMMIT_LAT] = config.commit_latency
    cfg[CFG_REDIRECT] = config.redirect_penalty
    cfg[CFG_LPORTS] = config.load_ports
    cfg[CFG_SPORTS] = config.store_ports
    cfg[CFG_FWD_LAT] = config.forward_latency
    cfg[CFG_MSHRS] = config.mshrs
    cfg[CFG_MAX_CYCLES] = config.max_cycles
    cfg[CFG_LEADING] = 1 if mode.leading else 0
    cfg[CFG_TRAILING] = 1 if mode.trailing else 0
    cfg[CFG_PARTIAL] = 1 if config.partial_speculation else 0
    cfg[CFG_TCA_UNITS] = config.tca_units
    cfg[CFG_L1_LAT] = l1c.latency
    cfg[CFG_L2_LAT] = l2c.latency
    cfg[CFG_MEM_LAT] = cache.mem_latency
    cfg[CFG_PREFETCH] = 1 if cache.prefetch_next_line else 0
    cfg[CFG_L1_SETS] = l1._num_sets
    cfg[CFG_L1_ASSOC] = l1._assoc
    cfg[CFG_L2_SETS] = l2._num_sets
    cfg[CFG_L2_ASSOC] = l2._assoc
    cfg[CFG_LINE_SHIFT] = l1._line_shift
    cfg[CFG_START] = sim._start
    cfg[CFG_STOP] = sim._stop
    cfg[CFG_EVENTS_CAP] = events_cap
    cfg[CFG_READY_CAP] = ready_cap
    cfg[CFG_N_FU] = len(pt.fu_classes)
    cfg[CFG_LINE] = l1c.line
    cfg[CFG_WRITERS_CAP] = pt.writers_cap
    cfg[CFG_LOWCONF_CAP] = pt.lowconf_cap

    cstats = [0] * CS_LEN
    cstats[CS_L1_ACC] = l1.stats.accesses
    cstats[CS_L1_MISS] = l1.stats.misses
    cstats[CS_L2_ACC] = l2.stats.accesses
    cstats[CS_L2_MISS] = l2.stats.misses
    cstats[CS_PREFETCHES] = cache.prefetches

    # The initialised head of the block, then arrays that start zeroed,
    # then scratch the kernel writes before it reads.
    head = cfg + cstats + fu_ports + fu_latency + fu_pipelined + busy_start
    sizes = (
        ST_LEN,  # stats
        n_fu,  # fu_left
        max(1, busy_start[-1]),  # fu_busy
        events_cap,  # events
        ready_cap,  # ready
        ready_cap,  # deferred
        max(1, config.tca_units),  # tca_active
    )
    block = np.zeros(len(head) + sum(sizes), dtype=_I64)
    block[: len(head)] = head
    base = _address(block)
    cs_at = CFG_LEN
    fu_at = cs_at + CS_LEN
    (stats_at, fu_left_at, fu_busy_at, events_at, ready_at, deferred_at,
     tca_at, _) = accumulate(sizes, initial=len(head))
    args = (
        base,
        pt.pointers[0],
        base + 8 * fu_at,  # fu_ports
        base + 8 * (fu_at + n_fu),  # fu_latency
        base + 8 * (fu_at + 2 * n_fu),  # fu_pipelined
        base + 8 * fu_left_at,
        base + 8 * (fu_at + 3 * n_fu),  # busy_start
        base + 8 * fu_busy_at,
        *pt.pointers[1:],
        *st.pointers[:10],
        *l1.pointers(),
        *l2.pointers(),
        base + 8 * cs_at,
        base + 8 * events_at,
        base + 8 * ready_at,
        base + 8 * deferred_at,
        st.pointers[10],  # writers
        st.pointers[11],  # lowconf
        base + 8 * tca_at,
        st.pointers[12],  # attached
        base + 8 * stats_at,
    )
    return block, cs_at, stats_at, args


def try_run_native(sim) -> SimStats | None:
    """Run ``sim`` on the C kernel.

    Returns the populated :class:`SimStats`, or ``None`` when the Python
    loop is the engine (pinned by :func:`set_backend`, or the kernel
    cannot build); the simulation state is then untouched.  A scratch
    overflow in the kernel raises ``RuntimeError`` naming the array.
    """
    if effective_backend() != "c":
        return None
    pt = get_packed(sim.compiled)
    config = sim.config
    stop = sim._stop
    with span("sim.kernel.marshal"):
        st = pt.acquire_state()
        if sim._start:
            st.completed[: sim._start] = 1
        block, cs_at, stats_at, args = _marshal(sim, pt, st)
    with span("sim.kernel"):
        rc = _C_FUNC(*args)
    out = block[stats_at : stats_at + ST_LEN].tolist()

    if rc == RC_CAPACITY:
        # The driver sizes every scratch array for the worst case, so this
        # is a sizing bug; the dirty state block is not pooled.
        array = _CAPACITY_ARRAYS.get(out[ST_ERR_ARRAY], "unknown")
        raise RuntimeError(f"C kernel overflowed its {array!r} scratch array")
    if rc == RC_WATCHDOG:
        from repro.sim.core import CycleLimitError

        raise CycleLimitError(
            f"exceeded max_cycles={config.max_cycles} "
            f"(committed {out[ST_ERR_COMMITTED]}/{stop})"
        )
    if rc == RC_DEADLOCK:
        from repro.sim.core import DeadlockError

        err_pc = out[ST_ERR_PC]
        err_committed = out[ST_ERR_COMMITTED]
        raise DeadlockError(
            f"no progress possible at cycle {out[ST_ERR_CYCLE]} "
            f"(committed {err_committed}/{stop}, "
            f"rob={err_pc - err_committed}, pc={err_pc})"
        )
    if rc != RC_OK:  # pragma: no cover - defensive
        raise RuntimeError(f"C kernel returned unknown code {rc}")

    pt.release_state(st)

    with span("sim.cache.sync"):
        cache = sim.cache
        l1_acc, l1_miss, l2_acc, l2_miss, prefetches = (
            block[cs_at : cs_at + CS_PREFETCHES + 1].tolist()
        )
        cache.l1.stats.accesses = l1_acc
        cache.l1.stats.misses = l1_miss
        cache.l2.stats.accesses = l2_acc
        cache.l2.stats.misses = l2_miss
        cache.prefetches = prefetches

    with span("sim.stats.assemble"):
        stats = sim.stats
        stats.cycles = out[ST_CYCLES]
        stats.instructions = out[ST_INSTR]
        stats.dispatched = out[ST_DISPATCHED]
        stats.loads = out[ST_LOADS]
        stats.stores = out[ST_STORES]
        stats.branches = out[ST_BRANCHES]
        stats.mispredicts = out[ST_MISPRED]
        stats.tca_invocations = out[ST_TCA_INV]
        stats.tca_read_requests = out[ST_TCA_READS]
        stats.tca_write_requests = out[ST_TCA_WRITES]
        stats.tca_wait_drain_cycles = out[ST_TCA_WAIT]
        stats.tca_exec_cycles = out[ST_TCA_EXEC]
        stats.rob_occupancy_sum = out[ST_ROB_SUM]
        stats.rob_samples = out[ST_ROB_SAMPLES]
        stats.max_rob_occupancy = out[ST_MAX_ROB]
        for i, reason in enumerate(_STALL_REASONS):
            count = out[ST_STALL_BASE + i]
            if count:
                stats.stall_cycles[reason] = count
    return stats
