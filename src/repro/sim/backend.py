"""Selectable execution engines for the CoreSim hot loop.

The pure-Python event loop in :meth:`repro.sim.core.CoreSim._run` stays
the equivalence oracle; this module can replace its execution with a
compiled kernel over flat int64 arrays:

- ``python`` — the pure-Python hot loop (always available; the oracle).
- ``c`` — ``repro/sim/_native/coresim.c`` (a hand-maintained mirror of
  the same loop) compiled once with the system C compiler into
  ``~/.cache/repro/native`` and driven through ``ctypes``.  No Python
  dependencies; needs only ``cc``.
- ``auto`` (default) — ``c`` if a C compiler builds the kernel, else
  ``python``.

Selection happens at import time from ``REPRO_SIM_BACKEND`` and can be
overridden programmatically (:func:`set_backend`, :func:`use_backend`)
— the CLI's ``--sim-backend`` flag routes through :func:`set_backend`.

Both engines produce byte-identical ``SimStats.to_dict()`` payloads
(enforced by ``tests/test_sim_equivalence.py`` / ``test_sim_backends.py``)
and leave the run's :class:`~repro.sim.cache.CacheHierarchy` in the
same state, so interval sampling's cache-residency checkpoints
(:mod:`repro.sim.sample`) work unchanged on native runs.

Runs the kernel cannot represent exactly — pipeline tracers attached,
``seq``/``when`` outside the int64 packing bounds, a cache snapshot
wider than the configured associativity, a scratch-capacity abort —
transparently fall back to the Python loop.

Events and ready entries are packed ints exactly like the pure-Python
hot loop, but with a 32-bit cycle shift so they fit in int64
(``(when << 32) | (seq << 2) | kind`` and ``(cycle << 32) | seq``);
:func:`try_run_native` guarantees ``seq < 2**30`` and ``when < 2**31``,
so the packing cannot overflow and orders identically to the reference
tuples.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.obs.span import span
from repro.sim.compile import FU_CLASSES, CompiledTrace
from repro.sim.stats import SimStats, StallReason

_STALL_REASONS = tuple(StallReason)

#: Recognised REPRO_SIM_BACKEND values.
VALID_BACKENDS = ("auto", "python", "c")

#: Native-state pool bound per PackedTrace (mirrors compile._POOL_MAX).
_POOL_MAX = 8

#: The CompiledTrace columns the kernel reads, in its argument order.
_TRACE_COLUMNS = (
    "kind", "fu_cls", "lat_over", "mispred", "lowconf_flag",
    "mem_addr", "mem_size", "ml_start", "ml_lines",
    "cw_start", "cw_lines",
    "wr_start", "wr_addr", "wr_size", "writer_lo", "writer_hi",
    "re_start", "edge_prod", "edge_cons", "mem_edge_base",
    "tr_start", "tr_addr", "tr_size", "trl_start", "trl_lines",
    "tca_read_count", "tca_write_count", "tca_comp_lat",
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
    ST_ERR_CYCLE, ST_ERR_COMMITTED, ST_ERR_PC,
) = range(18)
ST_STALL_BASE = 20  # one slot per StallReason, in definition order
ST_LEN = 32

CS_L1_ACC, CS_L1_MISS, CS_L2_ACC, CS_L2_MISS, CS_PREFETCHES = range(5)
CS_LEN = 8

RC_OK = 0
RC_CAPACITY = -2  # scratch array overflow: the Python loop runs instead
RC_WATCHDOG = -3  # exceeded max_cycles
RC_DEADLOCK = -4  # no progress possible

_SEQ_LIMIT = 1 << 30
_WHEN_LIMIT = 1 << 31

_I64 = np.int64
_U8 = np.uint8


# ===================================================================== packing


class NativeRunState:
    """Pooled per-run mutable arrays (the numpy twin of RunState)."""

    __slots__ = (
        "completed", "forwarded", "complete_cycle", "deps", "first_ready",
        "tca_read_index", "tca_reads_left", "tca_start_cycle",
        "dep_head", "edge_next",
    )

    def __init__(self, length: int, n_edges: int) -> None:
        self.completed = np.zeros(length, dtype=_U8)
        self.forwarded = np.zeros(length, dtype=_U8)
        self.complete_cycle = np.zeros(length, dtype=_I64)
        self.deps = np.zeros(length, dtype=_I64)
        self.first_ready = np.zeros(length, dtype=_I64)
        self.tca_read_index = np.zeros(length, dtype=_I64)
        self.tca_reads_left = np.zeros(length, dtype=_I64)
        self.tca_start_cycle = np.zeros(length, dtype=_I64)
        self.dep_head = np.full(length, -1, dtype=_I64)
        self.edge_next = np.zeros(max(1, n_edges), dtype=_I64)


class PackedTrace:
    """The C kernel's view of a :class:`CompiledTrace`.

    The compiled trace already holds every trace column as the flat
    int64/uint8 array the kernel reads (CSR tables included), so packing
    only gathers them in the kernel's argument order, derives the few
    whole-trace bounds the driver sizes its scratch arrays from, and owns
    the pool of per-run native state blocks.  Built once per compiled
    trace (memoized on ``CompiledTrace._packed``) and shared read-only
    across runs and threads.
    """

    __slots__ = (
        "length", "n_edges", "columns", "fu_used", "max_tca_reads",
        "writers_cap", "lowconf_cap", "max_static_lat", "_pool",
    )

    def __init__(self, ct: CompiledTrace) -> None:
        n = ct.length
        self.length = n
        self.n_edges = ct.n_edges
        self.columns = tuple(getattr(ct, name) for name in _TRACE_COLUMNS)
        self.fu_used = np.asarray(ct.fu_used, dtype=_I64)
        self.max_tca_reads = int(ct.tca_read_count.max()) if n else 0
        self.writers_cap = int(np.count_nonzero(np.diff(ct.wr_start)))
        self.lowconf_cap = int(np.count_nonzero(ct.lowconf_flag))
        lat_max = int(ct.lat_over.max()) if n else 0
        comp_max = int(ct.tca_comp_lat.max()) if n else 0
        self.max_static_lat = max(1, lat_max, comp_max)
        self._pool: list[NativeRunState] = []

    def acquire_state(self) -> NativeRunState:
        """Take a per-run native state block from the pool (or allocate)."""
        try:
            return self._pool.pop()
        except IndexError:
            return NativeRunState(self.length, self.n_edges)

    def release_state(self, state: NativeRunState) -> None:
        """Return a block whose run completed cleanly to the pool."""
        if len(self._pool) < _POOL_MAX:
            self._pool.append(state)


def get_packed(ct: CompiledTrace) -> PackedTrace:
    """The packed form of ``ct`` (built once, memoized on the trace)."""
    pt = getattr(ct, "_packed", None)
    if pt is None:
        pt = PackedTrace(ct)
        ct._packed = pt
    return pt


# =================================================================== selection

_lock = threading.Lock()
_requested: str | None = None  # programmatic override (None = environment)
_resolved: tuple[str, object] | None = None  # (effective name, impl callable)


def _env_request() -> str:
    value = os.environ.get("REPRO_SIM_BACKEND", "auto").strip().lower()
    if value not in VALID_BACKENDS:
        warnings.warn(
            f"unknown REPRO_SIM_BACKEND={value!r}; using 'auto' "
            f"(valid: {', '.join(VALID_BACKENDS)})",
            RuntimeWarning,
            stacklevel=3,
        )
        return "auto"
    return value


def requested_backend() -> str:
    """The backend request in effect (override, else environment)."""
    return _requested if _requested is not None else _env_request()


def set_backend(name: str | None) -> None:
    """Override the backend selection (``None`` returns to the environment)."""
    global _requested, _resolved
    if name is not None:
        name = name.strip().lower()
        if name not in VALID_BACKENDS:
            raise ValueError(
                f"unknown sim backend {name!r}; valid: {', '.join(VALID_BACKENDS)}"
            )
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


_C_FUNC = None


def _build_c_kernel():
    """Compile (once) and load the C kernel; returns the ctypes function."""
    global _C_FUNC
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
    fn = lib.repro_coresim_run
    fn.restype = ctypes.c_int64
    _C_FUNC = fn
    return fn


def _call_c(args):
    fn = _build_c_kernel()
    return fn(*[ctypes.c_void_p(a.ctypes.data) for a in args])


def _resolve() -> tuple[str, object]:
    """Resolve the request to ``(effective_name, impl)``.

    ``impl`` is ``None`` for the pure-Python hot loop, else a callable
    taking the packed kernel argument tuple and returning an RC code.
    """
    request = requested_backend()
    if request == "python":
        return "python", None
    try:
        _build_c_kernel()
    except Exception as exc:
        if request == "c":
            warnings.warn(
                f"REPRO_SIM_BACKEND=c unavailable ({exc}); "
                "falling back to the pure-Python engine",
                RuntimeWarning,
                stacklevel=3,
            )
        return "python", None
    return "c", _call_c


def effective_backend() -> str:
    """The backend actually in use after availability fallbacks."""
    global _resolved
    with _lock:
        if _resolved is None:
            _resolved = _resolve()
        return _resolved[0]


def _impl():
    global _resolved
    with _lock:
        if _resolved is None:
            _resolved = _resolve()
        return _resolved[1]


# ====================================================================== driver


def _fits(sim, pt: PackedTrace) -> bool:
    """Whether the run is representable in the kernel's int64 packing."""
    config = sim.config
    if pt.length >= _SEQ_LIMIT:
        return False
    cache = sim.cache
    max_lat = max(
        pt.max_static_lat,
        cache.l1.config.latency + cache.l2.config.latency + cache.mem_latency,
        config.forward_latency,
        config.commit_latency,
        config.redirect_penalty,
        config.frontend_depth,
        1,
    )
    for cls in pt.fu_used:
        max_lat = max(max_lat, config.fu_for(FU_CLASSES[cls]).latency)
    return config.max_cycles + 2 + max_lat < _WHEN_LIMIT


def _load_level(level, num_sets: int, assoc: int):
    """Marshal one _CacheLevel's residency into (tags, cnt) arrays.

    Returns ``None`` when a loaded snapshot exceeds the configured
    associativity (a foreign snapshot the fixed-way arrays cannot hold).
    """
    tags = np.zeros(num_sets * assoc, dtype=_I64)
    cnt = np.zeros(num_sets, dtype=_I64)
    for idx, set_tags in level._sets.items():
        m = len(set_tags)
        if m > assoc:
            return None
        cnt[idx] = m
        tags[idx * assoc : idx * assoc + m] = set_tags
    return tags, cnt


def _store_level(level, tags, cnt, assoc: int) -> None:
    """Write (tags, cnt) residency back into a _CacheLevel."""
    sets: dict[int, list[int]] = {}
    for idx in np.nonzero(cnt)[0].tolist():
        base = idx * assoc
        sets[idx] = [int(t) for t in tags[base : base + int(cnt[idx])]]
    level._sets = sets


def try_run_native(sim) -> SimStats | None:
    """Run ``sim`` on the selected native backend.

    Returns the populated :class:`SimStats` on success, or ``None`` when
    the Python hot loop should run instead (python backend selected, the
    run is untraceable natively, packing bounds exceeded, or a scratch
    capacity abort).  On ``None`` the simulation state (cache hierarchy,
    pooled run state) is untouched, so the caller's fallback is exact.
    """
    impl = _impl()
    if impl is None:
        return None
    pt = get_packed(sim.compiled)
    if not _fits(sim, pt):
        return None
    config = sim.config
    cache = sim.cache
    l1c = cache.l1.config
    l2c = cache.l2.config
    if l1c.line != l2c.line:
        return None
    l1_sets, l1_assoc = l1c.num_sets, l1c.assoc
    l2_sets, l2_assoc = l2c.num_sets, l2c.assoc
    l1_loaded = _load_level(cache.l1, l1_sets, l1_assoc)
    if l1_loaded is None:
        return None
    l2_loaded = _load_level(cache.l2, l2_sets, l2_assoc)
    if l2_loaded is None:
        return None
    l1_tags, l1_cnt = l1_loaded
    l2_tags, l2_cnt = l2_loaded

    start = sim._start
    stop = sim._stop
    n = pt.length
    mode = config.tca_mode

    n_fu = len(FU_CLASSES)
    fu_ports = np.ones(n_fu, dtype=_I64)
    fu_latency = np.ones(n_fu, dtype=_I64)
    fu_pipelined = np.ones(n_fu, dtype=_I64)
    busy_start = np.zeros(n_fu + 1, dtype=_I64)
    busy_total = 0
    busy_counts = [0] * n_fu
    for cls in pt.fu_used:
        fu_cfg = config.fu_for(FU_CLASSES[cls])
        fu_ports[cls] = fu_cfg.ports
        fu_latency[cls] = max(1, fu_cfg.latency)
        fu_pipelined[cls] = 1 if fu_cfg.pipelined else 0
        if not fu_cfg.pipelined:
            busy_counts[cls] = fu_cfg.ports
            busy_total += fu_cfg.ports
    acc = 0
    for cls in range(n_fu):
        busy_start[cls] = acc
        acc += busy_counts[cls]
    busy_start[n_fu] = acc
    fu_busy = np.zeros(max(1, busy_total), dtype=_I64)
    fu_left = np.zeros(n_fu, dtype=_I64)

    events_cap = (
        min(config.rob_size, max(1, n))
        + config.tca_units * pt.max_tca_reads
        + config.mshrs
        + 16
    )
    ready_cap = config.iq_size + config.dispatch_width + 8

    cfg = np.zeros(CFG_LEN, dtype=_I64)
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
    cfg[CFG_L1_SETS] = l1_sets
    cfg[CFG_L1_ASSOC] = l1_assoc
    cfg[CFG_L2_SETS] = l2_sets
    cfg[CFG_L2_ASSOC] = l2_assoc
    cfg[CFG_LINE_SHIFT] = cache.l1._line_shift
    cfg[CFG_START] = start
    cfg[CFG_STOP] = stop
    cfg[CFG_EVENTS_CAP] = events_cap
    cfg[CFG_READY_CAP] = ready_cap
    cfg[CFG_N_FU] = len(pt.fu_used)
    cfg[CFG_LINE] = l1c.line
    cfg[CFG_WRITERS_CAP] = pt.writers_cap
    cfg[CFG_LOWCONF_CAP] = pt.lowconf_cap

    cstats = np.zeros(CS_LEN, dtype=_I64)
    cstats[CS_L1_ACC] = cache.l1.stats.accesses
    cstats[CS_L1_MISS] = cache.l1.stats.misses
    cstats[CS_L2_ACC] = cache.l2.stats.accesses
    cstats[CS_L2_MISS] = cache.l2.stats.misses
    cstats[CS_PREFETCHES] = cache.prefetches

    events = np.zeros(events_cap, dtype=_I64)
    ready = np.zeros(ready_cap, dtype=_I64)
    deferred = np.zeros(ready_cap, dtype=_I64)
    writers = np.zeros(max(1, pt.writers_cap), dtype=_I64)
    lowconf = np.zeros(max(1, pt.lowconf_cap), dtype=_I64)
    tca_active = np.zeros(max(1, config.tca_units), dtype=_I64)
    attached = np.zeros(max(1, pt.max_tca_reads), dtype=_I64)
    stats_out = np.zeros(ST_LEN, dtype=_I64)

    st = pt.acquire_state()
    if start:
        st.completed[:start] = 1

    args = (
        cfg,
        pt.fu_used, fu_ports, fu_latency, fu_pipelined, fu_left,
        busy_start, fu_busy,
        *pt.columns,
        st.completed, st.forwarded, st.complete_cycle, st.deps,
        st.first_ready, st.tca_read_index, st.tca_reads_left,
        st.tca_start_cycle, st.dep_head, st.edge_next,
        l1_tags, l1_cnt, l2_tags, l2_cnt, cstats,
        events, ready, deferred, writers, lowconf, tca_active, attached,
        stats_out,
    )
    with span("sim.kernel"):
        rc = impl(args)

    if rc == RC_CAPACITY:
        # Scratch overflow: discard the (dirty) native state and let the
        # oracle loop run this one.  sim.cache was not written back, so
        # the fallback starts from the exact pre-run hierarchy.
        return None
    if rc == RC_WATCHDOG:
        from repro.sim.core import DeadlockError

        raise DeadlockError(
            f"exceeded max_cycles={config.max_cycles} "
            f"(committed {int(stats_out[ST_ERR_COMMITTED])}/{stop})"
        )
    if rc == RC_DEADLOCK:
        from repro.sim.core import DeadlockError

        err_pc = int(stats_out[ST_ERR_PC])
        err_committed = int(stats_out[ST_ERR_COMMITTED])
        raise DeadlockError(
            f"no progress possible at cycle {int(stats_out[ST_ERR_CYCLE])} "
            f"(committed {err_committed}/{stop}, "
            f"rob={err_pc - err_committed}, pc={err_pc})"
        )
    if rc != RC_OK:  # pragma: no cover - defensive
        return None

    pt.release_state(st)

    _store_level(cache.l1, l1_tags, l1_cnt, l1_assoc)
    _store_level(cache.l2, l2_tags, l2_cnt, l2_assoc)
    cache.l1.stats.accesses = int(cstats[CS_L1_ACC])
    cache.l1.stats.misses = int(cstats[CS_L1_MISS])
    cache.l2.stats.accesses = int(cstats[CS_L2_ACC])
    cache.l2.stats.misses = int(cstats[CS_L2_MISS])
    cache.prefetches = int(cstats[CS_PREFETCHES])

    stats = sim.stats
    stats.cycles = int(stats_out[ST_CYCLES])
    stats.instructions = int(stats_out[ST_INSTR])
    stats.dispatched = int(stats_out[ST_DISPATCHED])
    stats.loads = int(stats_out[ST_LOADS])
    stats.stores = int(stats_out[ST_STORES])
    stats.branches = int(stats_out[ST_BRANCHES])
    stats.mispredicts = int(stats_out[ST_MISPRED])
    stats.tca_invocations = int(stats_out[ST_TCA_INV])
    stats.tca_read_requests = int(stats_out[ST_TCA_READS])
    stats.tca_write_requests = int(stats_out[ST_TCA_WRITES])
    stats.tca_wait_drain_cycles = int(stats_out[ST_TCA_WAIT])
    stats.tca_exec_cycles = int(stats_out[ST_TCA_EXEC])
    stats.rob_occupancy_sum = int(stats_out[ST_ROB_SUM])
    stats.rob_samples = int(stats_out[ST_ROB_SAMPLES])
    stats.max_rob_occupancy = int(stats_out[ST_MAX_ROB])
    for i, reason in enumerate(_STALL_REASONS):
        count = int(stats_out[ST_STALL_BASE + i])
        if count:
            stats.stall_cycles[reason] = count
    return stats
