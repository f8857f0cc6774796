"""Pre-forked multi-process serving: N workers on one listening socket.

A single ``repro-serve`` process is GIL-bound: its handler threads
serialize on the interpreter, so model evaluation throughput stops
scaling at one core.  This module is the scale-out tier — a classic
pre-fork supervisor (nginx/gunicorn shape, stdlib only):

- the **supervisor** binds the listening socket once, forks ``N``
  workers, and thereafter only supervises: it reaps exited children,
  respawns crashed ones (bounded restarts with exponential backoff),
  and on ``SIGTERM``/``SIGINT`` forwards the signal to every worker and
  waits for them to drain;
- each **worker** runs the ordinary
  :class:`~repro.serve.service.ServeApp` + ``ThreadingHTTPServer``
  stack with its own in-memory caches and compiled-trace LRU,
  ``accept()``-ing on the supervisor's listening socket, inherited
  across ``fork()``.  All workers share its one accept queue, so a
  killed worker strands no queued connection; the socket is
  non-blocking, so a worker that loses the accept race simply returns
  to its poll loop.

Workers share no results: each answers from its own in-memory
:class:`~repro.serve.cache.EvaluationCache`, and a result another worker
holds is recomputed — microseconds for the closed-form model.

Cross-process observability runs over a small state directory of
atomically-replaced JSON files: the supervisor maintains ``pool.json``
(size, per-slot pids and restart counts) and every worker
periodically rewrites ``worker-<slot>.json`` (pid, request count,
uptime, last-request timestamp, cache counters, and a full metrics
snapshot — counters, gauges, timers, latency histograms).  ``GET
/healthz`` on any worker folds all of it into a ``pool`` block: pool
size, per-worker liveness/uptime/last-request, and the merged cache
counters across workers.  ``GET /metrics`` merges every worker's
snapshot into one registry (histogram buckets add exactly — all
processes share the same layouts) and renders the pool-wide Prometheus
page, so a scrape of the shared port is complete no matter which worker
accepted it.  The report throttle is tunable via
``REPRO_SERVE_REPORT_INTERVAL_S`` (seconds; tests and CI lower it for
deterministic flushing).

POSIX only (``os.fork``); ``--workers 1`` keeps the portable
single-process path.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import tempfile
import threading
import time
from typing import Any, Callable, TYPE_CHECKING

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service -> pool)
    from repro.serve.service import ServeApp

_log = get_logger("serve.pool")

#: Give up respawning a worker slot after this many unexpected deaths.
DEFAULT_MAX_RESTARTS = 5

#: First respawn backoff; doubles per consecutive restart, capped at 5s.
DEFAULT_BACKOFF_S = 0.5

#: Workers rewrite their state file at most this often under load.
_REPORT_INTERVAL_S = 0.25


def report_interval_s() -> float:
    """The state-file throttle: ``$REPRO_SERVE_REPORT_INTERVAL_S`` or 0.25s.

    Tests and CI set the variable (``0`` = flush on every request) so
    scrapes of a freshly-exercised pool are deterministic.
    """
    try:
        return float(os.environ.get("REPRO_SERVE_REPORT_INTERVAL_S", ""))
    except ValueError:
        return _REPORT_INTERVAL_S

#: Cache counters summed across workers for the merged /healthz view.
_MERGED_MEMORY_FIELDS = ("hits", "misses", "evictions", "entries")


def _write_json_atomic(path: str, payload: dict[str, Any]) -> None:
    """Atomic JSON write (temp + ``os.replace`` in the same directory)."""
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_json(path: str) -> dict[str, Any] | None:
    """Best-effort JSON read: missing/corrupt (mid-replace) files = None."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` currently exists (signal 0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


class PoolMember:
    """A worker's view of the pool: state reporting and healthz merging.

    Instantiated inside each worker process.  ``report`` rewrites the
    worker's own state file (throttled, atomic); ``healthz`` assembles
    the ``pool`` block served by ``GET /healthz`` — pool layout from the
    supervisor's ``pool.json``, per-worker liveness via signal-0 probes,
    and cache/request counters summed over every worker's last report.
    """

    def __init__(self, state_dir: str, slot: int, app: "ServeApp") -> None:
        self.state_dir = state_dir
        self.slot = slot
        self.app = app
        self.requests = 0
        self.started = time.monotonic()
        self.last_request_unix: float | None = None
        self.report_interval_s = report_interval_s()
        self._last_report = 0.0
        self._report_lock = threading.Lock()

    # -- reporting -----------------------------------------------------

    def _state_path(self, slot: int) -> str:
        return os.path.join(self.state_dir, f"worker-{slot}.json")

    def after_request(self) -> None:
        """Per-request hook installed on the worker's HTTP server."""
        self.requests += 1
        self.last_request_unix = time.time()
        self.report()

    def report(self, force: bool = False) -> None:
        """Rewrite this worker's state file (throttled unless forced)."""
        now = time.monotonic()
        with self._report_lock:
            if not force and now - self._last_report < self.report_interval_s:
                return
            self._last_report = now
        metrics = get_registry().snapshot()
        metrics.pop("info", None)  # structured blobs stay process-local
        payload = {
            "slot": self.slot,
            "pid": os.getpid(),
            "requests": self.requests,
            "uptime_s": now - self.started,
            "last_request_unix": self.last_request_unix,
            "cache": self.app.cache.stats(),
            "counters": {k: v for k, v in metrics["counters"].items() if v},
            "metrics": metrics,
            "updated_unix": time.time(),
        }
        try:
            _write_json_atomic(self._state_path(self.slot), payload)
        except OSError as exc:  # pragma: no cover - state dir vanished
            _log.warning("worker state write failed: %s", exc)

    # -- healthz -------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        """The ``pool`` block for ``GET /healthz`` (fresh self-report)."""
        self.report(force=True)
        pool = _read_json(os.path.join(self.state_dir, "pool.json")) or {}
        pids: dict[str, int] = pool.get("pids", {})
        workers = []
        merged_memory = dict.fromkeys(_MERGED_MEMORY_FIELDS, 0)
        merged_requests = 0
        for slot_name in sorted(pids, key=int):
            slot = int(slot_name)
            state = _read_json(self._state_path(slot)) or {}
            pid = pids[slot_name]
            reported_pid = state.get("pid")
            workers.append(
                {
                    "slot": slot,
                    "pid": pid,
                    "alive": _pid_alive(pid),
                    "requests": state.get("requests", 0),
                    "uptime_s": state.get("uptime_s"),
                    "last_request_ts": state.get("last_request_unix"),
                    # a stale file from a replaced worker is still useful
                    # for counters but should not claim freshness
                    "stale": reported_pid is not None and reported_pid != pid,
                    "updated_unix": state.get("updated_unix"),
                }
            )
            merged_requests += int(state.get("requests", 0))
            cache = state.get("cache") or {}
            memory = cache.get("memory") or {}
            for field in _MERGED_MEMORY_FIELDS:
                merged_memory[field] += int(memory.get(field, 0))
        return {
            "size": pool.get("workers", len(pids)),
            "supervisor_pid": pool.get("supervisor_pid"),
            "slot": self.slot,
            "restarts": pool.get("restarts", {}),
            "workers": workers,
            "requests": merged_requests,
            "cache_merged": {"memory": merged_memory},
        }

    # -- metrics -------------------------------------------------------

    def merged_metrics(self) -> MetricsRegistry:
        """A fresh registry holding every worker's metrics, merged.

        The serving worker flushes its own state file first, then folds
        in each worker's last-reported snapshot — counters add, timers
        add and widen, histogram buckets add exactly (every process bins
        with the same shared layouts).  Installed as
        ``ServeApp.pool_metrics``, which makes ``GET /metrics`` and the
        ``/healthz`` latency block pool-wide.
        """
        self.report(force=True)
        registry = MetricsRegistry()
        pool = _read_json(os.path.join(self.state_dir, "pool.json")) or {}
        slots = sorted(int(s) for s in (pool.get("pids") or {}))
        if not slots:
            slots = [self.slot]
        for slot in slots:
            state = _read_json(self._state_path(slot)) or {}
            metrics = state.get("metrics")
            if not metrics:
                continue
            try:
                registry.merge(metrics)
            except ValueError as exc:  # pragma: no cover - layout drift
                _log.warning(
                    "skipping slot %d metrics in pool merge: %s", slot, exc
                )
        return registry


class WorkerPool:
    """Supervisor for a pre-forked pool of serving workers.

    Args:
        host: bind address.
        port: bind port (0 = ephemeral; resolved after :meth:`start`).
        workers: number of worker processes (>= 1).
        app_factory: builds the worker's :class:`ServeApp`; called *in
            the child* after fork so every worker owns fresh caches and
            metrics.
        max_request_bytes: per-request body bound, as in ``make_server``.
        state_dir: directory for pool/worker state files (default: a
            fresh ``repro-serve-pool-*`` temp dir).
        max_restarts: per-slot bound on unexpected-death respawns; one
            slot exceeding it shuts the whole pool down (exit code 1).
        backoff_s: initial respawn backoff, doubled per consecutive
            restart of the same slot and capped at 5 s.
        slow_request_s: per-worker slow-request log threshold, as in
            :class:`~repro.serve.service.ServeServer`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        workers: int,
        app_factory: "Callable[[], ServeApp]",
        max_request_bytes: int | None = None,
        state_dir: str | None = None,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        backoff_s: float = DEFAULT_BACKOFF_S,
        slow_request_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if os.name != "posix":  # pragma: no cover - POSIX-only guard
            raise RuntimeError("worker pools require os.fork (POSIX)")
        from repro.serve.service import DEFAULT_MAX_REQUEST_BYTES

        self.host = host
        self.port = port
        self.workers = workers
        self.app_factory = app_factory
        self.max_request_bytes = (
            DEFAULT_MAX_REQUEST_BYTES
            if max_request_bytes is None
            else max_request_bytes
        )
        self.state_dir = state_dir or tempfile.mkdtemp(prefix="repro-serve-pool-")
        self.max_restarts = max_restarts
        self.backoff_s = backoff_s
        self.slow_request_s = slow_request_s
        self._listen_sock: socket.socket | None = None
        self._pids: dict[int, int] = {}  # slot -> pid
        self._restarts: dict[int, int] = {}  # slot -> unexpected deaths
        self._shutting_down = False
        self._exit_code = 0

    # -- supervisor side ----------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the shared socket and fork the initial workers.

        Returns the resolved ``(host, port)`` — meaningful with
        ``port=0``.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(128)
        # Shared accept queues must not block a worker that loses the
        # accept race; workers re-block each accepted connection.
        sock.setblocking(False)
        self._listen_sock = sock
        self.host, self.port = sock.getsockname()[:2]
        os.makedirs(self.state_dir, exist_ok=True)
        for slot in range(self.workers):
            self._restarts[slot] = 0
            self._spawn(slot)
        self._write_pool_state()
        return self.host, self.port

    def _write_pool_state(self) -> None:
        _write_json_atomic(
            os.path.join(self.state_dir, "pool.json"),
            {
                "workers": self.workers,
                "supervisor_pid": os.getpid(),
                "pids": {str(slot): pid for slot, pid in self._pids.items()},
                "restarts": {
                    str(slot): count for slot, count in self._restarts.items()
                },
                "started_unix": time.time(),
            },
        )

    def _spawn(self, slot: int) -> None:
        """Fork one worker for ``slot`` and wait for it to listen."""
        ready_r, ready_w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(ready_r)
            code = 70  # EX_SOFTWARE unless the worker says otherwise
            try:
                code = self._worker_main(slot, ready_w)
            except BaseException:  # pragma: no cover - crash path
                try:
                    _log.exception("worker slot %d crashed", slot)
                except Exception:
                    pass
            finally:
                os._exit(code)
        os.close(ready_w)
        try:
            readable, _, _ = select.select([ready_r], [], [], 10.0)
            if not readable or os.read(ready_r, 1) != b"r":
                _log.warning(
                    "worker slot %d (pid %d) never reported ready", slot, pid
                )
        finally:
            os.close(ready_r)
        self._pids[slot] = pid
        _log.info("worker slot %d listening (pid %d)", slot, pid)

    def supervise(self) -> int:
        """Reap, respawn, and (on signal) drain workers; returns exit code.

        Blocks until the pool is shut down — either by ``SIGTERM`` /
        ``SIGINT`` (graceful drain: workers finish in-flight requests)
        or by a worker slot exhausting its restart budget.
        """
        signal.signal(signal.SIGTERM, self._handle_signal)
        signal.signal(signal.SIGINT, self._handle_signal)
        while self._pids:
            try:
                pid, status = os.waitpid(-1, 0)
            except ChildProcessError:  # pragma: no cover - all reaped
                break
            slot = next(
                (s for s, p in self._pids.items() if p == pid), None
            )
            if slot is None:
                continue
            del self._pids[slot]
            if self._shutting_down:
                continue
            code = (
                os.waitstatus_to_exitcode(status)
                if hasattr(os, "waitstatus_to_exitcode")
                else os.WEXITSTATUS(status)
            )
            self._restarts[slot] += 1
            if self._restarts[slot] > self.max_restarts:
                _log.error(
                    "worker slot %d died (%s) and exhausted its %d restarts; "
                    "shutting the pool down",
                    slot,
                    code,
                    self.max_restarts,
                )
                self._exit_code = 1
                self._begin_shutdown()
                continue
            backoff = min(
                self.backoff_s * 2 ** (self._restarts[slot] - 1), 5.0
            )
            _log.warning(
                "worker slot %d (pid %d) exited unexpectedly (%s); "
                "respawning in %.1fs (restart %d/%d)",
                slot,
                pid,
                code,
                backoff,
                self._restarts[slot],
                self.max_restarts,
            )
            time.sleep(backoff)
            if self._shutting_down:
                continue
            self._spawn(slot)
            self._write_pool_state()
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        return self._exit_code

    def _handle_signal(self, signum: int, frame: Any) -> None:
        _log.warning(
            "supervisor received %s; draining %d workers",
            signal.Signals(signum).name,
            len(self._pids),
        )
        self._begin_shutdown()

    def _begin_shutdown(self) -> None:
        self._shutting_down = True
        for pid in list(self._pids.values()):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    # -- worker side ---------------------------------------------------

    def _worker_main(self, slot: int, ready_fd: int) -> int:
        """Run one worker to completion; returns the process exit code."""
        from repro.serve.service import ServeServer

        # A forked child inherits the supervisor's handler state; reset
        # before installing worker-local graceful-shutdown handlers.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)

        # The forked child inherits whatever the supervisor's registry
        # accumulated before the fork; zero it so state files — and the
        # pool-wide /metrics merge built from them — count each worker's
        # own work exactly once.
        get_registry().reset()
        app = self.app_factory()
        member = PoolMember(self.state_dir, slot, app)
        app.pool_info = member.healthz
        app.pool_metrics = member.merged_metrics
        server = ServeServer(
            (self.host, self.port),
            app,
            max_request_bytes=self.max_request_bytes,
            sock=self._listen_sock,
            slow_request_s=self.slow_request_s,
        )
        server.after_request = member.after_request

        def _drain(signum: int, frame: Any) -> None:
            _log.info(
                "worker slot %d received %s; draining",
                slot,
                signal.Signals(signum).name,
            )
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)

        member.report(force=True)
        os.write(ready_fd, b"r")
        os.close(ready_fd)
        try:
            server.serve_forever(poll_interval=0.05)
        finally:
            server.server_close()
            member.report(force=True)
        return 0


def run_pool(
    host: str,
    port: int,
    workers: int,
    app_factory: "Callable[[], ServeApp]",
    max_request_bytes: int | None = None,
    state_dir: str | None = None,
    slow_request_s: float | None = None,
) -> int:
    """Start a pool, print the listening line, and supervise until exit."""
    from repro.serve.keys import schema_tag

    pool = WorkerPool(
        host,
        port,
        workers,
        app_factory,
        max_request_bytes=max_request_bytes,
        state_dir=state_dir,
        slow_request_s=slow_request_s,
    )
    bound_host, bound_port = pool.start()
    print(
        f"repro-serve listening on http://{bound_host}:{bound_port} "
        f"(schema {schema_tag()}; workers={workers}; "
        f"state={pool.state_dir})",
        flush=True,
    )
    return pool.supervise()
