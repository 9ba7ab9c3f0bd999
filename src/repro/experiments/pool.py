"""Sweep execution engine: warm worker processes plus the shm trace store.

The figure/table sweeps run many independent ``(workload, techniques)``
units.  PR 3's resilient harness paid a full process spawn per *attempt*:
interpreter fork, module import state, cold trace cache, cold warm-L2
image cache -- orchestration overhead that dominates short units.  This
module keeps those costs amortised:

* :class:`WorkerPool` -- the one process engine.  Each worker is a
  child process running :func:`_pool_worker_main`, a request/response
  loop over a duplex pipe.  Across units a worker keeps its imported
  modules and the memoised warm-L2 images, so only the first unit a
  worker sees pays setup.  A worker is *recycled* (discarded and lazily
  replaced) only when it crashes (pipe EOF) or hangs (the harness aborts
  it on deadline); a unit that merely raises keeps its worker warm.
* :class:`SpawnExecutor` -- the same engine under a one-attempt lifetime:
  every attempt forks a fresh worker, which is retired when the attempt
  finishes.  It is the cold-start reference the throughput benchmark
  compares the warm pool against.
* :class:`SharedTraceStore` -- parent-side refcounted export of traces
  into named ``multiprocessing.shared_memory`` segments, so every
  executor's attempts attach multi-million-record columns zero-copy
  instead of receiving a pickled copy.  Segments are unlinked when their
  refcount drops to zero and unconditionally in
  :meth:`SharedTraceStore.close`, which the sweep calls in a ``finally``
  -- a crashed or recycled worker can never leak ``/dev/shm`` entries,
  because workers never own segments.

Every executor speaks the same protocol to the resilient harness:
``start()`` returns a pollable connection; the harness drains that
connection itself and hands the attempt's terminal message to
``finish(conn, message)`` (``None`` means the worker died without
reporting); ``abort()`` terminates a hung attempt -- waiting briefly for
the SIGTERM-flushed partial telemetry message the worker's abort handler
tries to send, and returning that salvage (or ``None``) -- and
``close()`` tears everything down.  Wire messages carry a telemetry
snapshot as their last element (see :mod:`repro.obs.campaign`).

Heartbeats: when the ``obs_spec`` carries a positive ``heartbeat_s``,
every attempt runs a :class:`~repro.experiments.supervise.HeartbeatPump`
thread that piggybacks ``("hb", seq)`` liveness beats on the *same*
duplex pipe the result travels on -- no extra file descriptors, no wire
format change (terminal messages are still the PR 6 tuples; the harness
skips beats with :func:`_is_heartbeat`).  Beats share a send lock with
the final message because ``Connection.send`` is not thread-safe.  The
harness's timeout/retry/checkpoint semantics live entirely in
:func:`repro.experiments.parallel.resilient_sweep` and are identical on
every executor.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import time
import traceback
from typing import Any

from repro.experiments.parallel import ParallelWorkerError, _workload_task
from repro.faults.chaos import (
    ChaosWorkerProxy,
    clear_heartbeat_control,
    register_heartbeat_control,
)
from repro.faults.plan import FaultPlan
from repro.obs.campaign import (
    WorkerAborted,
    begin_worker_obs,
    end_worker_obs,
    install_sigterm_flush,
)
from repro.obs.metrics import get_default_registry
from repro.workloads.trace import Trace

__all__ = [
    "SharedTraceStore",
    "SpawnExecutor",
    "WorkerPool",
    "active_shm_segments",
    "created_shm_segments",
]


def _is_heartbeat(message: Any) -> bool:
    """Whether a wire message is a liveness beat rather than a result."""
    return (
        isinstance(message, tuple)
        and len(message) == 2
        and message[0] == "hb"
    )


def _drain_salvage(conn, timeout: float = 0.5) -> Any:
    """Poll briefly for an aborted worker's salvage message.

    Heartbeats queued before the SIGTERM landed are skipped; ``None``
    when nothing terminal arrives in time (telemetry is then *lost*).
    """
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        try:
            if not conn.poll(remaining):
                return None
            message = conn.recv()
        except (EOFError, OSError):
            return None
        if _is_heartbeat(message):
            continue
        return message


# ----------------------------------------------------------------------
# Shared-memory segment bookkeeping
#
# Every segment this process creates is recorded here so tests (and the
# CI smoke gate) can prove none outlive their sweep.  The *live* set
# holds names created but not yet unlinked; the *created* list is the
# full history.
# ----------------------------------------------------------------------

_LIVE_SEGMENTS: set[str] = set()
_CREATED_SEGMENTS: list[str] = []


def active_shm_segments() -> list[str]:
    """Names of shared segments this process created and has not unlinked.

    Empty after every well-behaved sweep; a non-empty result is a leak.
    """
    return sorted(_LIVE_SEGMENTS)


def created_shm_segments() -> list[str]:
    """All segment names this process ever created (leak-audit history)."""
    return list(_CREATED_SEGMENTS)


class SharedTraceStore:
    """Refcounted exporter of traces into shared-memory segments.

    The sweep parent acquires one reference per unit that ships a given
    trace (dual-core mixes share profile traces across units, so counts
    exceed one); the segment is unlinked when the last reference is
    released or, unconditionally, on :meth:`close`.  Attaching workers
    never unlink -- segment lifetime is owned entirely by this store, so
    a worker crash mid-unit cannot leak the segment.
    """

    def __init__(self) -> None:
        # key -> [shm, handle, refcount]
        self._entries: dict[Any, list] = {}

    def acquire(self, key: Any, trace: Trace):
        """Export ``trace`` (once) and take a reference; returns the handle."""
        entry = self._entries.get(key)
        if entry is None:
            shm, handle = trace.to_shm()
            _LIVE_SEGMENTS.add(handle.segment)
            _CREATED_SEGMENTS.append(handle.segment)
            entry = self._entries[key] = [shm, handle, 0]
        entry[2] += 1
        return entry[1]

    def release(self, key: Any) -> None:
        """Drop one reference; unlink the segment when none remain."""
        entry = self._entries.get(key)
        if entry is None:
            return
        entry[2] -= 1
        if entry[2] <= 0:
            self._destroy(key)

    def close(self) -> None:
        """Unlink every segment regardless of refcount (sweep ``finally``)."""
        for key in list(self._entries):
            self._destroy(key)

    def _destroy(self, key: Any) -> None:
        shm, handle, _refs = self._entries.pop(key)
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            _LIVE_SEGMENTS.discard(handle.segment)

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# Attempt execution (shared by every executor)
# ----------------------------------------------------------------------


def _attempt_message(
    task: tuple,
    plan: FaultPlan | None,
    workload: str,
    attempt: int,
    obs_spec: dict | None = None,
    conn: Any = None,
    send_lock: threading.Lock | None = None,
) -> tuple:
    """Run one unit attempt; return the wire message, never raise.

    Applies the fault plan's Plane-2 chaos scripting exactly as the PR 3
    spawn path did: a scripted ``crash`` is an ``os._exit`` inside the
    proxy and never returns (the parent sees the pipe close with no
    message, like a real segfault), ``hang`` sleeps past the harness
    deadline, ``corrupt`` mangles the payload for parent-side validation
    to catch, ``raise`` surfaces as a deterministic error message.

    Every message carries the attempt's telemetry snapshot as its last
    element: ``("ok", payload, telemetry)`` on success, ``("error",
    exc_type, detail, telemetry)`` on failure, and ``("aborted",
    exc_type, detail, telemetry)`` when the harness SIGTERMed the
    attempt mid-flight -- the snapshot is then flagged *partial* and
    holds whatever the unit had flushed before dying.  Telemetry rides
    outside the validated result payload, so a chaos-corrupted result
    cannot corrupt its own telemetry.

    When ``obs_spec`` carries a positive ``heartbeat_s`` and a ``conn``
    is supplied, the attempt runs under a
    :class:`~repro.experiments.supervise.HeartbeatPump` beating on that
    connection for its whole duration (including chaos hangs -- a
    hanging-but-beating worker is *slow*, not *hung*).  The pump is
    registered as the chaos plane's heartbeat control so a scripted
    ``stall-heartbeat`` can flatline it without stopping the attempt.
    """
    spec = obs_spec or {}
    obs = begin_worker_obs(trace_capacity=int(spec.get("trace_capacity", 0)))
    pump = None
    heartbeat_s = float(spec.get("heartbeat_s") or 0.0)
    if heartbeat_s > 0 and conn is not None:
        from repro.experiments.supervise import HeartbeatPump

        pump = HeartbeatPump(
            conn, send_lock or threading.Lock(), heartbeat_s
        )
        register_heartbeat_control(pump.suspend)
        pump.start()
    try:
        try:
            if plan is not None and plan.has_chaos():
                proxy = ChaosWorkerProxy(plan, workload, attempt)
                result = proxy(lambda: _workload_task(task))
            else:
                result = _workload_task(task)
            return ("ok", result, obs.snapshot(partial=False))
        except WorkerAborted as exc:
            return ("aborted", "WorkerAborted", str(exc), obs.snapshot(partial=True))
        except ParallelWorkerError as exc:
            return ("error", exc.exc_type, exc.detail, obs.snapshot(partial=True))
        except BaseException as exc:  # noqa: BLE001 -- must not die silently
            return (
                "error",
                type(exc).__name__,
                traceback.format_exc(),
                obs.snapshot(partial=True),
            )
    finally:
        if pump is not None:
            clear_heartbeat_control()
            pump.stop()
        end_worker_obs()


def _pool_worker_main(conn) -> None:
    """Worker request loop: serve unit attempts until told to stop.

    The one child entry point of every process executor: a pool worker
    serves many requests, a spawn worker is stopped after its first.
    State deliberately persists across requests -- memoised warm-L2 images
    and imported modules are the warmth the pool exists to amortise.
    Shipped traces are not: each lives only as long as its unit (see
    :func:`~repro.experiments.parallel._workload_task`).  The loop exits
    on a ``stop`` request or when the parent end of the pipe disappears.
    """
    # A worker starts with a large inherited heap (modules and whatever
    # the parent built before the fork).  Freeze it out of the cyclic
    # collector, so full collections never rescan -- and COW-unshare --
    # objects that live until exit anyway.
    gc.freeze()
    # SIGTERM (the harness aborting a hung attempt) raises WorkerAborted
    # so the in-flight attempt can flush a final partial telemetry
    # snapshot instead of dying mute.
    install_sigterm_flush()
    # One lock for everything this worker ever sends: the heartbeat pump
    # thread and the request loop's result sends must not interleave.
    send_lock = threading.Lock()
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            except WorkerAborted:
                break
            if (
                not isinstance(request, tuple)
                or not request
                or request[0] != "run"
            ):
                break
            _tag, task, workload, attempt, plan, *rest = request
            obs_spec = rest[0] if rest else None
            # A unit's objects -- its Systems, each with a cloned warm L2
            # of a few containers per set -- die by reference counting
            # when the unit ends, so collecting while they live only
            # rescans them: about a quarter of a short unit's time, all
            # of it during System construction.  Pause the collector for
            # the attempt; the few cycles a unit leaves behind go at the
            # first collection after it.
            gc.disable()
            try:
                message = _attempt_message(
                    task, plan, workload, attempt, obs_spec,
                    conn=conn, send_lock=send_lock,
                )
            finally:
                gc.enable()
            try:
                with send_lock:
                    conn.send(message)
            except (BrokenPipeError, OSError, WorkerAborted):
                break
            if message[0] == "aborted":
                # The harness condemned this worker; exit promptly so the
                # parent's reap join does not have to escalate.
                break
    except WorkerAborted:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class WorkerPool:
    """Persistent warm-worker executor.

    Workers are forked lazily (an attempt that finds no idle worker
    forks one) and reused for every later attempt; the sweep caps the
    attempts in flight, so it caps the workers too.  ``finish`` on a
    cleanly-reporting worker returns it to the idle list; a worker that
    died mid-attempt (crash) or was :meth:`abort`-ed (hang) is reaped and
    counted in ``workers_recycled`` -- its replacement forks lazily on
    the next ``start``, so recycling costs one spawn, not a pool
    rebuild.
    """

    def __init__(self, mp_context=None, obs_spec: dict | None = None) -> None:
        self._ctx = mp_context if mp_context is not None else multiprocessing
        self._obs_spec = obs_spec
        self._idle: list[tuple[Any, Any]] = []  # (conn, process)
        self._busy: dict[Any, Any] = {}  # conn -> process
        self._ids: dict[Any, int] = {}  # conn -> worker id (spawn order)
        self._closed = False
        self.workers_spawned = 0
        self.workers_recycled = 0

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self) -> tuple[Any, Any]:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        self._ids[parent_conn] = self.workers_spawned
        self.workers_spawned += 1
        get_default_registry().counter("sweep_pool.spawned").inc()
        return parent_conn, proc

    def _reap(self, conn, proc) -> None:
        """Discard a dead or condemned worker."""
        try:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        finally:
            try:
                conn.close()
            except OSError:
                pass
        self._ids.pop(conn, None)
        self.workers_recycled += 1
        get_default_registry().counter("sweep_pool.recycled").inc()

    def _retire(self, conn, proc) -> None:
        """Stop a healthy idle worker gracefully (not a recycle)."""
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.terminate()
            proc.join()
        try:
            conn.close()
        except OSError:
            pass
        self._ids.pop(conn, None)

    def worker_id(self, conn) -> int:
        """Stable identity of the worker behind a connection.

        Ids follow spawn order and survive warm reuse (the same worker
        serving ten units keeps one id), so the quarantine tracker can
        tell "one flaky worker died twice" from "two different workers
        died under the same unit".
        """
        return self._ids.get(conn, -1)

    # -- executor protocol ---------------------------------------------

    def start(
        self, task: tuple, workload: str, attempt: int, plan: FaultPlan | None
    ):
        """Dispatch one attempt to a warm (or freshly forked) worker.

        Returns the pollable connection the attempt will report on.
        """
        request = ("run", task, workload, attempt, plan, self._obs_spec)
        while True:
            if self._idle:
                conn, proc = self._idle.pop()
            else:
                conn, proc = self._spawn()
            try:
                conn.send(request)
            except (BrokenPipeError, OSError):
                # The idle worker died while parked; recycle and retry
                # with another (ultimately a fresh fork, which cannot
                # have a broken pipe at send time).
                self._reap(conn, proc)
                continue
            self._busy[conn] = proc
            return conn

    def finish(self, conn, message: Any) -> tuple[Any, int | None]:
        """Settle an attempt on the terminal ``message`` the harness drained.

        ``message is None`` means the worker died without reporting: it
        is reaped and counted recycled, and ``exitcode`` carries its
        status.  Otherwise the worker goes back to the idle list, still
        warm.
        """
        proc = self._busy.pop(conn)
        if message is None:
            self._reap(conn, proc)
            return None, proc.exitcode
        self._idle.append((conn, proc))
        return message, None

    def abort(self, conn) -> Any:
        """Terminate a (presumed hung) attempt; the worker is recycled.

        The worker's SIGTERM handler gives the dying attempt a moment to
        flush a final partial telemetry message; ``abort`` waits briefly
        for that salvage (skipping queued heartbeats) and returns it
        (``None`` when nothing arrived -- the attempt's telemetry is
        then *lost*).
        """
        proc = self._busy.pop(conn)
        proc.terminate()
        salvage = _drain_salvage(conn)
        self._reap(conn, proc)
        return salvage

    def close(self) -> None:
        """Stop idle workers gracefully, kill busy ones, drop all pipes."""
        if self._closed:
            return
        self._closed = True
        for conn, proc in self._idle:
            self._retire(conn, proc)
        self._idle.clear()
        for conn, proc in self._busy.items():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            try:
                conn.close()
            except OSError:
                pass
        self._busy.clear()


class SpawnExecutor(WorkerPool):
    """One fresh worker per attempt: the pool's worker, retired at finish.

    Nothing is ever parked idle, so every ``start`` forks, and a worker
    that reported is stopped instead of kept warm.  Crashes and aborts
    go through the pool's reap, so ``workers_spawned`` counts attempts
    and ``workers_recycled`` only the workers they killed.  Kept as the
    cold-start reference the throughput benchmark compares against.
    """

    def finish(self, conn, message: Any) -> tuple[Any, int | None]:
        message, exitcode = super().finish(conn, message)
        if message is not None:
            self._retire(*self._idle.pop())
        return message, exitcode
