"""Supervised execution: executor backends + campaign guardrails.

The executors speak a small protocol -- ``start`` / ``finish`` /
``abort`` / ``close`` -- that
:func:`~repro.experiments.parallel.resilient_sweep` drives; the sweep
drains each attempt's pipe itself and passes the terminal message to
``finish``.  :func:`create_executor` resolves a backend name from
:data:`EXECUTORS` (``pool``, ``spawn``, ``inprocess``); the CLI's
``--executor`` flag takes its choices from the same dict.  ``pool`` and
``spawn`` are one process engine, :class:`~repro.experiments.pool.
WorkerPool`, under two worker lifetimes (warm for the whole sweep, or
one worker per attempt).  This module adds :class:`InProcessExecutor`,
which runs attempts on daemon *threads* in the parent process -- no
fork, no pipes to a child, ideal for debugging a unit under ``pdb`` and
for environments where ``fork`` is unavailable.  It cannot contain a
hard crash (an ``os._exit`` chaos action would take the parent down)
and cannot interrupt a running attempt, so ``abort`` merely detaches; it
advertises ``max_concurrency = 1``.  All three receive a unit's traces
the same way: as shared-memory handles the attempt attaches.

**Supervision primitives.**  Small, independently testable pieces the
sweep loop composes:

* :class:`HeartbeatMonitor` -- tracks the ``("hb", seq)`` beats workers
  piggyback on their existing result pipes (see
  :mod:`repro.experiments.pool`).  A worker whose beats stop is *hung*
  and is detected after ``misses`` missed intervals -- O(heartbeat
  interval), not O(unit timeout) -- while a slow-but-alive worker keeps
  beating and is left to run to its deadline.  The sweep uses
  :data:`HEARTBEAT_MISSES` missed intervals.
* :class:`QuarantineTracker` -- fingerprint-keyed ledger of attempts
  that *killed their worker* (crash / hang / lost heartbeat).  A unit
  that takes down ``threshold`` distinct workers is poison: it is pulled
  from the run queue and reported, instead of burning the whole
  campaign's retry budget worker by worker.
* :class:`DeadlineBudget` -- a per-campaign wall-clock budget.  When it
  expires the sweep cancels fairly: running attempts are aborted and
  every unfinished unit is recorded as ``skipped-deadline`` in the
  checkpoint and manifest -- never silently dropped.
* :class:`ParentSignalWatch` -- graceful-drain flag for SIGINT/SIGTERM
  on the *parent*.  Handlers only set a flag (never raise mid-I/O), the
  sweep loop polls it, flushes checkpoint + partial manifest + campaign
  telemetry, and the CLI exits with a distinct code so wrappers can tell
  "interrupted, resumable" from "failed".
* :func:`full_jitter_delay` -- seeded full-jitter exponential backoff,
  so simultaneous transient failures across pool workers do not retry in
  lockstep, yet every delay is reproducible from the sweep seed.
"""

from __future__ import annotations

import random
import signal
import threading
import time
from typing import Any, Callable

from repro.util import stable_fingerprint

__all__ = [
    "CampaignInterrupted",
    "DeadlineBudget",
    "EXECUTORS",
    "HEARTBEAT_MISSES",
    "HeartbeatMonitor",
    "InProcessExecutor",
    "LETHAL_EXC_TYPES",
    "ParentSignalWatch",
    "QuarantineTracker",
    "create_executor",
    "full_jitter_delay",
]

#: Exception type names that mean an attempt *took its worker down*
#: (hard crash, hang past deadline, or a heartbeat flatline) -- the
#: signals :class:`QuarantineTracker` counts toward poison status.  A
#: mere ``raise`` inside the unit keeps its worker alive and is never
#: quarantine-worthy.
LETHAL_EXC_TYPES: frozenset[str] = frozenset(
    {"WorkerCrash", "TimeoutError", "HeartbeatLost"}
)


#: Missed heartbeat intervals after which a silent worker is condemned
#: as hung (the ``--heartbeat`` help quotes this value).
HEARTBEAT_MISSES = 2.0


# ----------------------------------------------------------------------
# Executor backends
# ----------------------------------------------------------------------


def _make_pool(obs_spec: dict | None):
    from repro.experiments.pool import WorkerPool

    return WorkerPool(obs_spec=obs_spec)


def _make_spawn(obs_spec: dict | None):
    from repro.experiments.pool import SpawnExecutor

    return SpawnExecutor(obs_spec=obs_spec)


def _make_inprocess(obs_spec: dict | None):
    return InProcessExecutor(obs_spec=obs_spec)


#: Backend name -> factory ``(obs_spec)`` returning an object that
#: speaks the executor protocol (``start``/``finish``/``abort``/``close``
#: plus ``worker_id`` and the ``workers_spawned``/``workers_recycled``
#: counters).
EXECUTORS: dict[str, Callable[[dict | None], Any]] = {
    "pool": _make_pool,
    "spawn": _make_spawn,
    "inprocess": _make_inprocess,
}


def create_executor(name: str, obs_spec: dict | None = None):
    """Instantiate the backend named ``name`` (a key of :data:`EXECUTORS`)."""
    factory = EXECUTORS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown executor {name!r}; available: "
            f"{', '.join(sorted(EXECUTORS))}"
        )
    return factory(obs_spec)


# ----------------------------------------------------------------------
# In-process executor (thread-backed; debugging / fork-less hosts)
# ----------------------------------------------------------------------


class InProcessExecutor:
    """Run attempts on daemon threads inside the parent process.

    The attempt still reports through a real ``multiprocessing.Pipe``,
    so the sweep loop's poll/recv machinery is identical to the process
    engines'.  Containment is weaker by construction: a chaos ``crash``
    (``os._exit``) would kill the parent, and ``abort`` cannot stop a
    Python thread -- it closes the parent's pipe end and detaches (the
    orphaned thread dies on its next send).  ``max_concurrency = 1``
    keeps the worker-observation context (a process-wide slot) exact.
    """

    #: The sweep clamps its in-flight attempts to this.
    max_concurrency = 1

    def __init__(self, obs_spec: dict | None = None) -> None:
        import multiprocessing

        self._ctx = multiprocessing
        self._obs_spec = obs_spec
        self._busy: dict[Any, Any] = {}  # conn -> thread
        self._ids: dict[Any, int] = {}
        self._next_id = 0
        self.workers_spawned = 0
        self.workers_recycled = 0

    def start(
        self, task: tuple, workload: str, attempt: int, plan: Any
    ):
        from repro.experiments.pool import _attempt_message

        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        send_lock = threading.Lock()

        def run() -> None:
            message = _attempt_message(
                task, plan, workload, attempt, self._obs_spec,
                conn=child_conn, send_lock=send_lock,
            )
            try:
                with send_lock:
                    child_conn.send(message)
            except (BrokenPipeError, OSError):
                pass
            finally:
                try:
                    child_conn.close()
                except OSError:
                    pass

        thread = threading.Thread(
            target=run, name=f"inprocess-{workload}-{attempt}", daemon=True
        )
        thread.start()
        self.workers_spawned += 1
        self._busy[parent_conn] = thread
        self._ids[parent_conn] = self._next_id
        self._next_id += 1
        return parent_conn

    def worker_id(self, conn) -> int:
        return self._ids.get(conn, -1)

    def finish(self, conn, message: Any) -> tuple[Any, int | None]:
        thread = self._busy.pop(conn, None)
        self._ids.pop(conn, None)
        if thread is not None:
            thread.join(timeout=1.0)
        conn.close()
        return message, None

    def abort(self, conn) -> Any:
        """Detach from a running attempt (threads cannot be killed).

        The thread keeps running until its next pipe send fails; no
        salvage telemetry is available, exactly like a mute crash.
        """
        self._busy.pop(conn, None)
        self._ids.pop(conn, None)
        try:
            conn.close()
        except OSError:
            pass
        self.workers_recycled += 1
        return None

    def close(self) -> None:
        for conn in list(self._busy):
            self.abort(conn)


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------


class HeartbeatMonitor:
    """Parent-side liveness ledger for in-flight attempt connections.

    ``track`` starts the clock at dispatch (a fresh fork's first beat
    arrives within one interval); ``beat`` resets it; ``overdue``
    returns connections silent for more than ``misses`` intervals.  The
    distinction the sweep needs: a *hung* worker stops beating and is
    caught in O(interval); a *slow-but-alive* worker keeps beating and
    is left alone until its unit deadline.
    """

    def __init__(
        self, interval_s: float, misses: float = HEARTBEAT_MISSES
    ) -> None:
        if interval_s <= 0:
            raise ValueError("heartbeat interval must be positive")
        if misses <= 0:
            raise ValueError("heartbeat misses must be positive")
        self.interval_s = float(interval_s)
        self.misses = float(misses)
        self.beats_received = 0
        self._last_beat: dict[Any, float] = {}

    @property
    def window_s(self) -> float:
        """Silence longer than this condemns a connection."""
        return self.interval_s * self.misses

    def track(self, conn, now: float | None = None) -> None:
        self._last_beat[conn] = time.monotonic() if now is None else now

    def beat(self, conn, now: float | None = None) -> None:
        if conn in self._last_beat:
            self._last_beat[conn] = (
                time.monotonic() if now is None else now
            )
            self.beats_received += 1

    def forget(self, conn) -> None:
        self._last_beat.pop(conn, None)

    def overdue(self, now: float | None = None) -> list[Any]:
        now = time.monotonic() if now is None else now
        window = self.window_s
        return [
            conn
            for conn, last in self._last_beat.items()
            if now - last > window
        ]

    def next_check(self, now: float | None = None) -> float | None:
        """Earliest absolute (monotonic) instant a check could condemn."""
        if not self._last_beat:
            return None
        return min(self._last_beat.values()) + self.window_s


# ----------------------------------------------------------------------
# Poison-unit quarantine
# ----------------------------------------------------------------------


class QuarantineTracker:
    """Ledger of units whose attempts kill their workers.

    Keys are unit fingerprints (same ``stable_fingerprint`` scheme as
    the result cache); each lethal outcome records the *worker id* it
    took down.  Only ``threshold`` lethal outcomes on *distinct* workers
    flip a unit to poison -- one flaky worker crashing twice under the
    same unit proves nothing about the unit.
    """

    def __init__(self, threshold: int | None) -> None:
        if threshold is not None and threshold < 1:
            raise ValueError("quarantine threshold must be at least 1")
        self.threshold = threshold
        self._lethal_workers: dict[str, set[int]] = {}
        self.quarantined: set[str] = set()

    @property
    def enabled(self) -> bool:
        return self.threshold is not None

    def record_lethal(self, key: str, worker: int, exc_type: str) -> None:
        """Note that ``key``'s attempt killed ``worker`` via ``exc_type``."""
        if not self.enabled or exc_type not in LETHAL_EXC_TYPES:
            return
        self._lethal_workers.setdefault(key, set()).add(worker)

    def distinct_workers(self, key: str) -> int:
        return len(self._lethal_workers.get(key, ()))

    def should_quarantine(self, key: str) -> bool:
        if not self.enabled:
            return False
        return self.distinct_workers(key) >= int(self.threshold)

    def quarantine(self, key: str) -> None:
        self.quarantined.add(key)


# ----------------------------------------------------------------------
# Campaign deadline budget
# ----------------------------------------------------------------------


class DeadlineBudget:
    """Per-campaign wall-clock budget against a monotonic start."""

    def __init__(self, deadline_s: float, start: float | None = None) -> None:
        if deadline_s <= 0:
            raise ValueError("campaign deadline must be positive")
        self.deadline_s = float(deadline_s)
        self.start = time.monotonic() if start is None else start

    @property
    def expires_at(self) -> float:
        return self.start + self.deadline_s

    def remaining(self, now: float | None = None) -> float:
        now = time.monotonic() if now is None else now
        return max(0.0, self.expires_at - now)

    def expired(self, now: float | None = None) -> bool:
        now = time.monotonic() if now is None else now
        return now >= self.expires_at


# ----------------------------------------------------------------------
# Parent signal watch (crash-safe campaign recovery)
# ----------------------------------------------------------------------


class CampaignInterrupted(BaseException):
    """The campaign parent was told to stop (SIGINT/SIGTERM).

    A ``BaseException`` so sweeping ``except Exception`` blocks cannot
    swallow it; in practice the sweep never *raises* it mid-I/O -- the
    signal handler only sets a flag and the loop drains gracefully.
    """

    def __init__(self, signame: str) -> None:
        super().__init__(signame)
        self.signame = signame


class ParentSignalWatch:
    """Context manager turning SIGINT/SIGTERM into a graceful-drain flag.

    Handlers never raise: they record the signal name, and the sweep
    loop polls :attr:`signame` at its (bounded-wait) top, so a signal
    can never land mid-``os.replace`` or mid-pipe-read.  A second signal
    of the same kind while draining restores the previous handler and
    re-raises it -- an impatient operator can still force-kill.  Outside
    the main thread, signal handlers cannot be installed; the watch then
    degrades to an inert flag holder.
    """

    def __init__(self) -> None:
        self.signame: str | None = None
        self._previous: dict[int, Any] = {}

    def _handle(self, signum, frame) -> None:  # pragma: no cover - signals
        if self.signame is not None:
            # Second signal: stop being graceful.
            previous = self._previous.get(signum, signal.SIG_DFL)
            signal.signal(signum, previous)
            signal.raise_signal(signum)
            return
        self.signame = signal.Signals(signum).name

    def __enter__(self) -> "ParentSignalWatch":
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                pass  # non-main thread: poll-only, signals use defaults
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()


# ----------------------------------------------------------------------
# Seeded full-jitter backoff
# ----------------------------------------------------------------------


def full_jitter_delay(
    base_s: float, seed: int, workload: str, attempt: int
) -> float:
    """Full-jitter backoff: uniform in ``[0, base_s * 2**(attempt-1))``.

    Simultaneous transient failures (e.g. every pool worker hitting the
    same flaky mount) must not retry in lockstep; full jitter spreads
    them across the whole window (AWS's analysis shows it beats equal or
    decorrelated jitter for contended retries).  The draw is keyed by
    ``(seed, workload, attempt)`` through the same stable-fingerprint
    scheme the result cache uses, so a resumed or re-run sweep backs off
    identically -- reproducible, yet uncorrelated across workloads.
    """
    if base_s <= 0:
        return 0.0
    window = base_s * (2 ** max(attempt - 1, 0))
    digest = stable_fingerprint(
        {"seed": seed, "purpose": "backoff", "workload": workload,
         "attempt": attempt},
        length=16,
    )
    rng = random.Random(int(digest, 16))
    return window * rng.random()


# ----------------------------------------------------------------------
# Worker-side heartbeat pump
# ----------------------------------------------------------------------


class HeartbeatPump:
    """Daemon thread beating ``("hb", seq)`` down a connection.

    Shares ``send_lock`` with the attempt's final result send, because
    ``Connection.send`` is not thread-safe.  The chaos plane can
    :meth:`suspend` the pump (the ``stall-heartbeat`` action) to
    simulate a worker whose main thread still runs but whose event loop
    -- here, the pump -- has flatlined.  A send failure (parent gone)
    stops the pump silently; the attempt's own send will surface it.
    """

    def __init__(self, conn, send_lock: threading.Lock,
                 interval_s: float) -> None:
        self._conn = conn
        self._lock = send_lock
        self._interval = float(interval_s)
        self._stop = threading.Event()
        self._suspended = threading.Event()
        self.sent = 0
        self._thread = threading.Thread(
            target=self._run, name="heartbeat-pump", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        seq = 0
        while not self._stop.is_set():
            if not self._suspended.is_set():
                try:
                    with self._lock:
                        self._conn.send(("hb", seq))
                except (BrokenPipeError, OSError):
                    return
                seq += 1
                self.sent = seq
            if self._stop.wait(self._interval):
                return

    def suspend(self) -> None:
        """Stop beating without stopping the attempt (chaos hook)."""
        self._suspended.set()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)
