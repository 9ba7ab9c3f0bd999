"""Process-parallel experiment execution: the one sweep driver.

The figure/table sweeps are embarrassingly parallel across workloads: each
(workload, techniques) unit regenerates its traces, runs the baseline once,
and runs each technique against it.  :func:`resilient_sweep` fans those
units out over worker processes; ``repro sweep`` and ``repro figure``
both run on it.

Granularity note: parallelism is per *workload*, not per (workload,
technique) -- the baseline run and the generated traces are shared between
techniques within a worker, which is the same sharing the sequential
:class:`~repro.experiments.runner.Runner` exploits.

Execution engine (:mod:`repro.experiments.pool`): by default
:func:`resilient_sweep` dispatches units to a persistent pool of *warm*
workers that amortise interpreter start, module imports and memoised
warm-L2 images across units, and are recycled only on crash or hang
(``executor="spawn"`` runs the same worker under a one-attempt lifetime;
``executor="inprocess"`` runs attempts on a parent thread).  Every
executor receives a unit's traces zero-copy, as handles to shared-memory
segments the parent exports once per unit, and every executor runs the
same timeout/retry/checkpoint/degradation state machine in this module,
so resilience semantics are executor-independent.

Results can additionally be served from a content-addressed
:class:`~repro.experiments.result_cache.ResultCache`: units whose full
input fingerprint (profiles, budget, seed, techniques, config, fault
plan, engine version) matches a cached entry are returned bit-for-bit
without running at all.

Observability: with ``progress=True`` (or a custom
:class:`~repro.obs.profile.ProgressReporter`) each completed workload
prints a progress + ETA line to stderr; each worker times its own unit
with a profiling span and the wall time rides back with the results.
A failing unit surfaces as a :class:`FailedWorkload` naming the workload,
with the worker-side traceback (carried by :class:`ParallelWorkerError`)
in its ``detail``.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as pipe_wait
from typing import Any, Iterable, Sequence

from repro.config import SimConfig
from repro.experiments import _trace_cache
from repro.experiments.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.experiments.result_cache import (
    ResultCache,
    cached_unit,
    unit_fingerprint,
)
from repro.experiments.runner import RunComparison, Runner, profiles_for
from repro.experiments.supervise import (
    DeadlineBudget,
    HeartbeatMonitor,
    ParentSignalWatch,
    QuarantineTracker,
    create_executor,
    full_jitter_delay,
)
from repro.faults.plan import FaultPlan
from repro.obs.campaign import (
    CampaignAggregator,
    current_worker_obs,
    telemetry_from_message,
)
from repro.obs.profile import Profiler, ProgressReporter
from repro.workloads.trace import Trace

__all__ = [
    "FailedWorkload",
    "ParallelWorkerError",
    "QuarantinedWorkload",
    "SkippedWorkload",
    "SweepResult",
    "TRANSIENT_EXC_TYPES",
    "resilient_sweep",
]

#: Worker exception type names the resilient sweep treats as *transient*
#: (worth retrying): infrastructure deaths, not deterministic bugs in the
#: unit itself.  A deterministic failure (assertion, ValueError, a
#: scripted ChaosError) would fail identically on every retry, so it
#: fails fast instead of burning the retry budget.
TRANSIENT_EXC_TYPES: frozenset[str] = frozenset(
    {
        "TimeoutError",
        "WorkerCrash",
        "HeartbeatLost",
        "CorruptResult",
        "BrokenProcessPool",
        "BrokenPipeError",
        "EOFError",
        "ConnectionResetError",
        "ConnectionError",
        "OSError",
        "MemoryError",
    }
)


class ParallelWorkerError(RuntimeError):
    """A sweep worker died; carries the workload that was running.

    The worker-side traceback is folded into the message because raw
    exceptions (with their tracebacks and possibly unpicklable payloads)
    do not cross the process boundary reliably.  ``exc_type`` preserves
    the *original* exception's type name across that flattening, so the
    parent's retry logic can still distinguish transient infrastructure
    failures from deterministic ones.
    """

    def __init__(
        self, workload: str, detail: str, exc_type: str = "ParallelWorkerError"
    ) -> None:
        super().__init__(workload, detail, exc_type)
        self.workload = workload
        self.detail = detail
        self.exc_type = exc_type

    def __str__(self) -> str:
        return (
            f"sweep worker failed on workload {self.workload!r} "
            f"[{self.exc_type}]: {self.detail}"
        )


def _trace_needs_for(config: SimConfig, workload: str, seed: int) -> list[tuple]:
    """``(cache_key, profile)`` pairs a workload's unit will ask for
    (mirrors :meth:`Runner.traces_for`)."""
    budget = config.instructions_per_core
    return [
        ((p.name, budget, seed), p) for p in profiles_for(config, workload)
    ]


def _workload_task(
    args: tuple,
) -> tuple[list[RunComparison], float]:
    """Worker: all techniques for one workload (module-level: picklable).

    ``args`` is ``(config, workload, techniques, seed, preloaded, plan)``;
    ``plan`` is a :class:`FaultPlan` (or ``None``) whose hardware faults
    (Plane 1) are injected into every simulated system.

    ``preloaded`` maps this workload's trace-cache keys to
    :class:`~repro.workloads.trace.TraceShmHandle` descriptors naming the
    shared-memory segments the parent exported just before the unit's
    first dispatch (a retry reuses them).  The attempt attaches each one
    zero-copy and seeds its trace cache instead of regenerating; the
    traces it installed leave the cache again when the unit ends, success
    or failure, unless a later attempt has replaced them since (an
    in-process attempt that timed out runs on beside its retry).  So a
    warm pool worker holds only the current unit's traces and list views
    (no paper campaign reuses a trace across units).  An in-process
    attempt shares the parent's cache, so the parent regenerates such a
    trace if a later unit asks for it.

    Runs under the attempt's worker observation context (see
    :mod:`repro.obs.campaign`): a fresh per-attempt metrics registry, with
    counters attributed per technique -- the baseline run is attributed
    explicitly so technique deltas measure only their own simulation.
    Returns the comparisons plus the unit's wall time; failures are
    re-raised as :class:`ParallelWorkerError` so the parent knows which
    workload died and (via ``exc_type``) what kind of exception killed it.
    """
    config, workload, techniques, seed, preloaded, fault_plan = args
    installed = []
    profiler = Profiler()
    obs = current_worker_obs()
    try:
        for key, handle in preloaded.items():
            trace = Trace.from_shm(handle)
            _trace_cache.put(*key, trace)
            installed.append((key, trace))
        with profiler.span(f"worker:{workload}") as span:
            runner = Runner(
                config,
                seed=seed,
                fault_plan=fault_plan,
                metrics=obs.registry,
                tracer=obs.tracer,
            )
            with obs.technique_span("baseline"):
                runner.baseline(workload)
            comparisons = []
            for technique in techniques:
                with obs.technique_span(technique):
                    comparisons.append(runner.compare(workload, technique))
        return comparisons, span.wall_s
    except ParallelWorkerError:
        raise
    except Exception as exc:
        raise ParallelWorkerError(
            workload, traceback.format_exc(), type(exc).__name__
        ) from None
    finally:
        for key, trace in installed:
            _trace_cache.discard(*key, trace)


# ----------------------------------------------------------------------
# Resilient sweep: timeouts, retries, checkpoint/resume, degradation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FailedWorkload:
    """Manifest entry for a unit the sweep could not complete.

    ``telemetry`` records how much observability survived the final
    attempt: ``"partial"`` when the dying worker flushed a SIGTERM
    snapshot, ``"lost"`` when it died mute (hard crash).
    """

    workload: str
    attempts: int
    exc_type: str
    detail: str
    telemetry: str = "lost"


@dataclass(frozen=True)
class QuarantinedWorkload:
    """Manifest entry for a poison unit pulled from the run queue.

    ``workers`` counts the *distinct* workers this unit's attempts took
    down before the quarantine threshold tripped; ``fingerprint`` is the
    unit's content fingerprint (result-cache scheme), or ``""`` when the
    unit could not be fingerprinted (keyed by workload name instead).
    """

    workload: str
    fingerprint: str
    attempts: int
    workers: int
    exc_type: str
    detail: str
    telemetry: str = "lost"


@dataclass(frozen=True)
class SkippedWorkload:
    """Manifest entry for a unit cancelled by supervision, not failure.

    ``reason`` is ``"deadline"`` (the campaign budget expired) or
    ``"interrupt"`` (the parent was signalled); ``attempts`` counts the
    attempts consumed before cancellation (0 for never-started units).
    Skips are recorded in the checkpoint too -- never silently dropped.
    """

    workload: str
    reason: str
    attempts: int = 0


@dataclass
class SweepResult:
    """Outcome of :func:`resilient_sweep`.

    ``comparisons`` holds the surviving units keyed by technique, each
    list in workload order; ``failed`` is the
    missing-workload manifest.  ``degraded`` is True when at least one
    unit was abandoned -- the surviving results are still exact (each
    unit is independent), the sweep is just incomplete.  ``cached``
    lists units served whole from the result cache, and the
    ``workers_*`` counters describe the execution engine's process
    economy (``spawn`` forks once per attempt, ``inprocess`` counts one
    thread per attempt; a pooled run spawns at most ``jobs`` plus one per
    crash/hang recycle).

    Campaign telemetry: ``timeline`` holds one record per attempt (and
    per cached/resumed unit) with wall-clock offsets relative to the
    sweep start, so a report can reconstruct the retry/backoff history;
    ``telemetry`` is the merged :class:`~repro.obs.campaign.
    CampaignAggregator` state (campaign counter/histogram totals,
    per-technique and per-unit rollups, and which units lost their
    telemetry); ``wall_s`` is the whole sweep's wall time.
    """

    comparisons: dict[str, list[RunComparison]]
    completed: list[str]
    failed: list[FailedWorkload] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)
    attempts: int = 0
    retries: int = 0
    cached: list[str] = field(default_factory=list)
    workers_spawned: int = 0
    workers_recycled: int = 0
    wall_s: float = 0.0
    timeline: list[dict[str, Any]] = field(default_factory=list)
    telemetry: dict[str, Any] = field(default_factory=dict)
    quarantined: list[QuarantinedWorkload] = field(default_factory=list)
    skipped: list[SkippedWorkload] = field(default_factory=list)
    #: Signal name (``"SIGTERM"``/``"SIGINT"``) when the campaign parent
    #: was interrupted and drained gracefully; ``None`` otherwise.
    interrupted: str | None = None
    #: Supervision configuration + observations (heartbeat interval,
    #: beats received, hung workers detected, deadline, executor name).
    supervision: dict[str, Any] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.failed or self.quarantined or self.skipped)

    def manifest(self) -> dict[str, Any]:
        """JSON-able summary of what completed and what went missing."""
        return {
            "degraded": self.degraded,
            "completed": list(self.completed),
            "resumed": list(self.resumed),
            "cached": list(self.cached),
            "attempts": self.attempts,
            "retries": self.retries,
            "workers_spawned": self.workers_spawned,
            "workers_recycled": self.workers_recycled,
            "wall_s": self.wall_s,
            "timeline": [dict(entry) for entry in self.timeline],
            "telemetry": dict(self.telemetry),
            "failed": [
                {
                    "workload": f.workload,
                    "attempts": f.attempts,
                    "exc_type": f.exc_type,
                    "detail": f.detail,
                    "telemetry": f.telemetry,
                }
                for f in self.failed
            ],
            "quarantined": [
                {
                    "workload": q.workload,
                    "fingerprint": q.fingerprint,
                    "attempts": q.attempts,
                    "workers": q.workers,
                    "exc_type": q.exc_type,
                    "detail": q.detail,
                    "telemetry": q.telemetry,
                }
                for q in self.quarantined
            ],
            "skipped": [
                {
                    "workload": s.workload,
                    "reason": s.reason,
                    "attempts": s.attempts,
                }
                for s in self.skipped
            ],
            "interrupted": self.interrupted,
            "supervision": dict(self.supervision),
        }


@dataclass
class _Unit:
    """Parent-side bookkeeping for one (workload, all-techniques) unit."""

    index: int
    workload: str
    fingerprint: str = ""
    #: Built at the unit's first dispatch (see ``ship``); retries reuse it.
    task: tuple | None = None
    shm_keys: tuple = ()
    attempt: int = 0  # attempts already consumed
    last_exc_type: str = ""
    last_detail: str = ""
    last_telemetry: str = "lost"  # obs outcome of the latest attempt


#: Sentinel for "the pipe yielded only heartbeats; the attempt is still
#: running" in the supervised receive loop.
_PENDING = object()


def _telemetry_status(telemetry: Any) -> str:
    """Manifest label for an attempt's telemetry: ok / partial / lost."""
    if telemetry is None:
        return "lost"
    return "partial" if telemetry.get("partial") else "ok"


def _validate_unit_result(payload: Any) -> tuple[list[RunComparison], float] | None:
    """Reject results a broken/corrupting worker could have produced.

    Returns the validated ``(comparisons, wall_s)`` or ``None`` when the
    payload is not the expected shape (the harness then treats the
    attempt as a transient ``CorruptResult`` failure).
    """
    if not isinstance(payload, tuple) or len(payload) != 2:
        return None
    comparisons, wall_s = payload
    if not isinstance(comparisons, list) or not isinstance(
        wall_s, (int, float)
    ):
        return None
    if not all(isinstance(c, RunComparison) for c in comparisons):
        return None
    return comparisons, float(wall_s)


def resilient_sweep(
    config: SimConfig,
    workloads: Iterable[str],
    techniques: Sequence[str] = ("esteem", "rpv"),
    seed: int = 0,
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    checkpoint: str | os.PathLike | None = None,
    resume: bool = False,
    plan: FaultPlan | None = None,
    progress: bool | ProgressReporter = False,
    cache: ResultCache | None = None,
    trace_events: int = 0,
    executor: str = "pool",
    heartbeat_s: float | None = None,
    quarantine_after: int | None = None,
    deadline_s: float | None = None,
) -> SweepResult:
    """Run ``techniques`` on every workload, surviving hostile infrastructure.

    Returns comparisons keyed by technique, in workload order -- the same
    shape as running :meth:`Runner.compare_many` per technique, but using
    up to ``jobs`` worker processes (default: the machine's CPU count).
    Each (workload, all-techniques) unit runs one attempt at a time in a
    worker process connected by a pipe, so the parent can enforce a
    per-attempt wall-clock ``timeout_s`` by terminating a hung worker --
    something a ``ProcessPoolExecutor`` cannot do to a running task.
    With ``executor="pool"`` (the default) attempts are dispatched to
    persistent warm workers; a terminated or crashed worker is recycled,
    every other worker stays warm.  ``executor="spawn"`` runs the same
    worker but forks one per attempt (the throughput benchmark's
    baseline), and ``executor="inprocess"`` runs attempts on a thread in
    the parent (for debugging).  On every executor a unit's traces travel
    as zero-copy shared-memory handles, exported at its first dispatch.
    Failed attempts are classified by exception type: transient ones
    (:data:`TRANSIENT_EXC_TYPES`: crashes, timeouts, corrupt results,
    broken pipes) are retried up to ``retries`` times with exponential
    backoff (``backoff_s * 2**(attempt-1)``); deterministic ones fail
    fast, because a unit that raised ``ValueError`` once will raise it on
    every retry.

    Determinism: a retried unit reproduces the original attempt bit for
    bit -- traces are functions of ``(profile, budget, seed)``, and the
    fault plan's Plane-1 RNG stream is keyed by ``(plan.seed, workload,
    technique)``, independent of the attempt number and of which worker
    process (warm or fresh) runs it.

    With ``checkpoint`` set, every completed unit is persisted
    atomically; with ``resume=True`` units already in the checkpoint are
    skipped and their checkpointed comparisons returned (bit-for-bit
    equal to re-running them, see
    :mod:`repro.experiments.checkpoint`).  With ``cache`` set, units
    whose content fingerprint is already cached are returned without
    running (and recorded into the checkpoint, so a later ``--resume``
    agrees); fresh units are stored back on completion.

    Instead of raising on a unit that exhausts its retries, the sweep
    degrades: surviving units are returned, the lost unit lands in the
    :class:`SweepResult` ``failed`` manifest, and ``degraded`` flips
    True.  Callers decide whether partial results are acceptable.

    Campaign telemetry: every worker attempt runs under a fresh
    per-attempt metrics registry (plus a small tracer ring when
    ``trace_events`` > 0) and ships its snapshot back with the wire
    message -- including partial snapshots flushed on SIGTERM when the
    harness aborts a hung attempt.  Snapshots of *successful* attempts
    merge into the campaign totals (so the merged counters are exactly
    the sum of the per-unit truths); failed attempts keep their
    partial/lost status in the per-attempt ``timeline``.  Progress
    reporters receive live aggregate fields through
    ``reporter.status(...)`` (see
    :class:`~repro.obs.campaign.CampaignDashboard`).

    Supervision (all off by default; see
    :mod:`repro.experiments.supervise`): with ``heartbeat_s`` set,
    workers beat on their result pipes and a worker whose beats flatline
    is condemned as *hung* after
    :data:`~repro.experiments.supervise.HEARTBEAT_MISSES` missed
    intervals -- O(heartbeat interval) detection, retried as
    ``HeartbeatLost`` -- while a slow-but-alive worker that keeps beating
    runs to its ``timeout_s`` deadline.  With ``quarantine_after=N``, a
    unit whose attempts kill ``N`` *distinct* workers (crash / timeout /
    lost heartbeat) is quarantined out of the run queue as poison and
    reported in the manifest; a resumed campaign keeps it quarantined.
    With ``deadline_s`` set, the whole campaign gets a wall-clock budget:
    on expiry, running attempts are aborted and every unfinished unit is
    recorded as ``skipped-deadline`` -- never silently dropped.  SIGINT/
    SIGTERM on the parent triggers the same fair cancellation
    (``skipped-interrupt``) after flushing the checkpoint, and the
    result's ``interrupted`` carries the signal name so the CLI can exit
    with a distinct resumable code.  Retry backoff is seeded full jitter
    (uniform in ``[0, backoff_s * 2**(attempt-1))``, reproducible from
    ``seed``) so simultaneous transient failures do not retry in
    lockstep.
    """
    from repro.experiments.pool import SharedTraceStore, _is_heartbeat

    workload_list = list(workloads)
    if not workload_list:
        raise ValueError("need at least one workload")
    technique_tuple = tuple(techniques)
    if not technique_tuple:
        raise ValueError("need at least one technique")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if trace_events < 0:
        raise ValueError(
            f"trace_events must be non-negative, got {trace_events}"
        )
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout must be positive")
    if heartbeat_s is not None and heartbeat_s <= 0:
        raise ValueError("heartbeat interval must be positive")
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = min(jobs, len(workload_list))

    obs_spec: dict[str, Any] = {}
    if trace_events:
        obs_spec["trace_capacity"] = trace_events
    if heartbeat_s is not None:
        obs_spec["heartbeat_s"] = heartbeat_s
    executor_obj = create_executor(executor, obs_spec=obs_spec)
    jobs = max(1, min(jobs, getattr(executor_obj, "max_concurrency", jobs)))

    hb = HeartbeatMonitor(heartbeat_s) if heartbeat_s is not None else None
    quarantine = QuarantineTracker(quarantine_after)
    budget: DeadlineBudget | None = None

    ckpt: SweepCheckpoint | None = None
    if checkpoint is not None:
        fingerprint = sweep_fingerprint(
            config, technique_tuple, seed, plan
        )
        if resume:
            ckpt = SweepCheckpoint.load(checkpoint, fingerprint)
        else:
            ckpt = SweepCheckpoint(checkpoint, fingerprint)

    if isinstance(progress, ProgressReporter):
        reporter = progress
        reporter.total = len(workload_list)
    else:
        reporter = ProgressReporter(
            len(workload_list), label="sweep", enabled=bool(progress)
        )

    sweep_start = time.monotonic()
    if deadline_s is not None:
        budget = DeadlineBudget(deadline_s, start=sweep_start)

    def rel_now() -> float:
        return time.monotonic() - sweep_start

    agg = CampaignAggregator()
    timeline: list[dict[str, Any]] = []

    def note(
        workload: str,
        attempt: int,
        outcome: str,
        exc_type: str,
        start_s: float,
        end_s: float,
        telemetry_status: str,
        in_flight: bool = False,
    ) -> None:
        entry = {
            "workload": workload,
            "attempt": attempt,
            "outcome": outcome,
            "exc_type": exc_type,
            "start_s": round(start_s, 6),
            "end_s": round(end_s, 6),
            "wall_s": round(end_s - start_s, 6),
            "telemetry": telemetry_status,
        }
        if in_flight:
            # The attempt was cancelled mid-run (deadline/interrupt) --
            # it consumed an executor dispatch without reaching a
            # terminal outcome of its own.
            entry["in_flight"] = True
        timeline.append(entry)

    store = SharedTraceStore()
    results: list[list[RunComparison] | None] = [None] * len(workload_list)
    resumed: list[str] = []
    cached: list[str] = []
    quarantined: list[QuarantinedWorkload] = []
    skipped: list[SkippedWorkload] = []
    units: deque[_Unit] = deque()

    failed: list[FailedWorkload] = []
    total_attempts = 0
    total_retries = 0
    hung_detected = 0
    interrupted: str | None = None
    # conn -> (unit, deadline | None, started_at)
    running: dict[Any, tuple[_Unit, float | None, float]] = {}
    # (ready_time, unit) entries waiting out their backoff.
    backing_off: list[tuple[float, _Unit]] = []

    def push_status() -> None:
        reporter.status(
            running=len(running),
            failed=len(failed),
            retries=total_retries,
            recycled=executor_obj.workers_recycled,
            cached=len(cached),
            quarantined=len(quarantined),
            skipped=len(skipped),
            hung=hung_detected,
            instructions=agg.counters.get("sim.instructions", 0.0),
            cache_hit_pct=100.0 * len(cached) / len(workload_list),
        )

    def ship(unit: _Unit) -> None:
        """Generate the unit's traces and export them for its first
        dispatch; retries reuse the task and its shared segments."""
        preloaded: dict[Any, Any] = {}
        try:
            for key, profile in _trace_needs_for(config, unit.workload, seed):
                trace = _trace_cache.get_trace(profile, key[1], key[2])
                preloaded[key] = store.acquire(key, trace)
        except Exception:
            # Unresolvable workload: ship nothing; the worker hits the
            # same error itself and reports it deterministically.
            for key in preloaded:
                store.release(key)
            preloaded = {}
        unit.task = (
            config, unit.workload, technique_tuple, seed, preloaded, plan
        )
        unit.shm_keys = tuple(preloaded)

    def settle(unit: _Unit) -> None:
        """Release the unit's shared segments once its fate is final."""
        for key in unit.shm_keys:
            store.release(key)

    def dispose(unit: _Unit, exc_type: str, detail: str, worker: int) -> str:
        """Retry, quarantine, or abandon a failed attempt.

        Returns the outcome label.  Quarantine outranks both retry and
        abandon: a unit that has now killed ``quarantine_after`` distinct
        workers is poison regardless of remaining retry budget.
        """
        nonlocal total_retries
        unit.last_exc_type = exc_type
        unit.last_detail = detail
        key = unit.fingerprint or unit.workload
        quarantine.record_lethal(key, worker, exc_type)
        if (
            quarantine.should_quarantine(key)
            and key not in quarantine.quarantined
        ):
            quarantine.quarantine(key)
            quarantined.append(
                QuarantinedWorkload(
                    workload=unit.workload,
                    fingerprint=unit.fingerprint,
                    attempts=unit.attempt,
                    workers=quarantine.distinct_workers(key),
                    exc_type=exc_type,
                    detail=detail,
                    telemetry=unit.last_telemetry,
                )
            )
            if ckpt is not None:
                ckpt.note_event("quarantined", unit.workload, exc_type)
            settle(unit)
            reporter.advance(f"{unit.workload} (QUARANTINED)", 0.0)
            return "quarantined"
        transient = exc_type in TRANSIENT_EXC_TYPES
        if transient and unit.attempt <= retries:
            total_retries += 1
            delay = (
                full_jitter_delay(backoff_s, seed, unit.workload, unit.attempt)
                if backoff_s
                else 0.0
            )
            backing_off.append((time.monotonic() + delay, unit))
            return "retry"
        failed.append(
            FailedWorkload(
                workload=unit.workload,
                attempts=unit.attempt,
                exc_type=exc_type,
                detail=detail,
                telemetry=unit.last_telemetry,
            )
        )
        settle(unit)
        reporter.advance(f"{unit.workload} (FAILED)", 0.0)
        return "failed"

    def fail(
        unit: _Unit, started_s: float, exc_type: str, detail: str, worker: int
    ) -> None:
        """Dispose of a failed attempt and record it in the timeline."""
        outcome = dispose(unit, exc_type, detail, worker)
        note(
            unit.workload, unit.attempt, outcome, exc_type,
            started_s, rel_now(), unit.last_telemetry,
        )

    def abort_attempt(conn) -> tuple[_Unit, float, int]:
        """Stop a running attempt, salvaging its telemetry status.

        Returns ``(unit, started_s, worker_id)``.  abort() SIGTERMs the
        worker and waits briefly for the partial telemetry snapshot its
        abort handler flushes.
        """
        unit, _deadline, started_s = running.pop(conn)
        if hb is not None:
            hb.forget(conn)
        worker = executor_obj.worker_id(conn)
        salvage = executor_obj.abort(conn)
        unit.last_telemetry = _telemetry_status(telemetry_from_message(salvage))
        return unit, started_s, worker

    def cancel_remaining(reason: str) -> None:
        """Fair cancellation: abort in-flight attempts, record every
        unfinished unit as ``skipped-<reason>`` -- never silently drop."""
        for conn in list(running):
            unit, started_s, _worker = abort_attempt(conn)
            skipped.append(
                SkippedWorkload(unit.workload, reason, unit.attempt)
            )
            note(
                unit.workload, unit.attempt, f"skipped-{reason}", "",
                started_s, rel_now(), unit.last_telemetry, in_flight=True,
            )
            if ckpt is not None:
                ckpt.note_event(f"skipped-{reason}", unit.workload)
            settle(unit)
            reporter.advance(f"{unit.workload} (SKIPPED)", 0.0)
        leftovers = list(units) + [u for _, u in backing_off]
        units.clear()
        backing_off.clear()
        for unit in leftovers:
            skipped.append(
                SkippedWorkload(unit.workload, reason, unit.attempt)
            )
            note(
                unit.workload, unit.attempt, f"skipped-{reason}", "",
                rel_now(), rel_now(), "none",
            )
            if ckpt is not None:
                ckpt.note_event(f"skipped-{reason}", unit.workload)
            settle(unit)
            reporter.advance(f"{unit.workload} (SKIPPED)", 0.0)

    # The watch and the cleanup below cover set-up too: a signal while
    # units are fingerprinted and probed still drains gracefully.
    watch = ParentSignalWatch()
    try:
        with watch:
            for i, w in enumerate(workload_list):
                if ckpt is not None and ckpt.has_workload(w, technique_tuple):
                    by_tech = {
                        c.technique: c for c in ckpt.comparisons_for(w)
                    }
                    results[i] = [by_tech[t] for t in technique_tuple]
                    resumed.append(w)
                    note(w, 0, "resumed", "", rel_now(), rel_now(), "none")
                    reporter.advance(w, 0.0)
                    continue
                unit_fp, hit = cached_unit(
                    cache, config, w, technique_tuple, seed, plan
                )
                if not unit_fp:
                    # The quarantine ledger keys on the unit's content
                    # fingerprint even when no result cache is attached.
                    try:
                        unit_fp = unit_fingerprint(
                            config, w, technique_tuple, seed, plan
                        )
                    except Exception:
                        unit_fp = ""
                if ckpt is not None and w in ckpt.quarantined_workloads:
                    # A previous run of this campaign already condemned
                    # this unit; a resume must not re-feed the poison to
                    # fresh workers.  note_event is idempotent, so
                    # re-deriving the verdict does not duplicate the
                    # checkpoint record.
                    prior = next(
                        (
                            e.get("detail", "")
                            for e in ckpt.events
                            if e.get("event") == "quarantined"
                            and e.get("workload") == w
                        ),
                        "",
                    )
                    quarantine.quarantine(unit_fp or w)
                    quarantined.append(
                        QuarantinedWorkload(
                            workload=w,
                            fingerprint=unit_fp,
                            attempts=0,
                            workers=0,
                            exc_type=prior or "WorkerCrash",
                            detail="quarantined by a previous run of this "
                            "campaign (resumed)",
                        )
                    )
                    note(
                        w, 0, "quarantined", prior, rel_now(), rel_now(),
                        "none",
                    )
                    reporter.advance(f"{w} (QUARANTINED)", 0.0)
                    continue
                if hit is not None:
                    results[i] = hit
                    cached.append(w)
                    if ckpt is not None:
                        ckpt.record(hit)
                    note(w, 0, "cached", "", rel_now(), rel_now(), "none")
                    reporter.advance(f"{w} (cached)", 0.0)
                    continue
                units.append(_Unit(index=i, workload=w, fingerprint=unit_fp))

            while units or backing_off or running:
                # Graceful drain: handlers only set a flag, so a signal
                # can never corrupt a checkpoint write mid-os.replace.
                if watch.signame is not None:
                    interrupted = watch.signame
                    cancel_remaining("interrupt")
                    break
                if budget is not None and budget.expired():
                    cancel_remaining("deadline")
                    break
                now = time.monotonic()
                if backing_off:
                    still_waiting = []
                    for ready_at, unit in backing_off:
                        if ready_at <= now:
                            units.append(unit)
                        else:
                            still_waiting.append((ready_at, unit))
                    backing_off[:] = still_waiting
                while units and len(running) < jobs and watch.signame is None:
                    unit = units[0]
                    if unit.task is None:
                        # Ship, then re-test the loop condition: a signal
                        # that arrived while generating stops the start.
                        ship(unit)
                        continue
                    units.popleft()
                    conn = executor_obj.start(
                        unit.task, unit.workload, unit.attempt, plan
                    )
                    unit.attempt += 1
                    total_attempts += 1
                    # From the start itself: ship() time is not the
                    # attempt's.
                    deadline = (
                        time.monotonic() + timeout_s
                        if timeout_s is not None
                        else None
                    )
                    running[conn] = (unit, deadline, rel_now())
                    if hb is not None:
                        hb.track(conn)
                if not running:
                    if backing_off:
                        sleep_until = min(t for t, _ in backing_off)
                        time.sleep(
                            max(
                                0.0,
                                min(
                                    sleep_until - time.monotonic(), 0.25
                                ),
                            )
                        )
                    continue
                # Block until a worker reports, dies, or a deadline /
                # backoff / heartbeat-window / budget expiry needs
                # attention.  Capped at 250ms so the interrupt flag is
                # polled promptly (PEP 475 retries the wait after a
                # non-raising signal handler).
                deadlines = [
                    d for _, d, _s in running.values() if d is not None
                ]
                wake_times = deadlines + [t for t, _ in backing_off]
                if hb is not None:
                    next_check = hb.next_check()
                    if next_check is not None:
                        wake_times.append(next_check)
                if budget is not None:
                    wake_times.append(budget.expires_at)
                wait_timeout = 0.25
                if wake_times:
                    wait_timeout = max(
                        0.0, min(min(wake_times) - time.monotonic(), 0.25)
                    )
                ready = pipe_wait(list(running), timeout=wait_timeout)
                for conn in ready:
                    unit, _deadline, started_s = running[conn]
                    # Drain the pipe ourselves so heartbeats are seen:
                    # beats reset the liveness clock and are swallowed; a
                    # terminal message (or EOF) resolves the attempt.
                    terminal: Any = _PENDING
                    try:
                        while True:
                            received = conn.recv()
                            if _is_heartbeat(received):
                                if hb is not None:
                                    hb.beat(conn)
                                if conn.poll(0):
                                    continue
                                break
                            terminal = received
                            break
                    except (EOFError, OSError):
                        terminal = None
                    if terminal is _PENDING:
                        continue  # only beats arrived; still running
                    running.pop(conn)
                    if hb is not None:
                        hb.forget(conn)
                    # Worker identity must be read before finish(): a
                    # mute death reaps the worker and drops its id.
                    wid = executor_obj.worker_id(conn)
                    message, exitcode = executor_obj.finish(conn, terminal)
                    telemetry = telemetry_from_message(message)
                    unit.last_telemetry = _telemetry_status(telemetry)
                    if message is None:
                        fail(
                            unit, started_s, "WorkerCrash",
                            f"worker exited without a result "
                            f"(exitcode={exitcode})",
                            wid,
                        )
                        continue
                    if message[0] != "ok":
                        _tag, exc_type, detail, *_rest = message
                        fail(unit, started_s, exc_type, detail, wid)
                        continue
                    validated = _validate_unit_result(message[1])
                    if validated is None:
                        fail(
                            unit, started_s, "CorruptResult",
                            f"worker returned a malformed result: "
                            f"{type(message[1]).__name__}",
                            wid,
                        )
                        continue
                    comparisons, wall_s = validated
                    results[unit.index] = comparisons
                    settle(unit)
                    if ckpt is not None:
                        ckpt.record(comparisons)
                    if cache is not None and unit.fingerprint:
                        cache.put(unit.fingerprint, comparisons)
                    # Only successful attempts feed the campaign totals:
                    # merged counters stay the exact sum of the units
                    # that produced results.
                    agg.add_unit(unit.workload, telemetry)
                    note(
                        unit.workload, unit.attempt, "ok", "",
                        started_s, rel_now(), unit.last_telemetry,
                    )
                    reporter.advance(unit.workload, wall_s)
                # Enforce wall-clock deadlines on whoever is still
                # running.  A worker that is *beating* but slow lands
                # here -- slow-but-alive runs to its full deadline.
                now = time.monotonic()
                overdue = [
                    conn
                    for conn, (_u, deadline, _s) in running.items()
                    if deadline is not None and now >= deadline
                ]
                for conn in overdue:
                    unit, started_s, worker = abort_attempt(conn)
                    fail(
                        unit, started_s, "TimeoutError",
                        f"attempt exceeded the {timeout_s:g}s wall-clock "
                        f"timeout and was terminated",
                        worker,
                    )
                # A worker whose beats flatlined is *hung*: condemned in
                # O(heartbeat window), not O(unit timeout).
                if hb is not None:
                    for conn in hb.overdue():
                        if conn not in running:
                            hb.forget(conn)
                            continue
                        hung_detected += 1
                        unit, started_s, worker = abort_attempt(conn)
                        fail(
                            unit, started_s, "HeartbeatLost",
                            f"no heartbeat for more than "
                            f"{hb.window_s:g}s ({hb.interval_s:g}s "
                            f"interval x {hb.misses:g} misses); worker "
                            f"presumed hung and terminated",
                            worker,
                        )
                push_status()
    finally:
        try:
            for conn in list(running):
                executor_obj.abort(conn)
            executor_obj.close()
        finally:
            store.close()
    reporter.finish()

    out: dict[str, list[RunComparison]] = {t: [] for t in technique_tuple}
    completed: list[str] = []
    for w, per_workload in zip(workload_list, results):
        if per_workload is None:
            continue
        completed.append(w)
        for comparison in per_workload:
            out[comparison.technique].append(comparison)
    supervision = {
        "executor": executor,
        "heartbeat_s": heartbeat_s,
        "heartbeat_misses": hb.misses if hb is not None else None,
        "heartbeats_received": hb.beats_received if hb is not None else 0,
        "hung_detected": hung_detected,
        "deadline_s": deadline_s,
        "quarantine_after": quarantine_after,
    }
    return SweepResult(
        comparisons=out,
        completed=completed,
        failed=failed,
        resumed=resumed,
        attempts=total_attempts,
        retries=total_retries,
        cached=cached,
        workers_spawned=executor_obj.workers_spawned,
        workers_recycled=executor_obj.workers_recycled,
        wall_s=rel_now(),
        timeline=timeline,
        telemetry=agg.as_dict(),
        quarantined=quarantined,
        skipped=skipped,
        interrupted=interrupted,
        supervision=supervision,
    )
