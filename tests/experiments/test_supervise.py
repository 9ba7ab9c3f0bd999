"""Tests for the executor backends and the supervision primitives
(heartbeats, quarantine, deadline budgets, signal watch, jitter)."""

import signal
import threading

import pytest

from repro.config import SimConfig
from repro.experiments.parallel import resilient_sweep
from repro.experiments.pool import WorkerPool, _is_heartbeat
from repro.experiments.supervise import (
    EXECUTORS,
    LETHAL_EXC_TYPES,
    CampaignInterrupted,
    DeadlineBudget,
    HeartbeatMonitor,
    InProcessExecutor,
    ParentSignalWatch,
    QuarantineTracker,
    create_executor,
    full_jitter_delay,
)

CFG_KW = dict(instructions_per_core=100_000, interval_cycles=50_000)


def config():
    return SimConfig.scaled(**CFG_KW)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(EXECUTORS) == {"pool", "spawn", "inprocess"}

    def test_create_resolves_each_builtin(self):
        pool = create_executor("pool")
        try:
            assert isinstance(pool, WorkerPool)
        finally:
            pool.close()
        spawn = create_executor("spawn")
        try:
            # One fresh worker per attempt, retired once it reports; a
            # unit that raises is no crash, so nothing is recycled.
            task = (config(), "no-such-benchmark", ("esteem",), 0, {}, None)
            for attempt in range(2):
                conn = spawn.start(task, "no-such-benchmark", attempt, None)
                worker = spawn._busy[conn]
                message, _exitcode = spawn.finish(conn, conn.recv())
                assert message[0] == "error"
                assert not worker.is_alive()
            assert spawn.workers_spawned == 2
            assert spawn.workers_recycled == 0
        finally:
            spawn.close()
        inproc = create_executor("inprocess")
        try:
            assert isinstance(inproc, InProcessExecutor)
        finally:
            inproc.close()

    def test_unknown_name_lists_available(self):
        with pytest.raises(
            ValueError, match="unknown executor.*inprocess, pool, spawn"
        ):
            create_executor("carrier-pigeon")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            create_executor("")


class TestInProcessExecutor:
    def test_runs_a_real_unit(self):
        cfg = config()
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), executor="inprocess"
        )
        assert not result.degraded
        assert result.supervision["executor"] == "inprocess"
        assert result.workers_spawned == 1

    def test_max_concurrency_is_one(self):
        assert InProcessExecutor.max_concurrency == 1

    def test_abort_detaches_and_recycles(self):
        ex = InProcessExecutor()
        # A task that cannot resolve blocks forever worker-side is not
        # needed: abort on a finished conn still detaches cleanly.
        conn = ex.start(
            (config(), "gamess", ("esteem",), 0, {}, None), "gamess", 0, None
        )
        assert ex.worker_id(conn) == 0
        assert ex.abort(conn) is None
        assert ex.workers_recycled == 1
        ex.close()


class TestHeartbeatMonitor:
    def test_window_is_interval_times_misses(self):
        hb = HeartbeatMonitor(0.5, misses=2.0)
        assert hb.window_s == 1.0

    def test_hung_vs_slow_but_alive(self):
        hb = HeartbeatMonitor(1.0, misses=2.0)
        hb.track("hung", now=100.0)
        hb.track("alive", now=100.0)
        hb.beat("alive", now=102.5)  # kept beating
        overdue = hb.overdue(now=103.0)
        assert overdue == ["hung"]
        assert hb.beats_received == 1

    def test_untracked_beats_ignored(self):
        hb = HeartbeatMonitor(1.0)
        hb.beat("stranger", now=1.0)
        assert hb.beats_received == 0

    def test_forget_stops_tracking(self):
        hb = HeartbeatMonitor(1.0)
        hb.track("c", now=0.0)
        hb.forget("c")
        assert hb.overdue(now=100.0) == []
        assert hb.next_check() is None

    def test_next_check_is_earliest_condemnation(self):
        hb = HeartbeatMonitor(1.0, misses=2.0)
        hb.track("a", now=10.0)
        hb.track("b", now=12.0)
        assert hb.next_check() == pytest.approx(12.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(0.0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(1.0, misses=0)

    def test_wire_heartbeat_shape(self):
        assert _is_heartbeat(("hb", 0))
        assert not _is_heartbeat(("ok", {}, None))
        assert not _is_heartbeat(None)
        assert not _is_heartbeat(("hb", 1, "extra"))


class TestQuarantineTracker:
    def test_distinct_workers_required(self):
        q = QuarantineTracker(2)
        q.record_lethal("fp", worker=1, exc_type="WorkerCrash")
        q.record_lethal("fp", worker=1, exc_type="WorkerCrash")
        assert not q.should_quarantine("fp"), (
            "one flaky worker dying twice proves nothing about the unit"
        )
        q.record_lethal("fp", worker=2, exc_type="TimeoutError")
        assert q.should_quarantine("fp")

    def test_non_lethal_exceptions_ignored(self):
        q = QuarantineTracker(1)
        q.record_lethal("fp", worker=1, exc_type="ValueError")
        q.record_lethal("fp", worker=2, exc_type="ChaosError")
        assert not q.should_quarantine("fp")
        assert "ValueError" not in LETHAL_EXC_TYPES

    def test_disabled_by_default_threshold(self):
        q = QuarantineTracker(None)
        assert not q.enabled
        q.record_lethal("fp", worker=1, exc_type="WorkerCrash")
        assert not q.should_quarantine("fp")

    def test_lethal_set_matches_worker_killing_failures(self):
        assert LETHAL_EXC_TYPES == {
            "WorkerCrash", "TimeoutError", "HeartbeatLost"
        }

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            QuarantineTracker(0)


class TestDeadlineBudget:
    def test_expiry(self):
        budget = DeadlineBudget(10.0, start=100.0)
        assert not budget.expired(now=105.0)
        assert budget.remaining(now=105.0) == pytest.approx(5.0)
        assert budget.expired(now=110.0)
        assert budget.remaining(now=120.0) == 0.0
        assert budget.expires_at == pytest.approx(110.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineBudget(0.0)


class TestParentSignalWatch:
    def test_flag_set_not_raised(self):
        with ParentSignalWatch() as watch:
            assert watch.signame is None
            signal.raise_signal(signal.SIGTERM)
            # The handler only sets the flag -- no exception propagates.
            assert watch.signame == "SIGTERM"

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with ParentSignalWatch():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_inert_off_main_thread(self):
        seen = {}

        def run():
            with ParentSignalWatch() as watch:
                seen["signame"] = watch.signame

        t = threading.Thread(target=run)
        t.start()
        t.join()
        assert seen == {"signame": None}

    def test_campaign_interrupted_is_base_exception(self):
        exc = CampaignInterrupted("SIGINT")
        assert exc.signame == "SIGINT"
        assert not isinstance(exc, Exception)
        assert isinstance(exc, BaseException)


class TestFullJitterDelay:
    def test_deterministic_for_same_key(self):
        a = full_jitter_delay(0.5, 7, "gamess", 2)
        b = full_jitter_delay(0.5, 7, "gamess", 2)
        assert a == b

    def test_window_doubles_per_attempt(self):
        for attempt in (1, 2, 3, 4):
            window = 0.5 * 2 ** (attempt - 1)
            for seed in range(20):
                d = full_jitter_delay(0.5, seed, "w", attempt)
                assert 0.0 <= d < window

    def test_uncorrelated_across_workloads(self):
        delays = {
            full_jitter_delay(0.5, 0, w, 1)
            for w in ("gamess", "povray", "mcf", "milc")
        }
        assert len(delays) == 4, "lockstep retries defeat the jitter"

    def test_zero_base_is_zero(self):
        assert full_jitter_delay(0.0, 0, "w", 1) == 0.0
