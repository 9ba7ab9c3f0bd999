"""Tests for process-parallel experiment execution on ``resilient_sweep``."""

import io

import pytest

from repro.config import SimConfig
from repro.experiments.parallel import resilient_sweep
from repro.experiments.runner import Runner
from repro.obs import ProgressReporter

WORKLOADS = ["gamess", "povray", "hmmer"]
CFG_KW = dict(instructions_per_core=400_000)


class TestParallelCompare:
    """The sweep as a parallel technique-vs-baseline comparison."""

    def test_matches_sequential_exactly(self):
        config = SimConfig.scaled(**CFG_KW)
        parallel = resilient_sweep(config, WORKLOADS, ("esteem",), jobs=2)
        runner = Runner(config)
        sequential = runner.compare_many(WORKLOADS, "esteem")
        for p, s in zip(parallel.comparisons["esteem"], sequential):
            assert p.workload == s.workload
            assert p.result.total_cycles == s.result.total_cycles
            assert p.result.refreshes == s.result.refreshes
            assert p.energy_saving_pct == pytest.approx(s.energy_saving_pct)

    def test_multiple_techniques_share_workload_order(self):
        config = SimConfig.scaled(**CFG_KW)
        out = resilient_sweep(
            config, WORKLOADS, ("esteem", "rpv"), jobs=2
        ).comparisons
        assert [c.workload for c in out["esteem"]] == WORKLOADS
        assert [c.workload for c in out["rpv"]] == WORKLOADS

    def test_jobs_one_runs_on_one_worker(self):
        config = SimConfig.scaled(**CFG_KW)
        result = resilient_sweep(config, ["gamess"], ("esteem",), jobs=1)
        assert len(result.comparisons["esteem"]) == 1
        assert result.workers_spawned == 1

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            resilient_sweep(SimConfig.scaled(**CFG_KW), [], ("esteem",))

    def test_empty_techniques_rejected(self):
        with pytest.raises(ValueError):
            resilient_sweep(SimConfig.scaled(**CFG_KW), ["gamess"], ())

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            resilient_sweep(
                SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=0
            )

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            resilient_sweep(
                SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=-4
            )

    def test_negative_trace_events_rejected_before_any_unit(self, monkeypatch):
        import repro.experiments.parallel as parallel

        def no_executor(*_args, **_kwargs):
            raise AssertionError("an executor was built")

        monkeypatch.setattr(parallel, "create_executor", no_executor)
        with pytest.raises(ValueError, match="trace_events must be non-neg"):
            resilient_sweep(
                SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",),
                trace_events=-1,
            )


class TestTracePreloading:
    """Parent-generated traces ride to workers instead of being rebuilt."""

    def test_worker_task_uses_preloaded_trace(self, monkeypatch):
        from repro.experiments import _trace_cache
        from repro.experiments.parallel import _trace_needs_for, _workload_task
        from repro.experiments.pool import SharedTraceStore
        from repro.obs.campaign import begin_worker_obs, end_worker_obs

        config = SimConfig.scaled(**CFG_KW)
        needs = _trace_needs_for(config, "gamess", 0)
        assert [p.name for _, p in needs] == ["gamess"]
        (key, profile), = needs
        store = SharedTraceStore()
        handle = store.acquire(key, _trace_cache.get_trace(profile, *key[1:]))
        _trace_cache.clear()

        def no_generation(*_args, **_kwargs):
            raise AssertionError("the worker regenerated a shipped trace")

        # The worker installs the shipped trace, so the runner's own
        # lookup must hit it instead of generating.
        monkeypatch.setattr(_trace_cache, "generate_trace", no_generation)
        begin_worker_obs()
        try:
            (comparison,), _wall = _workload_task(
                (config, "gamess", ("esteem",), 0, {key: handle}, None)
            )
        finally:
            end_worker_obs()
            store.close()
        assert comparison.workload == "gamess"

    def test_dual_core_needs_cover_every_mix_member(self):
        from repro.experiments.parallel import _trace_needs_for
        from repro.workloads.multiprog import get_mix

        config = SimConfig.scaled(num_cores=2, **CFG_KW)
        needs = _trace_needs_for(config, "GkNe", 3)
        assert [p.name for _, p in needs] == [
            p.name for p in get_mix("GkNe").profiles
        ]
        for (name, budget, seed), profile in needs:
            assert name == profile.name
            assert budget == config.instructions_per_core
            assert seed == 3

    def test_parallel_results_unchanged_by_preloading(self):
        # End to end across real processes: shipping traces must not
        # perturb results (they are the same arrays the worker would
        # have generated).
        config = SimConfig.scaled(**CFG_KW)
        out = resilient_sweep(config, ["gamess"], ("esteem",), jobs=2)
        sequential = Runner(config).compare("gamess", "esteem")
        assert (
            out.comparisons["esteem"][0].result.total_cycles
            == sequential.result.total_cycles
        )


class TestJustInTimeShipping:
    """The parent generates and exports a unit's traces right before its
    first dispatch, not for every unit before the first one starts."""

    @staticmethod
    def record(monkeypatch, executor_cls):
        """Log parent-side trace lookups and every executor start."""
        import threading

        from repro.experiments import _trace_cache

        events = []
        real_get = _trace_cache.get_trace
        real_start = executor_cls.start

        def get_trace(profile, budget, seed, profiler=None):
            # Inprocess attempts look their traces up on worker threads.
            if threading.current_thread() is threading.main_thread():
                events.append(("trace", profile.name))
            return real_get(profile, budget, seed, profiler)

        def start(self, task, workload, attempt, plan):
            events.append(("start", workload, attempt))
            return real_start(self, task, workload, attempt, plan)

        monkeypatch.setattr(_trace_cache, "get_trace", get_trace)
        monkeypatch.setattr(executor_cls, "start", start)
        return events

    def test_first_start_follows_one_units_traces(self, monkeypatch):
        from repro.experiments.supervise import InProcessExecutor
        from repro.workloads.multiprog import get_mix

        events = self.record(monkeypatch, InProcessExecutor)
        config = SimConfig.scaled(num_cores=2, instructions_per_core=100_000)
        result = resilient_sweep(
            config, ["GkNe", "GmDl"], ("esteem",), executor="inprocess"
        )
        assert result.completed == ["GkNe", "GmDl"]
        expected = []
        for mix in ("GkNe", "GmDl"):
            expected += [("trace", p.name) for p in get_mix(mix).profiles]
            expected.append(("start", mix, 0))
        assert events == expected

    def test_retried_unit_is_not_exported_again(self, monkeypatch):
        from repro.experiments.supervise import InProcessExecutor
        from repro.faults import FaultPlan

        events = self.record(monkeypatch, InProcessExecutor)
        plan = FaultPlan(chaos={"gamess": ("corrupt",)})
        result = resilient_sweep(
            SimConfig.scaled(**CFG_KW), ["gamess", "povray"], ("esteem",),
            executor="inprocess", retries=1, backoff_s=0.0, plan=plan,
        )
        assert sorted(result.completed) == ["gamess", "povray"]
        assert result.retries == 1
        assert events == [
            ("trace", "gamess"),
            ("start", "gamess", 0),
            ("trace", "povray"),
            ("start", "povray", 0),
            ("start", "gamess", 1),
        ]

    @pytest.mark.parametrize("executor", ["pool", "spawn", "inprocess"])
    def test_every_executor_ships_shm_handles(self, monkeypatch, executor):
        from repro.experiments.pool import (
            SpawnExecutor,
            WorkerPool,
            active_shm_segments,
        )
        from repro.experiments.supervise import InProcessExecutor
        from repro.workloads.trace import TraceShmHandle

        executor_cls = {
            "pool": WorkerPool,
            "spawn": SpawnExecutor,
            "inprocess": InProcessExecutor,
        }[executor]
        shipped = []
        real_start = executor_cls.start

        def start(self, task, workload, attempt, plan):
            shipped.append(task[4])
            return real_start(self, task, workload, attempt, plan)

        monkeypatch.setattr(executor_cls, "start", start)
        config = SimConfig.scaled(num_cores=2, instructions_per_core=100_000)
        result = resilient_sweep(
            config, ["GkNe"], ("esteem",), jobs=1, executor=executor
        )
        assert result.completed == ["GkNe"]
        (preloaded,) = shipped
        assert len(preloaded) == 2
        assert all(isinstance(h, TraceShmHandle) for h in preloaded.values())
        assert active_shm_segments() == []
        # Attached handles simulate exactly like the parent's own traces.
        ref = Runner(config).compare("GkNe", "esteem")
        assert result.comparisons["esteem"][0].result == ref.result


def assert_names_failing_workload(result):
    assert result.degraded
    assert result.completed == ["gamess"]
    failure = result.failed[0]
    assert failure.workload == "no-such-benchmark"
    assert failure.exc_type == "KeyError"
    # The worker-side traceback travelled back as text.
    assert "Traceback" in failure.detail
    assert "no-such-benchmark" in failure.detail


class TestWorkerFailures:
    def test_failure_names_the_workload_inline(self):
        # The in-process executor runs the unit on a thread of this
        # process: the failure report must not depend on a pipe to a
        # child.
        assert_names_failing_workload(
            resilient_sweep(
                SimConfig.scaled(**CFG_KW),
                ["gamess", "no-such-benchmark"],
                ("esteem",),
                executor="inprocess",
            )
        )

    def test_failure_names_the_workload_across_processes(self):
        assert_names_failing_workload(
            resilient_sweep(
                SimConfig.scaled(**CFG_KW),
                ["gamess", "no-such-benchmark"],
                ("esteem",),
                jobs=2,
            )
        )


class TestProgress:
    def test_progress_reporter_sees_every_workload(self):
        sink = io.StringIO()
        reporter = ProgressReporter(0, label="test-sweep", stream=sink)
        resilient_sweep(
            SimConfig.scaled(**CFG_KW), WORKLOADS, ("esteem",),
            jobs=2, progress=reporter,
        )
        out = sink.getvalue()
        for workload in WORKLOADS:
            assert workload in out
        assert f"finished {len(WORKLOADS)}/{len(WORKLOADS)}" in out

    def test_progress_off_by_default(self, capsys):
        resilient_sweep(
            SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=1
        )
        assert capsys.readouterr().err == ""
