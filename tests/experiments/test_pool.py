"""Warm worker pool engine: reuse, recycling, and shm segment lifecycle."""

import os

import pytest

from repro.config import SimConfig
from repro.experiments import pool as poolmod
from repro.experiments.parallel import resilient_sweep
from repro.experiments.runner import Runner
from repro.faults import FaultPlan

CFG_KW = dict(instructions_per_core=200_000, interval_cycles=100_000)


def config():
    return SimConfig.scaled(**CFG_KW)


def segment_files(names):
    """The subset of segment names still present under /dev/shm."""
    return sorted(
        n for n in names if os.path.exists(os.path.join("/dev/shm", n))
    )


def new_segments(before):
    return set(poolmod.created_shm_segments()) - before


class TestWarmReuse:
    def test_one_worker_serves_every_unit(self):
        result = resilient_sweep(
            config(), ["gamess", "povray", "h264ref"], ("esteem", "rpv"),
            jobs=1,
        )
        assert not result.degraded
        assert result.attempts == 3
        # The amortisation claim itself: 3 units, ONE process.
        assert result.workers_spawned == 1
        assert result.workers_recycled == 0

    def test_spawn_engine_pays_one_process_per_attempt(self):
        result = resilient_sweep(
            config(), ["gamess", "povray", "h264ref"], ("esteem",),
            jobs=1, executor="spawn",
        )
        assert result.workers_spawned == 3
        assert result.workers_recycled == 0

    def test_pool_is_bit_for_bit_identical_to_sequential(self):
        cfg = config()
        result = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem", "rpv"), jobs=2
        )
        runner = Runner(cfg)
        for technique in ("esteem", "rpv"):
            for comp in result.comparisons[technique]:
                ref = runner.compare(comp.workload, technique)
                assert comp.result == ref.result
                assert comp.baseline == ref.baseline

    def test_pool_with_hardware_faults_is_bit_for_bit(self):
        # Plane-1 injection must be independent of which (warm or fresh)
        # worker runs the unit.
        cfg = config()
        plan = FaultPlan(flip_rate=2e-4, seed=11)
        result = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1, plan=plan
        )
        runner = Runner(cfg, fault_plan=plan)
        for comp in result.comparisons["esteem"]:
            ref = runner.compare(comp.workload, "esteem")
            assert comp.result == ref.result

    def test_both_engines_agree_exactly(self):
        cfg = config()
        pooled = resilient_sweep(cfg, ["gamess"], ("esteem",), jobs=1)
        spawned = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1, executor="spawn"
        )
        assert (
            pooled.comparisons["esteem"][0].result
            == spawned.comparisons["esteem"][0].result
        )


class TestRecycling:
    def test_crash_recycles_exactly_one_worker(self):
        plan = FaultPlan(chaos={"gamess": ("crash",)})
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.01, plan=plan,
        )
        assert not result.degraded
        assert result.retries == 1
        assert result.workers_recycled == 1
        assert result.workers_spawned == 2  # original + replacement

    def test_hang_recycles_exactly_one_worker(self):
        plan = FaultPlan(chaos={"gamess": ("hang",)}, hang_seconds=60.0)
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            timeout_s=2.0, retries=2, backoff_s=0.01, plan=plan,
        )
        assert not result.degraded
        assert result.retries == 1
        assert result.workers_recycled == 1
        assert result.workers_spawned == 2

    def test_unit_error_keeps_the_worker_warm(self):
        # A deterministic in-unit failure is not an infrastructure death:
        # the same worker must carry on serving the remaining units.
        plan = FaultPlan(chaos={"povray": ("raise", "raise", "raise")})
        result = resilient_sweep(
            config(), ["gamess", "povray", "h264ref"], ("esteem",),
            jobs=1, retries=2, backoff_s=0.01, plan=plan,
        )
        assert result.degraded
        assert [f.workload for f in result.failed] == ["povray"]
        assert result.workers_spawned == 1
        assert result.workers_recycled == 0
        assert sorted(result.completed) == ["gamess", "h264ref"]


class TestShmLifecycle:
    def test_clean_sweep_unlinks_every_segment(self):
        before = set(poolmod.created_shm_segments())
        resilient_sweep(config(), ["gamess", "povray"], ("esteem",), jobs=2)
        fresh = new_segments(before)
        assert fresh, "pooled sweep must ship traces via shared memory"
        assert poolmod.active_shm_segments() == []
        assert segment_files(fresh) == []

    def test_worker_crash_mid_unit_leaks_nothing(self):
        before = set(poolmod.created_shm_segments())
        plan = FaultPlan(chaos={"gamess": ("crash",)})
        resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.01, plan=plan,
        )
        fresh = new_segments(before)
        assert fresh
        assert poolmod.active_shm_segments() == []
        assert segment_files(fresh) == []

    def test_hang_triggered_recycle_leaks_nothing(self):
        before = set(poolmod.created_shm_segments())
        plan = FaultPlan(chaos={"gamess": ("hang",)}, hang_seconds=60.0)
        resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            timeout_s=2.0, retries=2, backoff_s=0.01, plan=plan,
        )
        fresh = new_segments(before)
        assert fresh
        assert poolmod.active_shm_segments() == []
        assert segment_files(fresh) == []

    def test_abandoned_unit_leaks_nothing(self):
        before = set(poolmod.created_shm_segments())
        plan = FaultPlan(chaos={"gamess": ("crash",) * 8})
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            retries=1, backoff_s=0.01, plan=plan,
        )
        assert result.degraded
        assert poolmod.active_shm_segments() == []
        assert segment_files(new_segments(before)) == []

    def test_figure_sweep_unlinks_every_segment(self):
        from repro.cli import main

        before = set(poolmod.created_shm_segments())
        code = main(
            ["figure", "3", "--workloads", "gamess,povray", "--jobs", "2",
             "--instructions", "200000", "--no-cache", "-q"]
        )
        assert code == 0
        fresh = new_segments(before)
        assert fresh
        assert poolmod.active_shm_segments() == []
        assert segment_files(fresh) == []

    def test_retry_reuses_the_exported_segment(self, monkeypatch):
        """A crashed unit's retry ships the handles exported for its
        first dispatch; the segment is unlinked once the unit settles."""
        acquired = []
        real_acquire = poolmod.SharedTraceStore.acquire

        def acquire(self, key, trace):
            acquired.append(key[0])
            return real_acquire(self, key, trace)

        monkeypatch.setattr(poolmod.SharedTraceStore, "acquire", acquire)
        before = set(poolmod.created_shm_segments())
        plan = FaultPlan(chaos={"gamess": ("crash",)})
        result = resilient_sweep(
            config(), ["gamess", "povray"], ("esteem",), jobs=1,
            retries=1, backoff_s=0.01, plan=plan,
        )
        assert sorted(result.completed) == ["gamess", "povray"]
        assert result.retries == 1
        assert acquired == ["gamess", "povray"]
        assert poolmod.active_shm_segments() == []
        assert segment_files(new_segments(before)) == []


class TestSharedTraceStore:
    def test_refcounted_unlink(self):
        from repro.workloads.profiles import get_profile
        from repro.workloads.synthetic import generate_trace

        trace = generate_trace(get_profile("gamess"), 50_000, seed=0)
        store = poolmod.SharedTraceStore()
        handle_a = store.acquire("k", trace)
        handle_b = store.acquire("k", trace)
        assert handle_a is handle_b  # one segment, two references
        assert handle_a.segment in poolmod.active_shm_segments()
        store.release("k")
        assert handle_a.segment in poolmod.active_shm_segments()
        store.release("k")
        assert handle_a.segment not in poolmod.active_shm_segments()
        assert segment_files([handle_a.segment]) == []

    def test_close_unlinks_regardless_of_refcount(self):
        from repro.workloads.profiles import get_profile
        from repro.workloads.synthetic import generate_trace

        trace = generate_trace(get_profile("gamess"), 50_000, seed=0)
        store = poolmod.SharedTraceStore()
        handle = store.acquire("k", trace)
        store.acquire("k", trace)
        store.close()
        assert handle.segment not in poolmod.active_shm_segments()
        assert len(store) == 0
        store.release("k")  # releasing after close is a no-op


class TestPerUnitRelease:
    """A worker frees the traces it attached from shared memory -- cache
    entry, list views and mapping -- as soon as the unit ends."""

    def _unit(self, workload, techniques, cores=1):
        from repro.experiments import _trace_cache
        from repro.experiments.parallel import _trace_needs_for

        cfg = SimConfig.scaled(num_cores=cores, **CFG_KW)
        store = poolmod.SharedTraceStore()
        preloaded = {
            key: store.acquire(key, _trace_cache.get_trace(profile, *key[1:]))
            for key, profile in _trace_needs_for(cfg, workload, 0)
        }
        _trace_cache.clear()
        return store, (cfg, workload, techniques, 0, preloaded, None)

    def _run(self, task):
        from repro.experiments.parallel import _workload_task
        from repro.obs.campaign import begin_worker_obs, end_worker_obs

        begin_worker_obs()
        try:
            return _workload_task(task)
        finally:
            end_worker_obs()

    @pytest.mark.parametrize("workload,cores", [("gamess", 1), ("GkNe", 2)])
    def test_finished_unit_leaves_no_cache_entry(
        self, workload, cores, monkeypatch
    ):
        import weakref

        from repro.experiments import _trace_cache
        from repro.workloads.trace import Trace

        attached = []
        from_shm = Trace.from_shm

        def recording_from_shm(handle):
            trace = from_shm(handle)
            attached.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(Trace, "from_shm", recording_from_shm)
        store, task = self._unit(workload, ("esteem",), cores)
        try:
            comparisons, _wall = self._run(task)
            assert [c.technique for c in comparisons] == ["esteem"]
            assert not set(task[4]) & set(_trace_cache._CACHE)
            assert _trace_cache.current_bytes() == 0
            # Nothing else holds the attached traces: their list views and
            # segment mappings are gone with them.
            assert len(attached) == cores
            assert all(ref() is None for ref in attached)
        finally:
            store.close()
        assert poolmod.active_shm_segments() == []
        assert segment_files([h.segment for h in task[4].values()]) == []

    def test_failed_unit_leaves_no_cache_entry(self):
        from repro.experiments import _trace_cache
        from repro.experiments.parallel import ParallelWorkerError

        store, task = self._unit("gamess", ("no-such-technique",))
        try:
            with pytest.raises(ParallelWorkerError):
                self._run(task)
            assert _trace_cache.current_bytes() == 0
        finally:
            store.close()
        assert poolmod.active_shm_segments() == []

    def test_in_process_trace_objects_stay_cached(self):
        from repro.experiments import _trace_cache
        from repro.workloads.profiles import get_profile

        store, task = self._unit("gamess", ("esteem",))
        store.close()
        key = next(iter(task[4]))
        trace = _trace_cache.get_trace(get_profile("gamess"), *key[1:])
        self._run(task[:4] + ({key: trace}, None))
        assert _trace_cache._CACHE[key] is trace
