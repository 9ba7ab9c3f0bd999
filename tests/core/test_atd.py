"""Unit tests for the embedded ATD profiler."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry
from repro.core.atd import ATDProfiler
from repro.core.modules import ModuleMap


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=64 * 64 * 4, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)  # 64 sets x 4 ways


@pytest.fixture
def profiler(cache) -> ATDProfiler:
    mm = ModuleMap(num_sets=64, num_modules=4, sampling_ratio=8)
    return ATDProfiler(cache, mm)


class TestAttachment:
    def test_leader_sets_marked(self, cache, profiler):
        assert cache.leader[0]
        assert cache.leader[8]
        assert not cache.leader[1]

    def test_hook_installed(self, cache, profiler):
        assert cache.profile_hist is profiler.hist
        assert cache.module_of_set is not None

    def test_geometry_mismatch_rejected(self, cache):
        with pytest.raises(ValueError):
            ATDProfiler(cache, ModuleMap(num_sets=128, num_modules=4, sampling_ratio=8))


class TestRecording:
    def test_leader_hit_recorded_in_owning_module(self, cache, profiler):
        # Set 24 is a leader (24 % 8 == 0) in module 1 (24 // 16).
        addr = cache.line_addr(24, 3)
        cache.access(addr, False)
        cache.access(addr, False)
        assert profiler.hist[1][0] == 1
        assert profiler.total_hits() == 1

    def test_follower_hits_not_recorded(self, cache, profiler):
        addr = cache.line_addr(3, 3)
        cache.access(addr, False)
        cache.access(addr, False)
        assert profiler.total_hits() == 0

    def test_position_histogram_shape(self, cache, profiler):
        a = cache.line_addr(0, 1)
        b = cache.line_addr(0, 2)
        cache.access(a, False)
        cache.access(b, False)
        cache.access(a, False)  # position 1 hit
        assert profiler.hist[0][1] == 1

    def test_module_hits_helper(self, cache, profiler):
        addr = cache.line_addr(8, 1)
        cache.access(addr, False)
        for _ in range(5):
            cache.access(addr, False)
        assert profiler.module_hits(0) == 5


class TestReset:
    def test_reset_clears_in_place(self, cache, profiler):
        addr = cache.line_addr(0, 1)
        cache.access(addr, False)
        cache.access(addr, False)
        rows_before = [id(r) for r in profiler.hist]
        profiler.reset()
        assert profiler.total_hits() == 0
        assert [id(r) for r in profiler.hist] == rows_before
        # The cache keeps recording into the same rows after a reset.
        cache.access(addr, False)
        assert profiler.total_hits() == 1

    def test_snapshot_is_a_copy(self, cache, profiler):
        snap = profiler.snapshot()
        snap[0][0] = 999
        assert profiler.hist[0][0] == 0
