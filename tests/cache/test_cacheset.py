"""Unit tests for the per-set cold-path operations on the flat cache state.

The cache keeps one tag array, one line index and per-set recency lists
(see :mod:`repro.cache.cache`); these tests drive one set of a tiny cache
through lookups, fills, drops and victim choice, and check that
:meth:`SetAssociativeCache.check_invariants` catches each kind of desync.
"""

import numpy as np
import pytest

from repro.cache.cache import EMPTY, SetAssociativeCache
from repro.config import CacheGeometry

SET = 1


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=4 * 4 * 64, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)  # 4 sets x 4 ways


def addr(cache, tag):
    return cache.line_addr(SET, tag)


def g_of(cache, way):
    return cache.state.gidx(SET, way)


class TestFind:
    def test_find_absent(self, cache):
        assert cache.find(addr(cache, 42)) == -1

    def test_find_present(self, cache):
        cache.access(addr(cache, 41), False)
        cache.access(addr(cache, 42), False)
        assert cache.find(addr(cache, 42)) == g_of(cache, 1)

    def test_install_replaces_old_tag(self, cache):
        for t in range(4):
            cache.access(addr(cache, t), False)
        # Tag 0 is the LRU line; a fill in its place forgets it.
        cache.access(addr(cache, 77), False)
        assert cache.find(addr(cache, 0)) == -1
        assert cache.find(addr(cache, 77)) == g_of(cache, 0)
        assert cache.tags[g_of(cache, 0)] == addr(cache, 77)

    def test_drop_way_forgets_tag(self, cache):
        cache.access(addr(cache, 12), False)
        cache.access(addr(cache, 13), False)
        g = g_of(cache, 1)
        assert cache.invalidate_line(g) == (addr(cache, 13), False)
        assert cache.find(addr(cache, 13)) == -1
        assert cache.tags[g] == EMPTY
        assert cache.invalidate_line(g) == (None, False)
        assert cache.resident[SET] == 1
        cache.check_invariants()


class TestVictim:
    def test_prefers_invalid_way(self, cache):
        for t in range(4):
            cache.access(addr(cache, t), False)
        cache.invalidate_line(g_of(cache, 1))
        _, _, wb = cache.access(addr(cache, 9), False)
        assert wb == -1
        assert cache.find(addr(cache, 9)) == g_of(cache, 1)

    def test_lru_when_full(self, cache):
        for t in range(4):
            cache.access(addr(cache, t), False)
        cache.import_recency_orders(np.array([SET]), np.array([[2, 0, 3, 1]]))
        cache.access(addr(cache, 9), False)
        assert cache.find(addr(cache, 9)) == g_of(cache, 1)

    def test_respects_disabled_ways(self, cache):
        cache.n_active[SET] = 2
        cache.access(addr(cache, 1), False)
        cache.access(addr(cache, 2), False)
        # Ways 2/3 are invalid but disabled; LRU among enabled is way 0.
        cache.access(addr(cache, 3), False)
        assert cache.find(addr(cache, 3)) == g_of(cache, 0)
        assert not cache.state.valid[g_of(cache, 2) : g_of(cache, 4)].any()


class TestFlush:
    def test_flush_empty_way(self, cache):
        tag, dirty = cache.invalidate_line(g_of(cache, 0))
        assert tag is None and not dirty

    def test_flush_clean_line(self, cache):
        cache.access(addr(cache, 99), False)
        g = g_of(cache, 0)
        tag, dirty = cache.invalidate_line(g)
        assert tag == addr(cache, 99) and not dirty
        assert cache.tags[g] == EMPTY
        assert not cache.state.valid[g]

    def test_flush_dirty_line_reports_dirty(self, cache):
        for t in range(4):
            cache.access(addr(cache, t), t == 3)
        g = g_of(cache, 3)
        tag, dirty = cache.invalidate_line(g)
        assert tag == addr(cache, 3) and dirty
        assert not cache.state.dirty[g]


class TestInvariants:
    def test_consistent_state_passes(self, cache):
        cache.access(addr(cache, 5), True)
        cache.check_invariants()

    def test_detects_valid_mirror_desync(self, cache):
        cache.access(addr(cache, 5), False)
        cache.state.valid[g_of(cache, 0)] = False
        with pytest.raises(AssertionError):
            cache.check_invariants()

    def test_detects_tag_map_desync(self, cache):
        g = g_of(cache, 0)
        cache.tags[g] = addr(cache, 5)  # raw write bypasses the line index
        cache.state.valid[g] = True
        cache.resident[SET] += 1
        with pytest.raises(AssertionError, match="line index"):
            cache.check_invariants()

    def test_detects_line_in_disabled_way(self, cache):
        for t in range(4):
            cache.access(addr(cache, t), False)
        cache.n_active[SET] = 2
        with pytest.raises(AssertionError, match="gated way"):
            cache.check_invariants()

    def test_leader_may_hold_lines_in_all_ways(self, cache):
        for t in range(4):
            cache.access(addr(cache, t), False)
        cache.leader[SET] = True
        cache.n_active[SET] = 2  # even if shrunk, leaders keep lines anywhere
        cache.check_invariants()

    def test_resident_tags(self, cache):
        for t in (4, 9):
            cache.access(addr(cache, t), False)
        assert sorted(cache.resident_lines()) == [addr(cache, 4), addr(cache, 9)]
        assert cache.resident == [0, 2, 0, 0]
