"""Tests for the flat cache state: warm-image clones and stale prefill lines.

A warm L2 is built once per prefill target and cloned for every later
system (:meth:`SetAssociativeCache.from_image`), so a clone must share
nothing mutable with its image.  Stale prefill lines
(:meth:`SetAssociativeCache.fill_stale`) are valid but absent from the line
index, so every evict and drop path must handle an address the index does
not hold.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import EMPTY, STALE_TAG_BASE, SetAssociativeCache
from repro.config import CacheGeometry, RefreshConfig
from repro.edram.decay import CacheDecayRefresh
from repro.edram.ecc import EccExtendedRefresh
from repro.edram.rpd import RefrintPolyphaseDirty
from repro.faults import FaultEvent, FaultInjector, FaultPlan

GEO = CacheGeometry(size_bytes=16 * 4 * 64, associativity=4, latency_cycles=1)
CFG = RefreshConfig(
    retention_cycles=1_000, num_banks=4, lines_per_refresh_burst=16, rpv_phases=4
)


def warm_cache(ways: int = 4) -> SetAssociativeCache:
    """16 sets x 4 ways with the first ``ways`` ways of every set stale."""
    cache = SetAssociativeCache(GEO, name="L2")
    filled = np.zeros((cache.num_sets, cache.associativity), dtype=bool)
    filled[:, :ways] = True
    cache.fill_stale(filled.reshape(-1))
    cache.state.last_window[filled.reshape(-1)] = 0
    return cache


def is_stale(cache, g):
    return int(cache.tags[g]) >= STALE_TAG_BASE << cache.set_bits


class TestFillStale:
    def test_stale_lines_are_valid_clean_and_unindexed(self):
        cache = warm_cache(ways=3)
        assert cache.state.valid_count() == 3 * cache.num_sets
        assert not cache.state.dirty.any()
        assert cache.line_index == {}
        assert cache.resident == [3] * cache.num_sets
        # Each stale address maps back to its own set.
        for g in np.flatnonzero(cache.state.valid).tolist():
            assert int(cache.tags[g]) & cache.set_mask == g // cache.associativity
        cache.check_invariants()

    def test_checker_rejects_an_indexed_stale_line(self):
        cache = warm_cache()
        cache.line_index[int(cache.tags[0])] = 0
        with pytest.raises(AssertionError, match="line index"):
            cache.check_invariants()

    def test_checker_rejects_a_wrong_resident_count(self):
        cache = warm_cache()
        cache.resident[5] -= 1
        with pytest.raises(AssertionError, match="resident"):
            cache.check_invariants()

    def test_checker_rejects_a_broken_recency_row(self):
        cache = warm_cache()
        cache.recency[2][0] = cache.recency[2][1]
        with pytest.raises(AssertionError, match="recency"):
            cache.check_invariants()


class TestCloneIsolation:
    def test_clone_shares_nothing_mutable(self):
        image_cache = warm_cache(ways=2)
        image_cache.access(image_cache.line_addr(3, 7), True)
        image = image_cache.snapshot_image()
        frozen = SetAssociativeCache.from_image(GEO, image).snapshot_image()
        a = SetAssociativeCache.from_image(GEO, image)
        b = SetAssociativeCache.from_image(GEO, image)

        # Mutate every container of clone ``a``.
        a.tags[0] = 12345
        a.line_index[12345] = 0
        a.line_index.pop(a.line_addr(3, 7))
        a.recency[3].reverse()
        a.resident[3] = 0
        a.n_active[1] = 1
        a.leader[2] = True
        a.state.valid[:] = False
        a.state.dirty[:] = True
        a.state.last_window[:] = 99
        for t in range(8):
            a.access(a.line_addr(4, 100 + t), True)

        for snap in (image, b.snapshot_image()):
            for got, want in zip(snap, frozen):
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want)
                else:
                    assert got == want
        assert b.n_active == [4] * b.num_sets
        assert b.leader == [False] * b.num_sets
        b.check_invariants()

    def test_clone_behaves_like_the_original(self):
        original = warm_cache(ways=3)
        clone = SetAssociativeCache.from_image(GEO, original.snapshot_image())
        addrs = [(s * 7 + 3) % 200 for s in range(300)]
        for i, addr in enumerate(addrs):
            assert original.access(addr, i % 3 == 0) == clone.access(addr, i % 3 == 0)
        assert np.array_equal(original.tags, clone.tags)
        assert original.recency == clone.recency
        clone.check_invariants()


class TestStaleEviction:
    def test_miss_into_full_stale_set_evicts_a_stale_line(self):
        cache = warm_cache()
        s = 6
        hit, _pos, wb = cache.access(cache.line_addr(s, 1), False)
        assert not hit and wb == -1
        g = cache.find(cache.line_addr(s, 1))
        # The LRU way of an untouched set is its last way.
        assert g == s * cache.associativity + 3
        assert cache.resident[s] == 4
        cache.check_invariants()

    def test_decay_drops_stale_lines(self):
        cache = warm_cache()
        cache.access(cache.line_addr(1, 9), True, window=0)
        engine = CacheDecayRefresh(cache.state, CFG, cache, decay_windows=8)
        engine.advance_to(9 * CFG.phase_cycles)
        assert engine.decayed == cache.num_sets * cache.associativity
        assert engine.take_writeback_delta() == 1
        assert cache.line_index == {}
        assert cache.resident == [0] * cache.num_sets
        cache.check_invariants()

    def test_rpd_invalidates_clean_stale_lines(self):
        cache = warm_cache()
        cache.access(cache.line_addr(1, 9), True, window=0)
        engine = RefrintPolyphaseDirty(cache.state, CFG, cache)
        engine.advance_to(5 * CFG.phase_cycles)
        # The dirty demand line replaced one stale line and survives.
        assert engine.invalidations == cache.num_sets * cache.associativity - 1
        assert cache.contains(cache.line_addr(1, 9))
        cache.check_invariants()

    def test_ecc_invalidates_stale_lines(self):
        cache = warm_cache()
        engine = EccExtendedRefresh(
            cache.state, CFG, cache, extension_factor=32, correctable_bits=0
        )
        engine.p_uncorrectable = 0.5
        engine.advance_to(engine.window_cycles * 2)
        assert engine.corruption_invalidations > 0
        assert cache.state.valid_count() < cache.num_sets * cache.associativity
        cache.check_invariants()

    def test_fault_injector_invalidates_a_stale_line(self):
        cache = warm_cache()
        plan = FaultPlan(events=(FaultEvent(set_index=2, way=1, cycle=10, bits=2),))
        inj = FaultInjector(plan, cache, RefreshConfig(), "gamess", "esteem")
        g = 2 * cache.associativity + 1
        assert is_stale(cache, g)
        inj.at_boundary(100)
        assert inj.invalidated_clean == 1
        assert cache.tags[g] == EMPTY
        assert cache.resident[2] == 3
        cache.check_invariants()


@given(
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.booleans()),
        max_size=200,
    ),
    ways=st.integers(min_value=0, max_value=4),
    n_active=st.integers(min_value=1, max_value=4),
    drops=st.sets(st.integers(min_value=0, max_value=63), max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_invariants_hold_from_a_stale_start(accesses, ways, n_active, drops):
    """Traffic, gating and drops over a partly stale cache keep it exact."""
    cache = warm_cache(ways)
    for k, (addr, w) in enumerate(accesses):
        if k == len(accesses) // 2:
            # Gate the followers the way the reconfiguration flush does.
            gated = np.flatnonzero(
                np.arange(cache.state.num_lines) % cache.associativity >= n_active
            )
            cache.drop_lines(gated)
            cache.n_active[:] = [n_active] * cache.num_sets
        cache.access(addr, w)
    cache.drop_lines(sorted(drops))
    cache.check_invariants()
