"""Property-based tests for the cache substrate (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry


def make_cache(sets: int = 16, ways: int = 4) -> SetAssociativeCache:
    geo = CacheGeometry(
        size_bytes=sets * ways * 64, associativity=ways, latency_cycles=1
    )
    return SetAssociativeCache(geo)


accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2047), st.booleans()),
    max_size=300,
)


@given(accesses=accesses)
@settings(max_examples=60, deadline=None)
def test_invariants_hold_under_arbitrary_traffic(accesses):
    cache = make_cache()
    for addr, w in accesses:
        cache.access(addr, w)
    cache.check_invariants()


@given(accesses=accesses)
@settings(max_examples=60, deadline=None)
def test_hit_plus_miss_equals_accesses(accesses):
    cache = make_cache()
    for addr, w in accesses:
        cache.access(addr, w)
    assert cache.stats.hits + cache.stats.misses == len(accesses)
    assert sum(cache.stats.hits_by_position) == cache.stats.hits
    cache.check_invariants()


@given(accesses=accesses)
@settings(max_examples=60, deadline=None)
def test_resident_lines_bounded_by_capacity(accesses):
    cache = make_cache()
    for addr, w in accesses:
        cache.access(addr, w)
    resident = cache.resident_lines()
    assert len(resident) <= cache.num_sets * cache.associativity
    assert len(set(resident)) == len(resident)  # no duplicates
    assert cache.state.valid_count() == len(resident)
    cache.check_invariants()


@given(accesses=accesses)
@settings(max_examples=60, deadline=None)
def test_most_recent_access_always_resident_and_mru(accesses):
    cache = make_cache()
    for addr, w in accesses:
        cache.access(addr, w)
        assert cache.contains(addr)
        assert cache.probe_position(addr) == 0


@given(
    accesses=accesses,
    n_active=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_gated_sets_never_hold_more_than_active_ways(accesses, n_active):
    cache = make_cache()
    cache.n_active[:] = [n_active] * cache.num_sets
    for addr, w in accesses:
        cache.access(addr, w)
    assert max(cache.resident) <= n_active
    cache.check_invariants()


@given(accesses=accesses)
@settings(max_examples=40, deadline=None)
def test_writebacks_only_for_previously_written_lines(accesses):
    """A dirty writeback must name a line that saw a write since its fill."""
    cache = make_cache(sets=4, ways=2)  # tiny: force heavy eviction
    written: set[int] = set()
    for addr, w in accesses:
        _, _, wb = cache.access(addr, w)
        if w:
            written.add(addr)
        if wb >= 0:
            assert wb in written
            written.discard(wb)  # the dirty copy has left the cache
    cache.check_invariants()
