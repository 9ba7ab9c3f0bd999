"""Differential tests: the in-place polyphase boundary against its spec.

RPV and RPD fill one engine-owned due mask and restamp ``last_window``
in place.  The references below are the plain expressions the policies
are defined by (a fresh ``valid & (last_window <= w - P)`` mask and a
boolean scatter), run over private copies of the line state; every
count, every counter and the whole stamp array must match them after
every step of a random schedule of boundaries, accesses and
invalidations.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.block import LineState
from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, RefreshConfig, SimConfig
from repro.edram.rpd import RefrintPolyphaseDirty
from repro.edram.rpv import RefrintPolyphaseValid
from repro.faults import FaultPlan
from repro.timing.system import System
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

PHASE = 100


def config(phases: int) -> RefreshConfig:
    return RefreshConfig(
        retention_cycles=PHASE * phases,
        num_banks=4,
        lines_per_refresh_burst=16,
        rpv_phases=phases,
    )


def rpv_reference(valid, last_window, w, phases) -> int:
    due = valid & (last_window <= w - phases)
    count = int(np.count_nonzero(due))
    if count:
        last_window[due] = w
    return count


def rpd_reference(valid, dirty, last_window, w, phases) -> tuple[int, int]:
    due = valid & (last_window <= w - phases)
    if not due.any():
        return 0, 0
    dirty_due = due & dirty
    count = int(np.count_nonzero(dirty_due))
    if count:
        last_window[dirty_due] = w
    clean_due = due & ~dirty
    valid[clean_due] = False
    dirty[clean_due] = False
    last_window[clean_due] = -1
    return count, int(np.count_nonzero(clean_due))


def reference_boundaries(next_boundary: int, cycle: int):
    """Window indices of the boundaries ``advance_to(cycle)`` processes."""
    windows = []
    while next_boundary <= cycle:
        windows.append(next_boundary // PHASE)
        next_boundary += PHASE
    return windows, next_boundary


@st.composite
def schedules(draw):
    """Geometry, phase count, start state and a schedule of operations."""
    set_bits = draw(st.integers(0, 5))
    ways = draw(st.integers(1, 8))
    phases = draw(st.sampled_from([1, 2, 3, 4, 8]))
    n = (1 << set_bits) * ways
    stamp = st.one_of(
        st.just(-50),                        # far past
        st.just(-1),                         # never touched
        st.integers(-2 * phases, 3 * phases),  # in and out of phase
    )
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    dirty = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    stamps = draw(st.lists(stamp, min_size=n, max_size=n))
    line = st.integers(0, n - 1)
    op = st.one_of(
        st.tuples(st.just("advance"), st.integers(0, 3 * PHASE + 57)),
        st.tuples(st.just("access"), line, st.booleans()),
        st.tuples(st.just("invalidate"), line),
    )
    ops = draw(st.lists(op, min_size=1, max_size=40))
    return set_bits, ways, phases, valid, dirty, stamps, ops


@given(schedules())
@settings(max_examples=120, deadline=None)
def test_rpv_matches_reference(case):
    set_bits, ways, phases, valid, _, stamps, ops = case
    state = LineState(1 << set_bits, ways)
    state.valid[:] = valid
    state.last_window[:] = stamps
    ref_valid = state.valid.copy()
    ref_lw = state.last_window.copy()
    engine = RefrintPolyphaseValid(state, config(phases))
    stamps_array = state.last_window
    cycle = 0
    next_boundary = PHASE
    ref_total = 0
    for op in ops:
        if op[0] == "advance":
            cycle += op[1]
            windows, next_boundary = reference_boundaries(next_boundary, cycle)
            expected = sum(
                rpv_reference(ref_valid, ref_lw, w, phases) for w in windows
            )
            ref_total += expected
            engine.advance_to(cycle)
            assert engine.take_refresh_delta() == expected
            assert engine.boundaries == cycle // PHASE
        elif op[0] == "access":
            g, w = op[1], cycle // PHASE
            state.valid[g] = ref_valid[g] = True
            state.last_window[g] = ref_lw[g] = w
        else:
            g = op[1]
            state.valid[g] = ref_valid[g] = False
            state.last_window[g] = ref_lw[g] = -1
        assert state.last_window is stamps_array
        np.testing.assert_array_equal(state.last_window, ref_lw)
        np.testing.assert_array_equal(state.valid, ref_valid)
    assert engine.total_refreshes == ref_total


def small_cache(set_bits: int, ways: int) -> SetAssociativeCache:
    geo = CacheGeometry(
        size_bytes=(1 << set_bits) * ways * 64,
        associativity=ways,
        latency_cycles=1,
    )
    return SetAssociativeCache(geo, name="L2")


@given(schedules())
@settings(max_examples=120, deadline=None)
def test_rpd_matches_reference(case):
    set_bits, ways, phases, valid, dirty, stamps, ops = case
    cache = small_cache(set_bits, ways)
    state = cache.state
    cache.fill_stale(np.asarray(valid, dtype=bool))
    state.dirty[:] = np.asarray(dirty) & state.valid
    state.last_window[:] = stamps
    ref_valid = state.valid.copy()
    ref_dirty = state.dirty.copy()
    ref_lw = state.last_window.copy()
    engine = RefrintPolyphaseDirty(state, config(phases), cache)
    stamps_array = state.last_window
    cycle = 0
    next_boundary = PHASE
    ref_total = ref_dropped = 0
    for op in ops:
        if op[0] == "advance":
            cycle += op[1]
            windows, next_boundary = reference_boundaries(next_boundary, cycle)
            expected = 0
            for w in windows:
                count, dropped = rpd_reference(
                    ref_valid, ref_dirty, ref_lw, w, phases
                )
                expected += count
                ref_dropped += dropped
            ref_total += expected
            engine.advance_to(cycle)
            assert engine.take_refresh_delta() == expected
        elif op[0] == "access":
            g, write, w = op[1], op[2], cycle // PHASE
            if not state.valid[g]:
                one = np.zeros(state.num_lines, dtype=bool)
                one[g] = True
                cache.fill_stale(one)
                state.dirty[g] = ref_dirty[g] = False
            state.dirty[g] |= write
            ref_dirty[g] |= write
            ref_valid[g] = True
            state.last_window[g] = ref_lw[g] = w
        else:
            g = op[1]
            cache.drop_lines([g])
            ref_valid[g] = ref_dirty[g] = False
            ref_lw[g] = -1
        assert state.last_window is stamps_array
        np.testing.assert_array_equal(state.last_window, ref_lw)
        np.testing.assert_array_equal(state.valid, ref_valid)
        np.testing.assert_array_equal(state.dirty, ref_dirty)
        assert cache.resident == (
            ref_valid.reshape(-1, ways).sum(axis=1).tolist()
        )
    assert engine.total_refreshes == ref_total
    assert engine.invalidations == ref_dropped


def test_engines_over_clones_share_no_buffer():
    cache = small_cache(4, 4)
    cache.fill_stale(np.arange(64) % 3 != 0)
    cache.state.last_window[:] = -(np.arange(64) % 4)
    image = cache.snapshot_image()
    a = SetAssociativeCache.from_image(cache.geometry, image, name="L2")
    b = SetAssociativeCache.from_image(cache.geometry, image, name="L2")
    cfg = config(4)
    ea = RefrintPolyphaseValid(a.state, cfg)
    eb = RefrintPolyphaseValid(b.state, cfg)
    assert not np.shares_memory(ea._due, eb._due)
    for name in ("valid", "dirty", "last_window"):
        assert not np.shares_memory(getattr(a.state, name), getattr(b.state, name))

    before = b.state.last_window.copy()
    ea.advance_to(3 * PHASE)
    assert ea.total_refreshes > 0
    np.testing.assert_array_equal(b.state.last_window, before)
    eb.advance_to(3 * PHASE)
    assert eb.total_refreshes == ea.total_refreshes
    np.testing.assert_array_equal(b.state.last_window, a.state.last_window)


def test_fault_injected_rpv_run_equals_reference_loop():
    cfg = SimConfig.scaled(
        retention_us=12.5, instructions_per_core=200_000, interval_cycles=100_000
    )
    plan = FaultPlan(seed=5, flip_rate=2e-4)
    trace = generate_trace(get_profile("gamess"), cfg.instructions_per_core, seed=0)
    fast = System(cfg, [trace], "rpv", fault_plan=plan)
    slow = System(cfg, [trace], "rpv", fault_plan=plan, reference_loop=True)
    fast_result, slow_result = fast.run(), slow.run()
    assert fast_result == slow_result
    assert fast_result.faults_injected > 0
    assert fast_result.refreshes > 0
    for name in ("valid", "dirty", "last_window"):
        np.testing.assert_array_equal(
            getattr(fast.l2.state, name), getattr(slow.l2.state, name)
        )
