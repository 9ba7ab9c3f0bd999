"""LRU byte cap on the process-wide trace cache."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import _trace_cache as tc
from repro.obs.metrics import get_default_registry
from repro.workloads.profiles import get_profile
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def _fresh_cache():
    tc.clear()
    yield
    tc.clear()


def synthetic_trace(name: str, n: int) -> Trace:
    """A trace whose column payload is exactly ``17 * n`` bytes."""
    return Trace(
        name=name,
        addrs=np.zeros(n, dtype=np.int64),
        writes=np.zeros(n, dtype=bool),
        gaps=np.ones(n, dtype=np.int64),
    )


def evictions() -> int:
    return get_default_registry().counter("trace_cache.evictions").value


def cached(name: str, budget: int = 100, seed: int = 0) -> bool:
    """Whether the entry is cached (without touching its recency)."""
    return (name, budget, seed) in tc._CACHE


class TestByteCap:
    def test_default_cap_is_one_gibibyte(self):
        assert tc.DEFAULT_MAX_BYTES == 1 << 30
        assert tc.max_bytes() == 1 << 30

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "4096")
        assert tc.max_bytes() == 4096

    def test_garbage_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "lots")
        assert tc.max_bytes() == tc.DEFAULT_MAX_BYTES

    def test_non_positive_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "-1")
        assert tc.max_bytes() == tc.DEFAULT_MAX_BYTES

    def test_accounting_tracks_column_payload(self):
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        assert tc.current_bytes() == 17 * 1000
        tc.put("b", 100, 0, synthetic_trace("b", 500))
        assert tc.current_bytes() == 17 * 1500

    def test_replacing_an_entry_does_not_double_count(self):
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("a", 100, 0, synthetic_trace("a", 2000))
        assert tc.current_bytes() == 17 * 2000

    def test_discard_releases_the_entry_and_its_bytes(self):
        before = evictions()
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("b", 100, 0, synthetic_trace("b", 500))
        tc.discard("a", 100, 0)
        assert not cached("a") and cached("b")
        assert tc.current_bytes() == 17 * 500
        gauge = get_default_registry().gauge("trace_cache.bytes")
        assert gauge.value == float(17 * 500)
        tc.discard("a", 100, 0)  # absent: a no-op
        assert tc.current_bytes() == 17 * 500
        assert evictions() == before


class TestEviction:
    def test_oldest_entry_evicted_first(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", str(17 * 2500))
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("b", 100, 0, synthetic_trace("b", 1000))
        tc.put("c", 100, 0, synthetic_trace("c", 1000))  # evicts "a"
        assert not cached("a")
        assert cached("b")
        assert cached("c")
        assert tc.current_bytes() == 17 * 2000

    def test_recency_touch_changes_the_victim(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", str(17 * 2500))
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("b", 100, 0, synthetic_trace("b", 1000))
        # A get_trace hit touches "a" (only the profile's name is read on
        # a hit): "b" is now the oldest.
        tc.get_trace(SimpleNamespace(name="a"), 100, 0)
        tc.put("c", 100, 0, synthetic_trace("c", 1000))
        assert cached("a")
        assert not cached("b")

    def test_get_trace_hit_refreshes_recency(self, monkeypatch):
        profile = get_profile("gamess")
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", str(17 * 60_000))
        first = tc.get_trace(profile, 50_000, seed=0)  # miss: generates
        tc.get_trace(profile, 50_000, seed=0)  # hit
        assert cached(profile.name, 50_000)
        assert first is tc.get_trace(profile, 50_000, seed=0)

    def test_newest_entry_survives_even_when_oversized(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "17")
        tc.put("big", 100, 0, synthetic_trace("big", 1000))
        assert cached("big")
        assert tc.current_bytes() == 17 * 1000
        # ... but it becomes the victim as soon as a successor arrives.
        tc.put("next", 100, 0, synthetic_trace("next", 1000))
        assert not cached("big")
        assert cached("next")

    def test_eviction_counter_increments(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", str(17 * 1500))
        before = evictions()
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("b", 100, 0, synthetic_trace("b", 1000))  # evicts "a"
        tc.put("c", 100, 0, synthetic_trace("c", 1000))  # evicts "b"
        assert evictions() - before == 2

    def test_bytes_gauge_reflects_current_payload(self):
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        gauge = get_default_registry().gauge("trace_cache.bytes")
        assert gauge.value == float(17 * 1000)

    def test_clear_resets_accounting(self):
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.clear()
        assert tc.current_bytes() == 0
        assert not cached("a")
