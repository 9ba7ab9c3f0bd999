"""Tests for the warm-L2 image cache and stale-line eviction in every loop.

``System`` builds its L2 from a cached image keyed on the capped prefill
target, so two workloads that both overflow the L2 share one image.
Stale prefill lines are absent from the line index; the reference loop,
the scalar fast loops and the batch commit loop must all evict them.
"""

import pytest

from repro.config import (
    CacheGeometry,
    EsteemConfig,
    MemoryConfig,
    RefreshConfig,
    SimConfig,
)
from repro.timing import system as system_mod
from repro.timing.system import System
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.synthetic import PhaseSpec, generate_trace


def profile(name, footprint, ws=3_000):
    return BenchmarkProfile(
        name=name,
        acronym="Zz",
        suite="spec",
        phases=(PhaseSpec(ws_lines=ws),),
        write_fraction=0.3,
        gap_mean=20.0,
        base_cpi=1.0,
        footprint_lines=footprint,
    )


@pytest.fixture
def config(small_sim_config) -> SimConfig:
    return small_sim_config


@pytest.fixture(autouse=True)
def empty_image_cache():
    saved = dict(system_mod._L2_IMAGE_CACHE)
    system_mod._L2_IMAGE_CACHE.clear()
    yield
    system_mod._L2_IMAGE_CACHE.clear()
    system_mod._L2_IMAGE_CACHE.update(saved)


def fresh_result(config, traces, technique, **kw):
    """Result of a system whose L2 was built and prefilled from scratch."""
    system_mod._L2_IMAGE_CACHE.clear()
    return System(config, traces, technique, **kw).run()


class TestImageKey:
    def test_over_capacity_footprints_share_one_image(self, config):
        n = config.l2.num_lines
        t1 = generate_trace(profile("a", n + 1), config.instructions_per_core, 0)
        t2 = generate_trace(profile("b", 5 * n), config.instructions_per_core, 1)
        for technique in ("baseline", "rpv", "esteem"):
            system_mod._L2_IMAGE_CACHE.clear()
            s1 = System(config, [t1], technique)
            s2 = System(config, [t2], technique)
            assert len(system_mod._L2_IMAGE_CACHE) == 1
            assert s1.prefill_fraction == s2.prefill_fraction == 1.0
            shared = (s1.run(), s2.run())
            assert shared[0] == fresh_result(config, [t1], technique)
            assert shared[1] == fresh_result(config, [t2], technique)

    def test_under_capacity_footprints_keep_their_own_images(self, config):
        n = config.l2.num_lines
        t1 = generate_trace(profile("a", n // 4), config.instructions_per_core, 0)
        t2 = generate_trace(profile("b", n // 2), config.instructions_per_core, 1)
        System(config, [t1], "baseline")
        System(config, [t2], "baseline")
        assert len(system_mod._L2_IMAGE_CACHE) == 2


class TestStaleEvictionInEveryLoop:
    def run_all_paths(self, config, traces, technique):
        paths = {
            "reference": System(config, traces, technique, reference_loop=True),
            "scalar": System(config, traces, technique, batch_kernel=False),
            "batch": System(config, traces, technique),
        }
        results = {name: s.run() for name, s in paths.items()}
        for s in paths.values():
            s.l2.check_invariants()
        return paths, results

    @pytest.mark.parametrize("technique", ["baseline", "rpv", "esteem", "decay"])
    def test_single_core_full_prefill(self, config, technique):
        trace = generate_trace(
            profile("w", 10**9), config.instructions_per_core, 0
        )
        paths, results = self.run_all_paths(config, [trace], technique)
        assert results["reference"] == results["scalar"] == results["batch"]
        # Every path evicted stale lines (fills went into a full cache).
        assert results["batch"].l2_misses > 0
        for s in paths.values():
            assert len(s.l2.line_index) > 0
            assert s.l2.state.valid_count() >= len(s.l2.line_index)
        if technique == "baseline":
            assert paths["batch"].kernel_batch_records > 0

    def test_dual_core_full_prefill(self):
        cfg = SimConfig(
            num_cores=2,
            l2=CacheGeometry(size_bytes=64 * 1024, associativity=8, latency_cycles=12),
            refresh=RefreshConfig(
                retention_cycles=2_000, num_banks=4,
                lines_per_refresh_burst=16, rpv_phases=4,
            ),
            memory=MemoryConfig(latency_cycles=100),
            esteem=EsteemConfig(
                alpha=0.95, a_min=2, num_modules=4, sampling_ratio=8,
                interval_cycles=10_000,
            ),
            instructions_per_core=30_000,
        )
        traces = [
            generate_trace(profile("a", 10**9), cfg.instructions_per_core, 0),
            generate_trace(profile("b", 10**9), cfg.instructions_per_core, 1),
        ]
        for technique in ("baseline", "esteem"):
            _paths, results = self.run_all_paths(cfg, traces, technique)
            assert results["reference"] == results["scalar"] == results["batch"]
