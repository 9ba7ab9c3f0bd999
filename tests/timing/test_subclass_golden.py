"""Golden digests: the ``_service`` subclasses keep their exact results.

:class:`~repro.timing.full_system.FullHierarchySystem` and
:class:`~repro.tech.compare.TechSystem` override
:meth:`System._service <repro.timing.system.System._service>`, so they run
on the per-record reference loop.  Their full :class:`SystemResult` (every
field, the ESTEEM timeline and energy breakdown included) plus the
subclass-specific counters are pinned by a sha256 digest of their exact
``repr`` -- floats repr round-trip, so equal digests mean bit-for-bit
equal results.

The digests were recorded when these subclasses still ran on a separate
event-horizon loop that routed every record through ``_service``; the
reference loop must reproduce them.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import (
    CacheGeometry,
    EsteemConfig,
    MemoryConfig,
    RefreshConfig,
    SimConfig,
)
from repro.tech.compare import TechSystem
from repro.tech.params import get_technology
from repro.timing.full_system import FullHierarchySystem
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace

TECHNIQUES = ("baseline", "rpv", "esteem")


def make_config(num_cores: int) -> SimConfig:
    return SimConfig(
        num_cores=num_cores,
        l2=CacheGeometry(size_bytes=64 * 1024, associativity=8, latency_cycles=12),
        refresh=RefreshConfig(
            retention_cycles=2_000,
            num_banks=4,
            lines_per_refresh_burst=16,
            rpv_phases=4,
        ),
        memory=MemoryConfig(latency_cycles=100, bandwidth_bytes_per_sec=10e9),
        esteem=EsteemConfig(
            alpha=0.95,
            a_min=2,
            num_modules=4,
            sampling_ratio=8,
            interval_cycles=10_000,
        ),
        instructions_per_core=50_000,
    )


def l1_trace(name: str, records: int, hot_lines: int, cold_base: int) -> Trace:
    """An L1-level stream: a hot set that fits L1 plus periodic cold lines."""
    addrs, writes, gaps = [], [], []
    for i in range(records):
        addrs.append(cold_base + i if i % 8 == 7 else i % hot_lines)
        writes.append(i % 5 == 0)
        gaps.append(2)
    return Trace(name=name, addrs=addrs, writes=writes, gaps=gaps,
                 base_cpi=1.0, mem_mlp=1.0, footprint_lines=0)


def result_digest(result, *extra) -> str:
    """sha256 of the exact repr of every result field (first 16 hex)."""
    text = repr((dataclasses.asdict(result), extra))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def full_hierarchy_digest(cores: int, technique: str) -> str:
    traces = [
        l1_trace("l1a", 12_000, 64, 50_000),
        l1_trace("l1b", 9_000, 96, 90_000),
    ][:cores]
    sysm = FullHierarchySystem(make_config(cores), traces, technique)
    result = sysm.run()
    return result_digest(result, sysm.l1_hits, sysm.l1_misses)


def tech_digest(technology: str, technique: str) -> str:
    config = make_config(1)
    trace = generate_trace(get_profile("mcf"), 300_000, seed=3)
    sysm = TechSystem(config, [trace], get_technology(technology), technique)
    if sysm.l2.write_counts is None:
        sysm.l2.write_counts = np.zeros(sysm.l2.state.num_lines, dtype=np.int64)
    result = sysm.run()
    return result_digest(result, sysm.l2.write_counts.tolist())


#: (cores, technique) -> digest.
FULL_HIERARCHY_GOLDEN = {
    (1, "baseline"): "b6a69ae6113d0d6e",
    (1, "rpv"): "fd5af711e694d96a",
    (1, "esteem"): "8c6d97f7c7397874",
    (2, "baseline"): "6074a92952ef2c1a",
    (2, "rpv"): "d4f20f91fbfe6047",
    (2, "esteem"): "169130875ee10f04",
}

#: (technology, technique) -> digest.
TECH_GOLDEN = {
    ("edram", "baseline"): "3404f2c832c09c67",
    ("edram", "rpv"): "0efab5d84477bcc3",
    ("edram", "esteem"): "99822cd00455fcca",
    ("sttram", "baseline"): "818ff71252588426",
    ("sram", "baseline"): "aeba8b52653b7201",
}


@pytest.mark.parametrize("cores,technique", sorted(FULL_HIERARCHY_GOLDEN))
def test_full_hierarchy_results_unchanged(cores, technique):
    expected = FULL_HIERARCHY_GOLDEN[cores, technique]
    assert full_hierarchy_digest(cores, technique) == expected


@pytest.mark.parametrize("technology,technique", sorted(TECH_GOLDEN))
def test_tech_system_results_unchanged(technology, technique):
    expected = TECH_GOLDEN[technology, technique]
    assert tech_digest(technology, technique) == expected
