"""Golden equivalence: the fast loops vs the straight-line reference.

The event-horizon fast loops (:meth:`System._run_fast_single
<repro.timing.system.System._run_fast_single>` and
:meth:`System._run_fast_multi
<repro.timing.system.System._run_fast_multi>`) are a pure performance
transformation -- every counter, energy figure, timeline
entry, and per-core statistic must match the retained reference loop
(``reference_loop=True`` -> :meth:`System._run_reference`) *bit for bit*,
including float accumulation order.  These tests run representative
single- and dual-core workloads under several techniques on both paths
and compare the complete :class:`~repro.timing.system.SystemResult`.

Any intentional change to service ordering or arithmetic must update both
loops together; a mismatch here means the fast path silently diverged.
"""

import pytest

from repro.config import SimConfig
from repro.timing.system import System
from repro.workloads.multiprog import get_mix
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

# Techniques with distinct hot-path behaviour: baseline (no reconfig),
# rpv (refresh period variation), esteem (reconfig + ATD profiling),
# esteem-drowsy (gated ways retain data -> drowsy-hit path).
TECHNIQUES = ("baseline", "rpv", "esteem", "esteem-drowsy")

SINGLE_INSTRUCTIONS = 300_000
DUAL_INSTRUCTIONS = 250_000


def _result_fields(r):
    """Flatten a SystemResult into plain comparable data (no approx)."""
    return {
        "cores": [
            (
                c.core_id,
                c.workload,
                c.first_pass_instructions,
                c.first_pass_cycles,
                c.total_instructions,
                c.wraps,
                c.ipc,
            )
            for c in r.cores
        ],
        "total_cycles": r.total_cycles,
        "total_instructions": r.total_instructions,
        "l2_hits": r.l2_hits,
        "l2_misses": r.l2_misses,
        "l2_writebacks": r.l2_writebacks,
        "refreshes": r.refreshes,
        "mem_reads": r.mem_reads,
        "mem_writes": r.mem_writes,
        "energy": vars(r.energy).copy(),
        "mean_active_fraction": r.mean_active_fraction,
        "intervals": r.intervals,
        "timeline": [vars(d).copy() for d in r.timeline],
        "transitions": r.transitions,
        "flush_writebacks": r.flush_writebacks,
    }


def _assert_identical(config, traces, technique):
    fast = System(config, traces, technique=technique).run()
    ref = System(config, traces, technique=technique, reference_loop=True).run()
    ff, rf = _result_fields(fast), _result_fields(ref)
    for key in ff:
        assert ff[key] == rf[key], f"{technique}: {key} diverged"


class TestSingleCoreEquivalence:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("workload", ["sphinx", "mcf", "libquantum"])
    def test_identical_results(self, workload, technique):
        config = SimConfig.scaled(
            num_cores=1, instructions_per_core=SINGLE_INSTRUCTIONS
        )
        traces = [
            generate_trace(get_profile(workload), SINGLE_INSTRUCTIONS, seed=7)
        ]
        _assert_identical(config, traces, technique)


class TestDualCoreEquivalence:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    @pytest.mark.parametrize("mix", ["GkNe", "LqPo"])
    def test_identical_results(self, mix, technique):
        config = SimConfig.scaled(
            num_cores=2, instructions_per_core=DUAL_INSTRUCTIONS
        )
        traces = [
            generate_trace(p, DUAL_INSTRUCTIONS, seed=7 + i)
            for i, p in enumerate(get_mix(mix).profiles)
        ]
        _assert_identical(config, traces, technique)
