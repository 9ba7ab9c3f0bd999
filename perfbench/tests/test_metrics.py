"""Manifest-derived metrics on a synthetic two-worker campaign."""

import pytest

import metrics as m
from layers import PREFIX


def entry(workload, attempt, outcome, start, end):
    return {
        "workload": workload, "attempt": attempt, "outcome": outcome,
        "exc_type": "", "start_s": start, "end_s": end,
        "wall_s": end - start, "telemetry": "ok",
    }


@pytest.fixture
def manifest():
    # Worker 1 runs a (1-3) then d (3-3.5); worker 2 runs b (1-2) then
    # c (2-4).  e was a result-cache hit and never reached a worker.
    return {
        "workloads": ["a", "b", "c", "d", "e"],
        "wall_s": 4.2,
        "attempts": 4,
        "retries": 0,
        "failed": [], "quarantined": [], "skipped": [],
        "timeline": [
            entry("e", 0, "cached", 0.1, 0.1),
            entry("a", 1, "ok", 1.0, 3.0),
            entry("b", 1, "ok", 1.0, 2.0),
            entry("c", 1, "ok", 2.0, 4.0),
            entry("d", 1, "ok", 3.0, 3.5),
        ],
        "telemetry": {
            "counters": {
                "sim.instructions": 6e6,
                "kernel.batch_records": 30.0,
                "kernel.scalar_records": 70.0,
                PREFIX + "timing.run.ns": 3e9,
                PREFIX + "edram.advance.ns": 1e9,
                PREFIX + "workloads.gen.ns": 5e9,
            },
            "per_technique": {
                "baseline": {"wall_s": 2.0, "counters": {"sim.instructions": 2e6}},
                "rpv": {"wall_s": 1.5, "counters": {
                    "sim.instructions": 2e6,
                    PREFIX + "edram.advance.ns": 1e9,
                }},
                "esteem": {"wall_s": 1.5, "counters": {
                    "sim.instructions": 2e6,
                    "kernel.batch_records": 10.0,
                    "kernel.scalar_records": 30.0,
                }},
            },
        },
        "aggregates": {
            "rpv": {"energy_saving_pct": 8.0},
            "esteem": {"energy_saving_pct": 16.0},
        },
    }


def test_setup_is_first_dispatch_not_cache_hit(manifest):
    assert m.setup_s(manifest) == 1.0


def test_busy_is_attempt_time(manifest):
    assert m.worker_busy_s(manifest) == 5.5


def test_utilization(manifest):
    assert m.capacity_s(manifest, jobs=2) == pytest.approx(6.4)
    out = m.manifest_metrics(manifest, jobs=2)
    assert out["experiments.utilization"] == pytest.approx(5.5 / 6.4)


def test_tail_idle(manifest):
    # Worker 1 idles from 3.5 until worker 2 finishes at 4.0.
    assert m.tail_idle_s(manifest, jobs=2) == pytest.approx(0.5)
    # One worker never idles: its attempts run back to back.
    assert m.tail_idle_s(manifest, jobs=1) == 0.0


def test_ship_is_attempt_time_outside_technique_spans(manifest):
    assert m.ship_s(manifest) == pytest.approx(0.5)


def test_per_technique_rates_and_batch_share(manifest):
    out = m.manifest_metrics(manifest, jobs=2)
    assert out["timing.baseline.ns_per_instr"] == pytest.approx(1000.0)
    assert out["timing.esteem.kernel_records"] == 40.0
    assert out["timing.esteem.batch_share"] == pytest.approx(0.25)
    assert out["timing.batch_records"] == 30.0


def test_layer_metrics_merge_parent_counters_and_coverage(manifest):
    out = m.layer_metrics(manifest, {PREFIX + "workloads.gen.ns": 1e9})
    assert out["workloads.gen_s"] == pytest.approx(6.0)
    # Parent-side spans do not count towards worker coverage.
    assert out["experiments.layer_self_s"] == pytest.approx(4.0)
    assert out["experiments.layer_coverage"] == pytest.approx(4.0 / 5.5)
    assert out["edram.rpv.advance_s"] == pytest.approx(1.0)
    assert out["edram.baseline.advance_s"] == 0.0


def test_digests_and_mismatch(manifest):
    units = [
        {"comparisons": [{"workload": w, "technique": "rpv", "x": i}]}
        for i, w in enumerate("abc")
    ]
    ref = m.result_digests(units, manifest)
    assert m.mismatched_units(ref, ref) == []
    units[1]["comparisons"][0]["x"] = 99
    got = m.result_digests(units, manifest)
    assert m.mismatched_units(got, ref) == ["b"]
    assert m.mismatched_units(m.result_digests(units[:2], manifest), ref) == ["b", "c"]
    manifest["aggregates"]["rpv"]["energy_saving_pct"] = 8.5
    assert m.mismatched_units(m.result_digests(units, manifest), got) == ["rollup"]


def test_paper_ordering(manifest):
    assert m.paper_ordering_holds(m.savings(manifest))
    assert not m.paper_ordering_holds({"esteem": 5.0, "rpv": 8.0})
    assert not m.paper_ordering_holds({"esteem": 5.0, "rpv": 0.0})
