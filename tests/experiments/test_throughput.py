"""Unit tests for the throughput bench module (gating logic + record).

The measurement itself is exercised end to end by ``repro bench
--update`` in the CLI tests and by ``repro bench`` in CI; here the gate
arithmetic is pinned with synthetic measurements so a regression in the
rules (not the machine) is caught at unit speed.
"""

from repro.experiments.throughput import (
    BATCH_SPEEDUP_FLOOR,
    check,
    make_record,
)


def _row(
    minstr=50.0,
    batch_speedup=1.5,
    ref_speedup=2.0,
):
    return {
        "batch_seconds": 0.2,
        "scalar_seconds": 0.2 * batch_speedup,
        "reference_seconds": 0.2 * ref_speedup,
        "minstr_per_s": minstr,
        "batch_speedup_vs_scalar": batch_speedup,
        "speedup_vs_reference": ref_speedup,
        "kernel_batch_records": 1000,
        "kernel_scalar_records": 0,
    }


def _current(**overrides):
    rows = {
        "baseline": _row(minstr=90.0, batch_speedup=1.7, ref_speedup=2.6),
        "rpv": _row(minstr=40.0, batch_speedup=1.4, ref_speedup=1.9),
        "esteem": _row(minstr=55.0, batch_speedup=1.0, ref_speedup=1.7),
    }
    rows.update(overrides)
    return {
        "workload": "sphinx",
        "instructions": 24_000_000,
        "techniques": rows,
        "best_batch_speedup_vs_scalar": max(
            r["batch_speedup_vs_scalar"] for r in rows.values()
        ),
    }


BASELINE = _current()


class TestCheck:
    def test_identical_measurement_passes(self):
        assert check(_current(), BASELINE) == []

    def test_batch_floor_is_max_over_techniques(self):
        # One technique below the floor is fine as long as another clears
        # it; all techniques below 1.3x must fail.
        ok = _current(
            baseline=_row(minstr=90.0, batch_speedup=1.31, ref_speedup=2.6),
            rpv=_row(minstr=40.0, batch_speedup=0.9, ref_speedup=1.9),
            esteem=_row(minstr=55.0, batch_speedup=0.9, ref_speedup=1.7),
        )
        assert check(ok, BASELINE) == []
        bad = _current(
            baseline=_row(minstr=90.0, batch_speedup=1.1, ref_speedup=2.6),
            rpv=_row(minstr=40.0, batch_speedup=1.2, ref_speedup=1.9),
            esteem=_row(minstr=55.0, batch_speedup=0.9, ref_speedup=1.7),
        )
        failures = check(bad, BASELINE)
        assert len(failures) == 1
        assert f"{BATCH_SPEEDUP_FLOOR:.1f}x floor" in failures[0]

    def test_reference_speedup_floor_per_technique(self):
        # Recorded baseline 2.6x -> floor max(1.5, 1.3) = 1.5x.
        bad = _current(
            baseline=_row(minstr=90.0, batch_speedup=1.7, ref_speedup=1.2)
        )
        failures = check(bad, BASELINE)
        assert any("baseline" in f and "reference" in f for f in failures)

    def test_absolute_rate_tolerance(self):
        bad = _current(rpv=_row(minstr=25.0, batch_speedup=1.4, ref_speedup=1.9))
        failures = check(bad, BASELINE, tolerance=0.25)
        assert any("rpv" in f and "Minstr/s" in f for f in failures)
        # A generous tolerance forgives the same drop.
        assert check(bad, BASELINE, tolerance=0.5) == []

    def test_unknown_technique_rows_are_ignored(self):
        current = _current()
        current["techniques"]["ecc"] = _row(minstr=1.0, ref_speedup=1.0)
        current["best_batch_speedup_vs_scalar"] = 1.7
        assert check(current, BASELINE) == []


class TestConstructionGate:
    ROW = {
        "prefill_ms": 4.0,
        "clone_ms": 0.5,
        "export_batch_state_ms": 3.0,
        "prefill_over_clone": 8.0,
    }

    def with_construction(self, **overrides):
        current = _current()
        current["construction"] = dict(self.ROW, **overrides)
        return current

    def test_identical_construction_passes(self):
        base = self.with_construction()
        assert check(self.with_construction(), base) == []

    def test_slower_clone_fails_the_ratio(self):
        base = self.with_construction()
        slow = self.with_construction(clone_ms=1.0, prefill_over_clone=4.0)
        failures = check(slow, base, tolerance=0.25)
        assert len(failures) == 1
        assert "prefill/clone" in failures[0]
        assert check(slow, base, tolerance=0.6) == []

    def test_record_without_construction_is_not_gated(self):
        assert check(self.with_construction(prefill_over_clone=0.1), BASELINE) == []


class TestMakeRecord:
    def test_record_shape(self):
        record = make_record(_current())
        assert "bench_end_to_end_simulation_rate" in record
        assert "machine" in record
        inner = record["bench_end_to_end_simulation_rate"]
        assert set(inner["techniques"]) == {"baseline", "rpv", "esteem"}


class TestRpvRatioGate:
    def with_ratio(self, ratio):
        current = _current()
        current["rpv_over_baseline"] = ratio
        return current

    def test_equal_ratio_passes(self):
        assert check(self.with_ratio(2.0), self.with_ratio(2.0)) == []

    def test_faster_rpv_passes(self):
        assert check(self.with_ratio(1.2), self.with_ratio(2.0)) == []

    def test_ratio_may_rise_at_most_tolerance(self):
        base = self.with_ratio(2.0)
        assert check(self.with_ratio(2.49), base, tolerance=0.25) == []
        failures = check(self.with_ratio(2.6), base, tolerance=0.25)
        assert len(failures) == 1
        assert "rpv" in failures[0] and "2.00x" in failures[0]
        assert check(self.with_ratio(2.6), base, tolerance=0.4) == []

    def test_record_without_ratio_is_not_gated(self):
        assert check(self.with_ratio(9.0), BASELINE) == []
