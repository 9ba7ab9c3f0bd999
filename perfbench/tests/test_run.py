"""The benchmark runner: metric coverage, checks and the bare-directory exit."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from test_metrics import manifest  # noqa: F401  (fixture)

SPEC = json.loads(run.SPEC_PATH.read_text())


def campaign(manifest, traced=False, **overrides):
    units = [
        {"comparisons": [{"workload": w, "technique": "rpv"}]}
        for w in manifest["workloads"]
    ]
    fields = dict(
        traced=traced, exit_code=0, wall_s=5.0, peak_rss_mb=150.0,
        survivors=0, leaked_segments=0, cache_entries=len(units),
        manifest=manifest, digests=run.m.result_digests(units, manifest),
    )
    fields.update(overrides)
    return run.Campaign(**fields)


def test_every_declared_metric_is_computed(manifest):
    e2e = run.end_to_end([campaign(manifest)])
    assert set(e2e) == {s["name"] for s in SPEC["end_to_end"]}
    assert e2e["sim_minstr_per_s"] == pytest.approx(6e6 / 5.0 / 1e6)
    # Pooled over every attempt of the run: 2, 1, 2, 0.5 and 1, 1, 1, 1.
    other = copy.deepcopy(manifest)
    for e in other["timeline"][1:]:
        e["wall_s"] = 1.0
    pooled = run.end_to_end([campaign(manifest), campaign(other)])
    assert pooled["unit_s_p50"] == 1.0
    layer = run.per_layer(
        [campaign(manifest), campaign(manifest, traced=True, wall_s=6.0)], jobs=2
    )
    layer.update({"unit_failure_share": 0.0, "experiments.units": 5.0})
    assert set(layer) == {s["name"] for s in SPEC["per_layer"]}
    assert layer["obs.tracing_overhead"] == pytest.approx(1.2)


def test_spec_workloads_match_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert any(s["name"] == "setup_s" for s in SPEC["end_to_end"])


def test_clean_campaign_passes(manifest):
    c = campaign(manifest)
    assert run.check_campaign(c, 5, c.digests, c.digests) == (0, [])


def test_hygiene_and_failures_are_counted(manifest):
    bad = copy.deepcopy(manifest)
    bad["failed"] = [{"workload": "a"}]
    c = campaign(bad, survivors=1, leaked_segments=2, cache_entries=4)
    failed, problems = run.check_campaign(c, 5, None, None)
    assert failed == 5  # 1 failed + 1 missing entry + 2 segments + 1 group
    assert len(problems) == 4


def test_wrong_result_and_ordering_are_counted(manifest):
    c = campaign(manifest)
    reference = copy.deepcopy(c.digests)
    reference["units"]["c"] = "0" * 16
    c.manifest = copy.deepcopy(manifest)
    c.manifest["aggregates"]["esteem"]["energy_saving_pct"] = 1.0
    failed, problems = run.check_campaign(c, 5, reference, None)
    assert failed == 2
    assert "reference: c" in problems[0]
    assert "ordering" in problems[1]


def test_missing_manifest_fails_every_unit():
    c = run.Campaign(False, 1, 1.0, 10.0, 0, 0, 0)
    failed, _ = run.check_campaign(c, 17, None, None)
    assert failed == 17


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-dual-40us",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench-work").exists()


def test_git_commit_reads_checkout_without_git(tmp_path, monkeypatch):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("abc123 refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_commit() == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_commit() == "def456"
    shutil.rmtree(git)
    assert run.git_commit() == "unknown"


def test_no_usable_campaign_yields_no_metrics():
    broken = [run.Campaign(False, 1, 1.0, 10.0, 0, 0, 0),
              run.Campaign(True, 1, 1.0, 10.0, 0, 0, 0)]
    assert run.end_to_end(broken) == {}
    assert run.per_layer(broken, jobs=2) == {}


def test_resource_tracker_leak_warning_is_counted():
    log = (
        "resource_tracker.py:254: UserWarning: resource_tracker: There "
        "appear to be 2 leaked shared_memory objects to clean up at shutdown"
    )
    assert [int(n) for n in run.TRACKER_LEAK.findall(log)] == [2]
