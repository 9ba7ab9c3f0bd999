"""Paper-campaign benchmark: cold ``repro sweep`` campaigns timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig3-single-50us --seed 1 \
        --seconds 36 --trace 0

One run repeats the workload's campaign -- a fresh ``repro sweep``
process with an empty ``--cache-dir``, a ``--manifest`` and ``--jobs``
equal to the usable CPU count -- as often as fits in ``--seconds`` (at
least :data:`MIN_REPEATS` times), and reports medians.  Every number
is read from outside the program: the process wall clock, the child's
``ru_maxrss`` and the manifest the sweep writes.  With ``--trace 1`` each
repetition is a pair: the same untraced campaign plus a traced one
driven through :mod:`layers`, and the run reports the per-layer metrics.

Every campaign is checked: its result digests against the stored
reference for the seed (``references.json``), against the run's other
campaigns (the traced campaign against the untraced one), the paper's
ordering ESTEEM saving > RPV saving > 0, and hygiene -- no leaked
``/dev/shm`` segment, no surviving worker process, one result-cache
entry per unit.  The last stdout line is the JSON result; the exit code
is 0 only when every check passed.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import metrics as m

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "references.json"

#: Simulated instructions per core for every campaign.  At 1M, ESTEEM's
#: Fig 3 saving is about twice RPV's (at 500k they are within a point,
#: too close for the ordering check), and a cold campaign takes 6-9 s on
#: a 2-core host, so one run holds four or five.
INSTRUCTIONS = 1_000_000
#: ``-t rpv esteem``: baseline runs once per unit, implicitly.
TECHNIQUES = ("rpv", "esteem")
#: Fewest repetitions per run: campaigns with ``--trace 0``, pairs with 1.
MIN_REPEATS = {0: 3, 1: 2}
#: A campaign still running after this is killed and counted failed; the
#: run then stops, so it ends well within its 180 s limit.
CAMPAIGN_TIMEOUT_S = 60.0
#: Name prefix of POSIX shared-memory segments Python creates unnamed.
SHM_PREFIX = "psm_"
#: What the multiprocessing resource tracker prints when it unlinks
#: segments the sweep left behind: such a leak never reaches /dev/shm.
TRACKER_LEAK = re.compile(r"There appear to be (\d+) leaked shared_memory objects")
#: How long a campaign's helper processes (the multiprocessing resource
#: tracker) may take to exit after the sweep process has.
GRACE_S = 2.0
PR_SET_CHILD_SUBREAPER = 36


@dataclass(frozen=True)
class Workload:
    #: Campaigns with equal inputs share a family, and so a reference.
    family: str
    units: int
    args: tuple[str, ...]


WORKLOADS: dict[str, Workload] = {
    "fig3-single-50us": Workload(
        "fig3-single-50us", 34, ("--cores", "1", "--retention", "50")
    ),
    "fig6-dual-40us": Workload(
        "fig6-dual-40us", 17, ("--cores", "2", "--retention", "40")
    ),
    "fig3-single-50us-traced": Workload(
        "fig3-single-50us", 34,
        ("--cores", "1", "--retention", "50", "--trace-events", "4096"),
    ),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sweep_args(workload: Workload, seed: int, cache: Path, manifest: Path) -> list[str]:
    return [
        "sweep", "-q", "-t", *TECHNIQUES,
        "--instructions", str(INSTRUCTIONS),
        "--seed", str(seed),
        "--jobs", str(nproc()),
        "--cache-dir", str(cache),
        "--manifest", str(manifest),
        *workload.args,
    ]


# ----------------------------------------------------------------------
# One campaign
# ----------------------------------------------------------------------


@dataclass
class Campaign:
    traced: bool
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    survivors: int
    leaked_segments: int
    cache_entries: int
    manifest: dict[str, Any] | None = None
    digests: dict[str, Any] | None = None
    parent_counters: dict[str, float] = field(default_factory=dict)


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def become_subreaper() -> None:
    """Let orphans of a campaign reparent to this process.

    It can then reap them and see them exit at once, instead of waiting
    for the system's init to reap them.  Best effort: without it, the
    grace period in :func:`stop_group` still applies.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _reap_orphans() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_alive(pgid: int) -> bool:
    _reap_orphans()
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def stop_group(pgid: int, grace_s: float = GRACE_S) -> int:
    """1 if the campaign's process group outlives ``grace_s`` after the
    sweep exited (it is then killed and reaped), else 0."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() >= deadline:
            _kill_group(pgid)
            deadline = time.monotonic() + 10.0
            while _group_alive(pgid) and time.monotonic() < deadline:
                time.sleep(0.01)
            return 1
        time.sleep(0.005)
    return 0


def run_campaign(workload: Workload, seed: int, work: Path, traced: bool) -> Campaign:
    """Launch one cold sweep process and observe it from outside."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cache, manifest_path = work / "cache", work / "manifest.json"
    parent_path = work / "parent.json"
    args = sweep_args(workload, seed, cache, manifest_path)
    if traced:
        cmd = [sys.executable, str(HERE / "layers.py"), str(parent_path), "--", *args]
    else:
        cmd = [sys.executable, "-m", "repro", *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    before = shm_segments()
    with open(work / "sweep.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        watchdog = threading.Timer(CAMPAIGN_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    survivors = stop_group(proc.pid)
    log_text = (work / "sweep.log").read_text(errors="replace")
    tracker_leaks = sum(int(n) for n in TRACKER_LEAK.findall(log_text))
    campaign = Campaign(
        traced=traced,
        exit_code=proc.returncode,
        wall_s=wall,
        # Linux reports ru_maxrss in KiB: the largest of the sweep
        # process and every worker it reaped.
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        survivors=survivors,
        leaked_segments=len(shm_segments() - before) + tracker_leaks,
        cache_entries=len(list(cache.iterdir())) if cache.is_dir() else 0,
    )
    if proc.returncode == 0 and manifest_path.is_file():
        campaign.manifest = json.loads(manifest_path.read_text())
        entries = [json.loads(p.read_text()) for p in sorted(cache.glob("*.json"))]
        campaign.digests = m.result_digests(entries, campaign.manifest)
    if traced and parent_path.is_file():
        campaign.parent_counters = json.loads(parent_path.read_text())
    return campaign


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def load_reference(family: str, seed: int) -> dict[str, Any] | None:
    try:
        stored = json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return None
    if stored.get("instructions_per_core") != INSTRUCTIONS:
        return None
    return stored["families"].get(family, {}).get(str(seed))


def check_campaign(
    c: Campaign,
    units: int,
    reference: dict[str, Any] | None,
    first: dict[str, Any] | None,
) -> tuple[int, list[str]]:
    """(units counted failed, problems) for one campaign.

    ``first`` is the digest set of the run's first campaign: every
    campaign of a run has the same inputs, so a traced campaign must
    match the untraced one (observation independence).
    """
    problems: list[str] = []
    if c.manifest is None or c.digests is None:
        return units, [f"sweep exited {c.exit_code} without a usable manifest"]
    bad = m.failed_units(c.manifest)
    if bad:
        problems.append(f"{bad} unit(s) failed, quarantined or skipped")
    if c.cache_entries != units:
        bad += abs(c.cache_entries - units)
        problems.append(f"{c.cache_entries} cache entries for {units} units")
    if c.leaked_segments:
        bad += c.leaked_segments
        problems.append(f"{c.leaked_segments} leaked shared-memory segment(s)")
    if c.survivors:
        bad += c.survivors
        problems.append("worker processes outlived the sweep")
    for label, expected in (("reference", reference), ("first campaign", first)):
        if expected is None:
            continue
        wrong = m.mismatched_units(c.digests, expected)
        if wrong:
            bad += len(wrong)
            problems.append(f"results differ from the {label}: {', '.join(wrong[:5])}")
    saving = m.savings(c.manifest)
    if not m.paper_ordering_holds(saving):
        bad += 1
        problems.append(f"paper ordering ESTEEM > RPV > 0 violated: {saving}")
    return min(bad, units), problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _median_of(rows: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise median; empty when no campaign produced a manifest."""
    return {k: statistics.median(r[k] for r in rows) for k in (rows[:1] or [{}])[0]}


def end_to_end(campaigns: list[Campaign]) -> dict[str, float]:
    done = [c for c in campaigns if c.manifest is not None]
    rows = [
        {
            "campaign_s": c.wall_s,
            "setup_s": m.setup_s(c.manifest),
            "sim_minstr_per_s": m.instructions(c.manifest) / c.wall_s / 1e6,
            "peak_rss_mb": c.peak_rss_mb,
        }
        for c in done
    ]
    out = _median_of(rows)
    if done:
        # The median over every attempt of the run, not a median of
        # per-campaign medians: steadier, and the same statistic.
        out["unit_s_p50"] = statistics.median(
            e["wall_s"] for c in done for e in m.attempts(c.manifest)
        )
    return out


def per_layer(campaigns: list[Campaign], jobs: int) -> dict[str, float]:
    plain = [c for c in campaigns if not c.traced and c.manifest is not None]
    traced = [c for c in campaigns if c.traced and c.manifest is not None]
    out = _median_of([m.manifest_metrics(c.manifest, jobs) for c in plain])
    out.update(
        _median_of([m.layer_metrics(c.manifest, c.parent_counters) for c in traced])
    )
    if plain and traced:
        untraced_s = statistics.median(c.wall_s for c in plain)
        traced_s = statistics.median(c.wall_s for c in traced)
        out["obs.untraced_campaign_s"] = untraced_s
        out["obs.traced_campaign_s"] = traced_s
        out["obs.tracing_overhead"] = traced_s / untraced_s
    return out


# ----------------------------------------------------------------------
# Environment and output
# ----------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict[str, Any]:
    import numpy

    return {
        "nproc": nproc(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "instructions_per_core": INSTRUCTIONS,
        "techniques": ["baseline", *TECHNIQUES],
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    workload = WORKLOADS[args.workload]
    jobs = nproc()
    become_subreaper()
    reference = load_reference(workload.family, args.seed)
    print("env:", json.dumps(environment(args.workload, args.seed), sort_keys=True))
    print(f"reference for seed {args.seed}: {'stored' if reference else 'none'}")

    work_root = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    campaigns: list[Campaign] = []
    attempted = failed = 0
    first: dict[str, Any] | None = None
    start = time.monotonic()
    repeats: list[float] = []
    try:
        # Start another repetition only if a typical one still ends
        # within --seconds, so a run lasts --seconds, not one more.  A
        # failure already decides the run, so stop there.
        while failed == 0 and (
            len(repeats) < MIN_REPEATS[args.trace]
            or time.monotonic() - start + statistics.median(repeats) <= args.seconds
        ):
            began = time.monotonic()
            for traced in ((False, True) if args.trace else (False,)):
                c = run_campaign(workload, args.seed, work_root / "campaign", traced)
                bad, problems = check_campaign(c, workload.units, reference, first)
                if first is None and c.digests is not None:
                    first = c.digests
                attempted += workload.units
                failed += bad
                campaigns.append(c)
                saving = m.savings(c.manifest) if c.manifest else {}
                print(
                    f"campaign {len(campaigns)} {'traced' if traced else 'untraced'}: "
                    f"{c.wall_s:.3f} s, exit {c.exit_code}, "
                    + ", ".join(f"{t} saving {v:.4f}%" for t, v in sorted(saving.items()))
                    + (f" | FAILED: {'; '.join(problems)}" if problems else " | checks ok")
                )
            repeats.append(time.monotonic() - began)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass

    values = end_to_end([c for c in campaigns if not c.traced])
    if args.trace:
        values.update(per_layer(campaigns, jobs))
    values["unit_failure_share"] = failed / attempted
    values["experiments.units"] = float(attempted)
    section = spec["per_layer" if args.trace else "end_to_end"]
    missing = [s["name"] for s in section if s["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for s in section:
        print(f"{s['name']:32s} {values[s['name']]:16.6f} {s['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in section
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
