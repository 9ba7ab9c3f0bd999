"""Record the reference result digests the benchmark checks against.

Usage (from the repository root)::

    python3 perfbench/record_references.py 0-31

Runs one cold campaign per workload family and seed, checks it (clean
sweep, hygiene, the paper's ordering), and stores the digest of every
unit's serialised comparisons and of the per-technique rollup in
``references.json``.  Existing entries for other seeds are kept.  Re-run
it only when a change is *meant* to alter simulated results, and say so
in the change: a benchmark run whose digests differ from the stored ones
counts those units as failed.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        stored = json.loads(run.REFERENCE_PATH.read_text())
    except FileNotFoundError:
        stored = {}
    if stored.get("instructions_per_core") != run.INSTRUCTIONS:
        stored = {"instructions_per_core": run.INSTRUCTIONS, "families": {}}
    run.become_subreaper()
    families = {w.family: w for w in run.WORKLOADS.values()}
    work = run.ROOT / ".perfbench-work" / "record"
    try:
        for seed in parse_seeds(argv[0]):
            for family, workload in sorted(families.items()):
                c = run.run_campaign(workload, seed, work, traced=False)
                failed, problems = run.check_campaign(c, workload.units, None, None)
                if failed:
                    print(f"{family} seed {seed}: {'; '.join(problems)}",
                          file=sys.stderr)
                    return 1
                stored["families"].setdefault(family, {})[str(seed)] = c.digests
                print(f"{family} seed {seed}: {c.wall_s:.2f} s, "
                      f"rollup {c.digests['rollup']}", flush=True)
                run.REFERENCE_PATH.write_text(
                    json.dumps(stored, indent=1, sort_keys=True) + "\n"
                )
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
