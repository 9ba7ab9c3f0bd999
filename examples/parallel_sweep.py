#!/usr/bin/env python
"""Scenario: a multi-core parameter sweep using all local CPUs.

Sweeps ESTEEM against RPV over a workload list on the resilient sweep
driver (``repro.experiments.parallel.resilient_sweep``, the engine behind
``repro sweep`` and ``repro figure``), the way one would drive the full
34-workload evaluation on a many-core workstation.

Usage::

    python examples/parallel_sweep.py [jobs] [instructions]
"""

from __future__ import annotations

import os
import sys
import time

from repro import SimConfig
from repro.experiments.figures import figure_rows
from repro.experiments.parallel import resilient_sweep
from repro.experiments.report import format_table
from repro.experiments.runner import Runner, aggregate

WORKLOADS = [
    "gamess", "gobmk", "h264ref", "hmmer", "sphinx",
    "dealII", "libquantum", "mcf",
]


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else (os.cpu_count() or 2)
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 3_000_000
    config = SimConfig.scaled(instructions_per_core=instructions)

    t0 = time.perf_counter()
    result = resilient_sweep(config, WORKLOADS, ("esteem", "rpv"), jobs=jobs)
    t_par = time.perf_counter() - t0
    if result.degraded:
        raise SystemExit(
            f"sweep degraded: {[f.workload for f in result.failed]}"
        )
    parallel = result.comparisons

    t0 = time.perf_counter()
    runner = Runner(config)
    runner.compare_many(WORKLOADS, "esteem")
    runner.compare_many(WORKLOADS, "rpv")
    t_seq = time.perf_counter() - t0

    rows = [
        [r.workload, r.esteem_energy_saving_pct, r.esteem_weighted_speedup,
         r.rpv_energy_saving_pct, r.rpv_weighted_speedup]
        for r in figure_rows(parallel)
    ]
    es = aggregate(parallel["esteem"])
    rpv = aggregate(parallel["rpv"])
    rows.append(["AVERAGE", es.energy_saving_pct, es.weighted_speedup,
                 rpv.energy_saving_pct, rpv.weighted_speedup])
    print(
        format_table(
            ["workload", "ES sav%", "ES WS", "RPV sav%", "RPV WS"],
            rows,
            title=f"parallel sweep over {len(WORKLOADS)} workloads",
        )
    )
    print(
        f"\nwall-clock: parallel ({jobs} jobs) {t_par:.1f}s  "
        f"vs sequential {t_seq:.1f}s  -> {t_seq / t_par:.1f}x speedup"
    )


if __name__ == "__main__":
    main()
