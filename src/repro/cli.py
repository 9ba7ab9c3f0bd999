"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands::

    repro list                          # workloads, mixes, techniques
    repro run -w h264ref -t esteem      # one comparison against the baseline
    repro run -w GkNe -t esteem --cores 2
    repro figure 3                      # regenerate a figure's series
    repro table 3 --system single      # regenerate Table 3 rows
    repro overhead --sets 4096 --ways 16 --modules 16   # Eq. 1
    repro trace -w h264ref -t esteem --format jsonl     # event trace dump
    repro sweep -w gamess,povray --resume --inject PLAN.json  # resilient sweep
    repro report MANIFEST.json --check  # campaign report + regression gate
    repro bench -v                      # throughput bench + regression gate

All experiment subcommands accept ``--instructions`` (trace scale),
``--retention`` (us), and the ESTEEM knobs (``--alpha``, ``--a-min``,
``--modules``, ``--interval``, ``--sampling-ratio``), plus the
observability flags ``--profile`` (span timing report on stderr) and
``-q``/``--quiet`` (suppress the progress + ETA lines sweeps print).

Sweep-shaped subcommands (``sweep``, ``figure``) consult a
content-addressed result cache so unchanged units are never re-simulated;
``--no-cache`` disables it and ``--cache-dir`` relocates it (default:
``$REPRO_CACHE_DIR`` or ``~/.cache/repro/results``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import Sequence

from repro.config import SimConfig
from repro.energy.model import counter_overhead_percent
from repro.experiments.figures import fig2_reconfiguration_timeline, figure_rows
from repro.experiments.parallel import resilient_sweep
from repro.experiments.report import format_table
from repro.experiments.runner import Runner, aggregate
from repro.experiments.supervise import EXECUTORS
from repro.experiments.tables import SENSITIVITY_VARIANTS, sensitivity_row
from repro.obs import ProgressReporter
from repro.timing.system import TECHNIQUES
from repro.workloads.multiprog import DUAL_CORE_MIXES
from repro.workloads.profiles import ALL_BENCHMARKS

__all__ = ["main"]


def _int_at_least(minimum: int):
    """argparse ``type=`` for an integer flag with a lower bound."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse ``type=`` for a strictly positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", type=int, default=1, choices=(1, 2))
    parser.add_argument("--retention", type=float, default=50.0,
                        help="retention period in microseconds")
    parser.add_argument("--instructions", type=int, default=8_000_000,
                        help="instructions simulated per core")
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--a-min", type=int, default=None, dest="a_min")
    parser.add_argument("--modules", type=int, default=None)
    parser.add_argument("--interval", type=int, default=None,
                        help="reconfiguration interval in cycles")
    parser.add_argument("--sampling-ratio", type=int, default=None,
                        dest="sampling_ratio")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="worker processes for workload sweeps")
    parser.add_argument("--cache-dir", default=None, dest="cache_dir",
                        metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/results)")
    parser.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="neither read nor write the sweep result cache")
    parser.add_argument("--profile", action="store_true",
                        help="print a wall/CPU-time span report on stderr")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress stderr progress output")


def _build_config(args: argparse.Namespace) -> SimConfig:
    cfg = SimConfig.scaled(
        num_cores=args.cores,
        retention_us=args.retention,
        instructions_per_core=args.instructions,
    )
    overrides = {
        name: getattr(args, name)
        for name in ("alpha", "a_min", "modules", "interval", "sampling_ratio")
        if getattr(args, name) is not None
    }
    if "modules" in overrides:
        overrides["num_modules"] = overrides.pop("modules")
    if "interval" in overrides:
        overrides["interval_cycles"] = overrides.pop("interval")
    return cfg.with_esteem(**overrides) if overrides else cfg


def _cmd_list(_args: argparse.Namespace) -> int:
    print("techniques:", ", ".join(TECHNIQUES))
    print("\nsingle-core workloads (Table 1):")
    rows = [
        [b.acronym, b.name, b.suite, f"{b.l2_apki:.1f}",
         b.max_ws_lines, "yes" if b.is_nonlru else "no"]
        for b in ALL_BENCHMARKS
    ]
    print(format_table(
        ["acr", "name", "suite", "L2 APKI", "max WS lines", "non-LRU"], rows
    ))
    print("\ndual-core mixes (Table 1):")
    print(format_table(
        ["acronym", "benchmarks"],
        [[m.acronym, m.name] for m in DUAL_CORE_MIXES],
    ))
    return 0


def _result_cache(args: argparse.Namespace):
    """The ResultCache selected by ``--cache-dir``/``--no-cache``.

    Returns ``None`` when caching is disabled.  Subcommands without the
    cache flags (e.g. ``run``) fall through to ``None`` too.
    """
    if getattr(args, "no_cache", False) or not hasattr(args, "no_cache"):
        return None
    from repro.experiments.result_cache import ResultCache, default_cache_dir

    root = getattr(args, "cache_dir", None)
    return ResultCache(root if root else default_cache_dir())


def _make_profiler(args: argparse.Namespace):
    """A Profiler when ``--profile`` was given, else None."""
    if not getattr(args, "profile", False):
        return None
    from repro.obs import Profiler

    return Profiler()


def _finish_profile(profiler) -> None:
    if profiler is not None:
        profiler.report(sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _build_config(args)
    profiler = _make_profiler(args)
    runner = Runner(config, seed=args.seed, profiler=profiler)
    rows = []
    for technique in args.technique:
        if technique == "baseline":
            continue
        c = runner.compare(args.workload, technique)
        rows.append(
            [technique, c.energy_saving_pct, c.weighted_speedup,
             c.fair_speedup, c.rpki_decrease, c.mpki_increase,
             c.active_ratio_pct]
        )
    base = runner.baseline(args.workload)
    print(
        f"workload {args.workload}: baseline IPC="
        + "/".join(f"{ipc:.3f}" for ipc in base.ipcs)
        + f", L2 miss rate {base.l2_miss_rate:.1%}, RPKI {base.rpki:.0f}"
    )
    print(format_table(
        ["technique", "saving %", "WS", "FS", "dRPKI", "dMPKI", "active %"],
        rows,
        title=f"techniques vs periodic-all baseline ({args.workload})",
    ))
    _finish_profile(profiler)
    return 0


def _workload_list(args: argparse.Namespace, num_cores: int) -> list[str]:
    """``--workloads`` if given, else every Table 1 workload (or mix)."""
    if args.workloads:
        return args.workloads.split(",")
    if num_cores == 1:
        return [b.name for b in ALL_BENCHMARKS]
    return [m.acronym for m in DUAL_CORE_MIXES]


def _report_outcome(result, resume_hint: bool) -> int:
    """Print a sweep's QUARANTINED/SKIPPED/DEGRADED/INTERRUPTED report.

    ``resume_hint`` adds the "rerun with --resume" advice, which only
    ``repro sweep`` can follow (``repro figure`` has no checkpoint).
    Returns the exit status: 4 for an interrupted sweep, 3 for a degraded
    one, 0 for a complete one.
    """
    if result.quarantined:
        print(
            f"QUARANTINED: {len(result.quarantined)} poison workload(s) "
            f"pulled from the run queue:",
            file=sys.stderr,
        )
        for q in result.quarantined:
            print(
                f"  {q.workload}: [{q.exc_type}] killed {q.workers} "
                f"distinct worker(s) over {q.attempts} attempt(s)",
                file=sys.stderr,
            )
    if result.skipped:
        hint = "; rerun with --resume to finish them" if resume_hint else ""
        print(
            f"SKIPPED: {len(result.skipped)} workload(s) cancelled "
            f"({result.skipped[0].reason}){hint}:",
            file=sys.stderr,
        )
        for s in result.skipped:
            print(f"  {s.workload}: skipped-{s.reason}", file=sys.stderr)
    if result.failed:
        print(
            f"DEGRADED: {len(result.failed)} workload(s) lost after "
            f"{result.attempts} attempts ({result.retries} retries):",
            file=sys.stderr,
        )
        for f in result.failed:
            print(
                f"  {f.workload}: [{f.exc_type}] after {f.attempts} "
                f"attempt(s)",
                file=sys.stderr,
            )
    if result.interrupted:
        # Interrupted wins over degraded: the operator asked the
        # campaign to stop, and the distinct code tells wrappers the
        # checkpoint is resumable rather than the sweep broken.
        hint = (
            ": checkpoint and manifest flushed; rerun with --resume to finish"
            if resume_hint
            else ""
        )
        print(f"INTERRUPTED by {result.interrupted}{hint}", file=sys.stderr)
        return 4
    return 3 if result.degraded else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate a paper figure.

    Figure 2 runs one ESTEEM simulation in process.  Figures 3-6 are a
    (workload x {ESTEEM, RPV}) campaign on :func:`resilient_sweep`, with
    the core count and retention fixed by the figure number; the exit
    status follows ``repro sweep`` (3 when degraded, 4 when interrupted).
    """
    profiler = _make_profiler(args)
    if args.number == 2:
        runner = Runner(_build_config(args), seed=args.seed, profiler=profiler)
        _result, points = fig2_reconfiguration_timeline(runner, args.workload)
        rows = [
            [p.interval, p.active_ratio_pct, " ".join(map(str, p.ways_per_module))]
            for p in points
        ]
        print(format_table(
            ["interval", "active %", "ways per module"], rows,
            title=f"Figure 2: ESTEEM reconfiguration of {args.workload}",
        ))
        _finish_profile(profiler)
        return 0

    args.cores = 2 if args.number in (4, 6) else 1
    args.retention = 40.0 if args.number in (5, 6) else 50.0
    config = _build_config(args)
    span = (
        profiler.span(f"figure:{args.number}") if profiler is not None
        else nullcontext()
    )
    with span:
        result = resilient_sweep(
            config,
            _workload_list(args, args.cores),
            ("esteem", "rpv"),
            seed=args.seed,
            jobs=args.jobs,
            progress=ProgressReporter(
                0, label=f"figure{args.number}", enabled=not args.quiet
            ),
            cache=_result_cache(args),
        )
    raw = result.comparisons
    if result.completed:
        table = [
            [r.workload, r.esteem_energy_saving_pct, r.rpv_energy_saving_pct,
             r.esteem_weighted_speedup, r.rpv_weighted_speedup]
            for r in figure_rows(raw)
        ]
        es, rpv = aggregate(raw["esteem"]), aggregate(raw["rpv"])
        table.append(["AVERAGE", es.energy_saving_pct, rpv.energy_saving_pct,
                      es.weighted_speedup, rpv.weighted_speedup])
        print(format_table(
            ["workload", "ES sav%", "RPV sav%", "ES WS", "RPV WS"],
            table,
            title=f"Figure {args.number}: {args.cores}-core, "
                  f"{args.retention:.0f}us retention",
        ))
        if args.csv:
            from repro.experiments.export import write_comparisons_csv

            path = write_comparisons_csv(raw["esteem"] + raw["rpv"], args.csv)
            print(f"CSV written to {path}")
    _finish_profile(profiler)
    return _report_outcome(result, resume_hint=False)


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 2:
        from repro.energy.params import EDRAM_ENERGY_TABLE

        rows = [
            [f"{size // (1024 * 1024)} MB", dyn * 1e9, leak]
            for size, (dyn, leak) in sorted(EDRAM_ENERGY_TABLE.items())
        ]
        print(format_table(
            ["size", "E_dyn (nJ/access)", "P_leak (W)"], rows,
            float_digits=3, title="Table 2: 16-way eDRAM cache energy values",
        ))
        return 0

    system = args.system
    cores = 1 if system == "single" else 2
    config = SimConfig.scaled(
        num_cores=cores, instructions_per_core=args.instructions
    )
    workloads = _workload_list(args, cores)
    profiler = _make_profiler(args)
    variants = SENSITIVITY_VARIANTS[system]
    rows = []
    reporter = ProgressReporter(
        len(variants), label=f"table3-{system}", enabled=not args.quiet
    )
    for variant in variants:
        if profiler is not None:
            with profiler.span(f"table3:{variant.label}"):
                agg = sensitivity_row(config, variant, workloads, seed=args.seed)
        else:
            agg = sensitivity_row(config, variant, workloads, seed=args.seed)
        rows.append(
            [variant.label, agg.energy_saving_pct, agg.weighted_speedup,
             agg.rpki_decrease, agg.mpki_increase, agg.active_ratio_pct]
        )
        reporter.advance(variant.label)
    print(format_table(
        ["row", "saving %", "WS", "dRPKI", "dMPKI", "active %"], rows,
        title=f"Table 3 ({system}-core)",
    ))
    _finish_profile(profiler)
    return 0


def _load_plan(args: argparse.Namespace):
    """The FaultPlan named by ``--inject``, or None.

    Raises ``SystemExit(2)`` with a stderr message on an unreadable or
    invalid plan file (a usage error, not a crash).
    """
    path = getattr(args, "inject", None)
    if not path:
        return None
    from repro.faults import FaultPlan

    try:
        return FaultPlan.load(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one (workload, technique) pair and dump its event trace."""
    from repro.obs import Tracer

    config = _build_config(args)
    tracer = Tracer(capacity=args.capacity)
    profiler = _make_profiler(args)
    runner = Runner(
        config,
        seed=args.seed,
        tracer=tracer,
        profiler=profiler,
        fault_plan=_load_plan(args),
    )
    result = runner.run(args.workload, args.technique)

    if args.format == "jsonl":
        text = tracer.to_jsonl() + ("\n" if len(tracer) else "")
    else:
        text = tracer.format_pretty()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(
                f"{len(tracer)} events written to {args.output}",
                file=sys.stderr,
            )
    else:
        sys.stdout.write(text)

    if not args.quiet:
        tally = ", ".join(
            f"{t}={n}" for t, n in sorted(tracer.tally().items())
        )
        dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
        print(
            f"trace: workload={args.workload} technique={args.technique} "
            f"intervals={result.intervals} events={len(tracer)}"
            f"{dropped} ({tally})",
            file=sys.stderr,
        )
    _finish_profile(profiler)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Resilient multi-workload sweep: timeouts, retries, checkpoint/resume.

    Exit status: 0 for a complete sweep, 3 for a *degraded* one (some
    workloads exhausted their retries, were quarantined as poison, or
    were skipped by a deadline; surviving results were still reported
    and checkpointed), 4 for an *interrupted* one (SIGINT/SIGTERM on the
    parent; the checkpoint was flushed and ``--resume`` finishes the
    rest bit-for-bit).
    """
    from repro.obs.campaign import CampaignDashboard

    config = _build_config(args)
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    workloads = _workload_list(args, config.num_cores)
    plan = _load_plan(args)
    cache = _result_cache(args)
    # The dashboard renders live on a TTY and degrades to the classic
    # line-per-unit reporter when stderr is a pipe (CI logs stay diffable).
    reporter = CampaignDashboard(0, label="sweep", enabled=not args.quiet)
    result = resilient_sweep(
        config,
        workloads,
        tuple(args.technique),
        seed=args.seed,
        jobs=args.jobs,
        timeout_s=args.timeout,
        retries=args.retries,
        backoff_s=args.backoff,
        checkpoint=args.checkpoint,
        resume=args.resume,
        plan=plan,
        progress=reporter,
        cache=cache,
        trace_events=args.trace_events,
        executor=args.executor,
        heartbeat_s=args.heartbeat,
        quarantine_after=args.quarantine_after,
        deadline_s=args.deadline,
    )

    rows = []
    for technique, comps in result.comparisons.items():
        if not comps:
            continue
        agg = aggregate(comps)
        rows.append(
            [technique, agg.workloads, agg.energy_saving_pct,
             agg.weighted_speedup, agg.rpki_decrease, agg.mpki_increase,
             agg.active_ratio_pct]
        )
    if rows:
        print(format_table(
            ["technique", "n", "saving %", "WS", "dRPKI", "dMPKI", "active %"],
            rows,
            title=f"sweep: {len(result.completed)}/{len(workloads)} workloads"
                  + (f" ({len(result.resumed)} resumed)" if result.resumed else "")
                  + (f" ({len(result.cached)} cached)" if result.cached else ""),
        ))
    if args.csv:
        from repro.experiments.export import write_comparisons_csv

        all_comps = [c for comps in result.comparisons.values() for c in comps]
        path = write_comparisons_csv(all_comps, args.csv)
        print(f"CSV written to {path}")
    if args.manifest:
        from repro.experiments.report import build_manifest
        from repro.util import atomic_write_json

        manifest = build_manifest(
            result, config, workloads, tuple(args.technique),
            seed=args.seed, plan=plan, cache=cache,
        )
        atomic_write_json(args.manifest, manifest)
        print(f"manifest written to {args.manifest}")
    code = _report_outcome(result, resume_hint=True)
    if code:
        return code
    if not args.quiet:
        print(
            f"sweep complete: {len(result.completed)} workload(s), "
            f"{result.attempts} attempt(s), {result.retries} retried",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a run manifest as markdown/CSV and optionally gate on it.

    Exit status: 2 for an unreadable or schema-invalid manifest, 1 when
    ``--check`` finds an internal inconsistency or a bench regression,
    0 otherwise.
    """
    import json
    from pathlib import Path

    from repro.experiments.report import (
        check_consistency,
        check_regressions,
        render_csv,
        render_markdown,
        validate_manifest,
    )

    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    schema_errors = validate_manifest(manifest)
    if schema_errors:
        for err in schema_errors:
            print(f"error: schema: {err}", file=sys.stderr)
        return 2

    checks = None
    consistency = None
    if args.check:
        consistency = check_consistency(manifest)

        def load_baseline(path, default):
            p = Path(path) if path else default
            if not p.exists():
                return None
            return json.loads(p.read_text(encoding="utf-8"))

        repo_root = Path(__file__).resolve().parents[2]
        throughput = load_baseline(
            args.bench_throughput, repo_root / "BENCH_throughput.json"
        )
        sweep = load_baseline(args.bench_sweep, repo_root / "BENCH_sweep.json")
        checks = check_regressions(
            manifest, throughput, sweep, tolerance=args.tolerance
        )

    if args.format == "csv":
        text = render_csv(manifest)
    else:
        text = render_markdown(manifest, checks=checks,
                               consistency=consistency)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"report written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)

    if args.check:
        failures = list(consistency or [])
        failures += checks[0]
        for msg in consistency or []:
            print(f"INCONSISTENT: {msg}", file=sys.stderr)
        for msg in checks[0]:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        if failures:
            return 1
        if not args.quiet:
            skipped, passed = checks[1], checks[2]
            print(
                f"check ok: {len(passed)} passed, {len(skipped)} skipped",
                file=sys.stderr,
            )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the end-to-end throughput bench and gate locally.

    The one entry point to the throughput gate (the CI bench-smoke job
    runs it too): per-technique batch/scalar/reference timings with the
    batch-kernel >= 1.3x floor.  Exit status 0 on pass, 1 on
    regression, 0 with a note when no baseline is recorded.
    """
    import json

    from repro.experiments.throughput import (
        BASELINE_PATH,
        check,
        make_record,
        measure,
    )

    profiler = _make_profiler(args)

    def on_row(technique, row):
        if args.verbose and not args.quiet:
            print(
                f"bench: {technique}: batch {row['batch_seconds']:.3f}s, "
                f"scalar {row['scalar_seconds']:.3f}s, reference "
                f"{row['reference_seconds']:.3f}s "
                f"({row['batch_speedup_vs_scalar']:.2f}x batch/scalar)",
                file=sys.stderr,
            )

    kwargs = {}
    if args.instructions is not None:
        kwargs["instructions"] = args.instructions
    if args.workload is not None:
        kwargs["workload"] = args.workload
    current = measure(
        rounds=args.rounds, profiler=profiler, on_row=on_row, **kwargs
    )
    rows = [
        [t, row["minstr_per_s"], row["batch_speedup_vs_scalar"],
         row["speedup_vs_reference"], row["kernel_batch_records"],
         row["kernel_scalar_records"]]
        for t, row in current["techniques"].items()
    ]
    print(format_table(
        ["technique", "Minstr/s", "batch/scalar", "vs reference",
         "batch recs", "scalar recs"],
        rows,
        title=(
            f"throughput: {current['workload']}, "
            f"{current['instructions']:,} instructions"
        ),
    ))
    _finish_profile(profiler)

    if args.update or not BASELINE_PATH.exists():
        from repro.util import atomic_write_json

        atomic_write_json(BASELINE_PATH, make_record(current))
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    failures = check(
        current,
        baseline["bench_end_to_end_simulation_rate"],
        tolerance=args.tolerance,
    )
    if failures:
        for f in failures:
            print("REGRESSION:", f, file=sys.stderr)
        return 1
    print(
        f"ok: batch kernel {current['best_batch_speedup_vs_scalar']:.2f}x "
        f"over the scalar fast loop"
    )
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    pct = counter_overhead_percent(args.sets, args.ways, args.modules)
    print(
        f"Eq. 1 overhead for S={args.sets}, A={args.ways}, "
        f"M={args.modules}: {pct:.4f}% of L2 capacity"
    )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import generate_trace

    profile = get_profile(args.workload)
    trace = generate_trace(profile, args.instructions, seed=args.seed)
    import collections

    gaps = trace.gaps
    reuse = collections.Counter()
    last_seen: dict[int, int] = {}
    distinct_between = 0
    for i, addr in enumerate(trace.addrs):
        prev = last_seen.get(addr)
        if prev is None:
            reuse["cold"] += 1
        else:
            d = i - prev
            if d <= 8:
                reuse["<=8"] += 1
            elif d <= 64:
                reuse["<=64"] += 1
            elif d <= 4096:
                reuse["<=4096"] += 1
            else:
                reuse[">4096"] += 1
        last_seen[addr] = i
    rows = [
        ["records", len(trace)],
        ["instructions", trace.instructions],
        ["L2 APKI", f"{len(trace) / trace.instructions * 1000:.2f}"],
        ["distinct lines", trace.distinct_lines()],
        ["footprint (paper scale)", trace.footprint_lines],
        ["write fraction", f"{trace.write_fraction:.3f}"],
        ["mean gap", f"{sum(gaps) / len(gaps):.1f}"],
        ["base CPI", trace.base_cpi],
        ["memory-level parallelism", trace.mem_mlp],
    ]
    for bucket in ("cold", "<=8", "<=64", "<=4096", ">4096"):
        rows.append(
            [f"reuse distance {bucket}",
             f"{reuse.get(bucket, 0) / len(trace):.1%}"]
        )
    print(format_table(["statistic", "value"], rows,
                       title=f"trace statistics: {args.workload}"))
    if args.save:
        trace.save(args.save)
        print(f"trace written to {args.save}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ESTEEM (HPDC'14) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, mixes and techniques")

    run = sub.add_parser("run", help="run techniques on one workload")
    run.add_argument("-w", "--workload", required=True,
                     help="benchmark name/acronym, or mix acronym with --cores 2")
    run.add_argument(
        "-t", "--technique", nargs="+", default=["esteem", "rpv"],
        choices=[t for t in TECHNIQUES],
    )
    _add_machine_args(run)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", type=int, choices=(2, 3, 4, 5, 6))
    fig.add_argument("--workload", default="h264ref",
                     help="workload for figure 2")
    fig.add_argument("--workloads", default=None,
                     help="comma-separated subset for figures 3-6")
    fig.add_argument("--csv", default=None,
                     help="also write per-workload comparisons as CSV")
    _add_machine_args(fig)

    tab = sub.add_parser("table", help="regenerate a paper table")
    tab.add_argument("number", type=int, choices=(2, 3))
    tab.add_argument("--system", choices=("single", "dual"), default="single")
    tab.add_argument("--workloads", default=None,
                     help="comma-separated workload subset")
    _add_machine_args(tab)

    trc = sub.add_parser(
        "trace",
        help="run one (workload, technique) pair and dump the event trace",
    )
    trc.add_argument("-w", "--workload", required=True,
                     help="benchmark name/acronym, or mix acronym with --cores 2")
    trc.add_argument("-t", "--technique", default="esteem",
                     choices=[t for t in TECHNIQUES])
    trc.add_argument("--format", choices=("jsonl", "pretty"), default="jsonl",
                     help="event dump format (default: jsonl)")
    trc.add_argument("--output", default=None,
                     help="write the trace to a file instead of stdout")
    trc.add_argument("--capacity", type=_int_at_least(1), default=65_536,
                     help="event ring-buffer capacity")
    _add_machine_args(trc)
    # Default to the quick bench scale so the emitted interval-decision
    # sequence matches benchmarks/results/fig2_reconfig_timeline.txt.
    trc.add_argument("--inject", default=None, metavar="PLAN.json",
                     help="fault plan whose hardware faults are injected "
                          "(events show up as fault.inject in the trace)")
    trc.set_defaults(instructions=4_000_000)

    swp = sub.add_parser(
        "sweep",
        help="resilient multi-workload sweep with checkpoint/resume, "
             "timeouts and retries",
    )
    swp.add_argument("--workloads", default=None,
                     help="comma-separated workload subset (default: all "
                          "Table 1 workloads for the core count)")
    swp.add_argument(
        "-t", "--technique", nargs="+", default=["esteem", "rpv"],
        choices=[t for t in TECHNIQUES],
    )
    swp.add_argument("--timeout", type=_positive_float, default=None,
                     help="per-attempt wall-clock timeout in seconds "
                          "(hung workers are terminated and retried)")
    swp.add_argument("--retries", type=_int_at_least(0), default=2,
                     help="retry budget per workload for transient "
                          "failures (default: 2)")
    swp.add_argument("--backoff", type=float, default=0.5,
                     help="base retry backoff in seconds, doubled per "
                          "attempt (default: 0.5)")
    swp.add_argument("--checkpoint", default=None, metavar="FILE.jsonl",
                     help="persist completed workloads (atomic JSONL)")
    swp.add_argument("--resume", action="store_true",
                     help="skip workloads already in --checkpoint")
    swp.add_argument("--inject", default=None, metavar="PLAN.json",
                     help="fault plan: hardware faults for every run, "
                          "chaos actions for the workers")
    swp.add_argument("--csv", default=None,
                     help="write surviving comparisons as CSV")
    swp.add_argument("--manifest", default=None, metavar="FILE.json",
                     help="write the structured run manifest as JSON "
                          "(input for `repro report`)")
    swp.add_argument("--trace-events", type=_int_at_least(0), default=0,
                     dest="trace_events", metavar="N",
                     help="per-worker event ring capacity; the tail of "
                          "each unit's trace ships home in the manifest "
                          "(default 0: metrics only)")
    swp.add_argument("--executor", default="pool", choices=sorted(EXECUTORS),
                     help="execution backend (default: pool, the warm "
                          "worker pool)")
    swp.add_argument("--heartbeat", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="worker heartbeat interval; a worker whose "
                          "beats flatline is condemned as hung after 2 "
                          "missed intervals instead of waiting out the "
                          "full --timeout (default: off)")
    swp.add_argument("--deadline", type=_positive_float, default=None,
                     metavar="SECONDS",
                     help="whole-campaign wall-clock budget; on expiry, "
                          "unfinished workloads are recorded as "
                          "skipped-deadline, never silently dropped "
                          "(default: off)")
    swp.add_argument("--quarantine-after", type=_int_at_least(1),
                     default=None,
                     dest="quarantine_after", metavar="N",
                     help="quarantine a workload whose attempts kill N "
                          "distinct workers (poison-unit detection; "
                          "default: off)")
    _add_machine_args(swp)
    # Sweeps are the bulk workload: default the worker count to the
    # machine instead of 1 (None -> os.cpu_count() in resilient_sweep).
    swp.set_defaults(jobs=None)

    rep = sub.add_parser(
        "report",
        help="render a sweep run manifest as markdown/CSV, with optional "
             "consistency + bench-regression gating",
    )
    rep.add_argument("manifest", metavar="MANIFEST.json",
                     help="run manifest written by `repro sweep --manifest`")
    rep.add_argument("--format", choices=("md", "csv"), default="md",
                     help="output format (default: md)")
    rep.add_argument("--output", default=None,
                     help="write the report to a file instead of stdout")
    rep.add_argument("--check", action="store_true",
                     help="verify internal consistency and compare rates "
                          "against the committed BENCH baselines; exit 1 "
                          "on failure")
    rep.add_argument("--tolerance", type=float, default=0.10,
                     help="allowed fractional rate regression for --check "
                          "(default 0.10)")
    rep.add_argument("--bench-throughput", default=None, metavar="FILE.json",
                     dest="bench_throughput",
                     help="throughput baseline (default: the repo's "
                          "BENCH_throughput.json)")
    rep.add_argument("--bench-sweep", default=None, metavar="FILE.json",
                     dest="bench_sweep",
                     help="sweep baseline (default: the repo's "
                          "BENCH_sweep.json)")
    rep.add_argument("-q", "--quiet", action="store_true",
                     help="suppress stderr status output")

    ben = sub.add_parser(
        "bench",
        help="run the end-to-end throughput bench and regression gate",
    )
    ben.add_argument("--update", action="store_true",
                     help="record the measurement as the new baseline "
                          "(BENCH_throughput.json)")
    ben.add_argument("--tolerance", type=float, default=0.25,
                     help="allowed fractional regression in absolute rate "
                          "(default 0.25)")
    ben.add_argument("--rounds", type=int, default=3,
                     help="timing rounds per path (best-of, default 3)")
    ben.add_argument("--instructions", type=int, default=None,
                     help="trace scale (default: the bench module's "
                          "recorded scale; smaller runs understate the "
                          "batch kernel)")
    ben.add_argument("-w", "--workload", default=None,
                     help="bench workload (default: the recorded one)")
    ben.add_argument("--profile", action="store_true",
                     help="print a wall/CPU-time span report on stderr")
    ben.add_argument("-v", "--verbose", action="count", default=0,
                     help="per-technique progress lines on stderr")
    ben.add_argument("-q", "--quiet", action="store_true",
                     help="suppress stderr progress output")

    ovh = sub.add_parser("overhead", help="evaluate Eq. 1 counter overhead")
    ovh.add_argument("--sets", type=int, default=4096)
    ovh.add_argument("--ways", type=int, default=16)
    ovh.add_argument("--modules", type=int, default=16)

    ts = sub.add_parser(
        "trace-stats", help="generate a workload trace and characterise it"
    )
    ts.add_argument("-w", "--workload", required=True)
    ts.add_argument("--instructions", type=int, default=4_000_000)
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--save", default=None,
                    help="also write the trace as a .npz file")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (2 for a usage
    error, which argparse reports on stderr)."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "figure": _cmd_figure,
        "table": _cmd_table,
        "bench": _cmd_bench,
        "overhead": _cmd_overhead,
        "trace": _cmd_trace,
        "trace-stats": _cmd_trace_stats,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
