"""Metrics derived from a finished sweep, read from outside the program.

Every function here is pure: it takes the run manifest ``repro sweep
--manifest`` wrote (and, for the traced run, the wrapper counters of
:mod:`layers`) and returns numbers.  Host time is wall-clock time on the
machine running the benchmark; nothing here reads simulated time except
the instruction counts used as rate denominators.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping

from layers import PREFIX, SPANS

TECHNIQUES = ("baseline", "rpv", "esteem")


def attempts(manifest: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Timeline entries of dispatched attempts.

    Cached and resumed units (attempt 0) and units cancelled before they
    were dispatched never occupied a worker, so they are left out.
    """
    return [
        e for e in manifest["timeline"]
        if e["attempt"] >= 1
        and not (e["outcome"].startswith("skipped") and not e.get("in_flight"))
    ]


def setup_s(manifest: Mapping[str, Any]) -> float:
    """Sweep start to the first dispatch (serial parent-side set-up)."""
    return min(e["start_s"] for e in attempts(manifest))


def worker_busy_s(manifest: Mapping[str, Any]) -> float:
    return sum(e["wall_s"] for e in attempts(manifest))


def capacity_s(manifest: Mapping[str, Any], jobs: int) -> float:
    """Worker-seconds on offer after set-up: ``jobs x (wall - setup_s)``."""
    slots = min(jobs, len(manifest["workloads"]))
    return slots * (manifest["wall_s"] - setup_s(manifest))


def tail_idle_s(manifest: Mapping[str, Any], jobs: int) -> float:
    """Worker idle time after the run queue drained.

    In a closed loop each worker's last attempt is among the last
    ``jobs`` attempts to end (a worker that ended earlier would have
    taken another unit while the queue held one).  Each such worker then
    idles until the last attempt ends.
    """
    ends = sorted(e["end_s"] for e in attempts(manifest))
    last = ends[-jobs:]
    return sum(ends[-1] - end for end in last)


def ship_s(manifest: Mapping[str, Any]) -> float:
    """Attempt time not spent simulating: dispatch, trace attach, result
    pickling and the wire (Σ attempt wall - Σ worker technique wall)."""
    per_technique = manifest["telemetry"]["per_technique"]
    simulated = sum(entry["wall_s"] for entry in per_technique.values())
    return worker_busy_s(manifest) - simulated


def failed_units(manifest: Mapping[str, Any]) -> int:
    """Units the sweep itself reports lost: failed, quarantined, skipped."""
    return (
        len(manifest["failed"])
        + len(manifest["quarantined"])
        + len(manifest["skipped"])
    )


def instructions(manifest: Mapping[str, Any]) -> float:
    return float(manifest["telemetry"]["counters"].get("sim.instructions", 0.0))


def manifest_metrics(manifest: Mapping[str, Any], jobs: int) -> dict[str, float]:
    """The per-layer metrics an untraced run's manifest gives."""
    telemetry = manifest["telemetry"]
    counters = telemetry["counters"]
    per_technique = telemetry["per_technique"]
    busy = worker_busy_s(manifest)
    capacity = capacity_s(manifest, jobs)
    out = {
        "experiments.worker_busy_s": busy,
        "experiments.capacity_s": capacity,
        "experiments.utilization": busy / capacity if capacity > 0 else 0.0,
        "experiments.tail_idle_s": tail_idle_s(manifest, jobs),
        "experiments.ship_s": ship_s(manifest),
        "experiments.attempts": float(manifest["attempts"]),
        "experiments.retries": float(manifest["retries"]),
        "timing.instructions": instructions(manifest),
        "timing.batch_records": counters.get("kernel.batch_records", 0.0),
        "timing.scalar_records": counters.get("kernel.scalar_records", 0.0),
    }
    for tech in TECHNIQUES:
        entry = per_technique.get(tech, {"wall_s": 0.0, "counters": {}})
        instr = entry["counters"].get("sim.instructions", 0.0)
        out[f"timing.{tech}.wall_s"] = entry["wall_s"]
        out[f"timing.{tech}.ns_per_instr"] = (
            entry["wall_s"] * 1e9 / instr if instr else 0.0
        )
    esteem = per_technique.get("esteem", {"counters": {}})["counters"]
    batch = esteem.get("kernel.batch_records", 0.0)
    kernel = batch + esteem.get("kernel.scalar_records", 0.0)
    out["timing.esteem.kernel_records"] = kernel
    out["timing.esteem.batch_share"] = batch / kernel if kernel else 0.0
    return out


def _layer_values(counters: Mapping[str, float]) -> dict[str, float]:
    def get(name: str) -> float:
        return float(counters.get(PREFIX + name, 0.0))

    return {
        "workloads.gen_s": get("workloads.gen.ns") / 1e9,
        "workloads.traces": get("workloads.gen.calls"),
        "workloads.records": get("workloads.records"),
        "experiments.shm_export_s": get("experiments.shm_export.ns") / 1e9,
        "experiments.cache_probe_s": get("experiments.cache_probe.ns") / 1e9,
        "experiments.cache_store_s": get("experiments.cache_store.ns") / 1e9,
        "timing.build_s": get("timing.build.ns") / 1e9,
        "timing.builds": get("timing.build.calls"),
        "timing.run_self_s": get("timing.run.ns") / 1e9,
        "timing.build_batch_s": get("timing.build_batch.ns") / 1e9,
        "core.interval_end_s": get("core.interval_end.ns") / 1e9,
        "core.intervals": get("core.interval_end.calls"),
        "core.transitions": get("core.transitions"),
        "edram.advance_s": get("edram.advance.ns") / 1e9,
        "edram.advance_calls": get("edram.advance.calls"),
        "edram.refresh_lines": get("edram.refresh_lines"),
        "energy.add_interval_s": get("energy.add_interval.ns") / 1e9,
        "energy.intervals": get("energy.add_interval.calls"),
        "obs.emit_s": get("obs.emit.ns") / 1e9,
        "obs.events": get("obs.emit.calls"),
    }


def layer_metrics(
    manifest: Mapping[str, Any], parent_counters: Mapping[str, float]
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``manifest`` is the traced run's own manifest (worker-side wrapper
    counters merged in its telemetry); ``parent_counters`` holds the
    sweep parent's wrapper counters.
    """
    telemetry = manifest["telemetry"]
    counters = dict(telemetry["counters"])
    for name, value in parent_counters.items():
        counters[name] = counters.get(name, 0.0) + value
    out = _layer_values(counters)
    worker_self_ns = sum(
        counters.get(f"{PREFIX}{span.stem}.ns", 0.0)
        for span in SPANS
        if not span.parent
    )
    busy = worker_busy_s(manifest)
    out["experiments.layer_self_s"] = worker_self_ns / 1e9
    out["experiments.traced_busy_s"] = busy
    out["experiments.layer_coverage"] = worker_self_ns / 1e9 / busy if busy else 0.0
    for tech in TECHNIQUES:
        tech_counters = telemetry["per_technique"].get(tech, {}).get(
            "counters", {}
        )
        out[f"timing.{tech}.run_self_s"] = (
            tech_counters.get(PREFIX + "timing.run.ns", 0.0) / 1e9
        )
        out[f"edram.{tech}.advance_s"] = (
            tech_counters.get(PREFIX + "edram.advance.ns", 0.0) / 1e9
        )
    return out


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_digests(
    cache_entries: Iterable[Mapping[str, Any]], manifest: Mapping[str, Any]
) -> dict[str, Any]:
    """Digest of every unit's ``comparison_to_dict`` output and of the
    per-technique rollup.

    ``cache_entries`` are the decoded result-cache files of a cold run:
    one per unit, each holding that unit's serialised comparisons.
    """
    units: dict[str, str] = {}
    for entry in cache_entries:
        comparisons = entry["comparisons"]
        units[comparisons[0]["workload"]] = _digest(comparisons)
    return {
        "units": dict(sorted(units.items())),
        "rollup": _digest(manifest["aggregates"]),
    }


def mismatched_units(
    digests: Mapping[str, Any], reference: Mapping[str, Any]
) -> list[str]:
    """Units whose digest differs from (or is missing in) ``reference``.

    A differing rollup with every unit equal is reported as ``"rollup"``.
    """
    expected = reference["units"]
    got = digests["units"]
    bad = sorted(
        w for w in set(expected) | set(got) if expected.get(w) != got.get(w)
    )
    if not bad and digests["rollup"] != reference["rollup"]:
        bad = ["rollup"]
    return bad


def savings(manifest: Mapping[str, Any]) -> dict[str, float]:
    """Per-technique memory-subsystem energy saving (%) vs baseline."""
    return {
        tech: row["energy_saving_pct"]
        for tech, row in manifest["aggregates"].items()
    }


def paper_ordering_holds(saving: Mapping[str, float]) -> bool:
    """The paper's claim: ESTEEM saves more than RPV, which saves some."""
    return saving.get("esteem", 0.0) > saving.get("rpv", 0.0) > 0.0
