"""Crash-safe sweep checkpointing (JSONL of completed comparison units).

A :class:`SweepCheckpoint` persists every completed ``(workload,
technique)`` unit of a sweep as one JSON line, so an interrupted sweep
can be resumed with ``--resume`` and skip straight past the finished
work.  Properties the resilient harness relies on:

* **Atomic**: the file is rewritten whole through
  :func:`repro.util.atomic_write` (write-to-temp + ``os.replace``) on
  every record, so a crash at any instant leaves either the previous
  complete checkpoint or the new complete checkpoint -- never a torn
  file.
* **Fingerprinted**: the header line carries a SHA-256 fingerprint of
  the sweep parameters (engine version, flattened config, techniques,
  seed, fault plan).  Resuming against a checkpoint written by a
  *different* sweep is refused rather than silently mixing incompatible
  results.
* **Exact**: units round-trip through
  :func:`~repro.experiments.runner.comparison_to_dict`, whose JSON
  float encoding is shortest-round-trip, so a resumed sweep's results
  are bit-for-bit identical to an uninterrupted run.
* **Tolerant on load**: a truncated, corrupt or otherwise unparsable
  line (e.g. the process died mid-``os.replace`` on a filesystem without
  atomic rename, or a partial write left garbage values) is dropped with
  a warning rather than aborting the resume -- the affected unit is
  simply re-executed.
* **Event lines**: besides completed comparisons the checkpoint carries
  supervision events (``quarantined``, ``skipped-deadline``,
  ``skipped-interrupt``) so a resumed campaign knows a unit was pulled
  deliberately -- a quarantined unit stays quarantined instead of being
  silently re-fed to fresh workers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from repro.config import SimConfig, config_fields
from repro.experiments.runner import (
    RunComparison,
    comparison_from_dict,
    comparison_to_dict,
)
from repro.faults.plan import FaultPlan
from repro.timing.system import SIM_ENGINE_VERSION
from repro.util import atomic_write, stable_fingerprint

__all__ = ["SweepCheckpoint", "sweep_fingerprint"]

_MAGIC = "repro-sweep-checkpoint-v1"


def sweep_fingerprint(
    config: SimConfig,
    techniques: tuple[str, ...],
    seed: int,
    plan: FaultPlan | None = None,
) -> str:
    """Stable identity of a sweep: same fingerprint == same results.

    Plane-2 chaos fields are part of the plan's dict and therefore of the
    fingerprint; that is deliberate -- a chaos plan changes *which*
    attempts fail, never the results of units that complete, but keeping
    it in the fingerprint errs on the side of refusing a stale resume.
    The simulator engine version is in it too: resuming after an
    engine-semantics bump is refused instead of mixing two engines' units.
    """
    payload = {
        "engine": SIM_ENGINE_VERSION,
        "config": {k: v for k, v in sorted(config_fields(config).items())},
        "techniques": list(techniques),
        "seed": seed,
        "plan": plan.as_dict() if plan is not None else None,
    }
    return stable_fingerprint(payload, length=16)


class SweepCheckpoint:
    """Append-style JSONL checkpoint of completed sweep units.

    The first line is a header ``{"magic", "fingerprint"}``; every later
    line is one serialised :class:`RunComparison` tagged with its
    workload.  Records are kept in memory and the file is atomically
    rewritten whole on each :meth:`record` (a sweep completes a handful
    of units per minute; rewriting a few hundred KB per unit is noise
    next to crash-safety).
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        #: workload -> list of completed comparisons for that workload.
        self.completed: dict[str, list[RunComparison]] = {}
        #: Supervision event records ({"event", "workload", "detail"}).
        self.events: list[dict[str, Any]] = []
        self._lines: list[str] = [
            json.dumps({"magic": _MAGIC, "fingerprint": fingerprint})
        ]

    # ------------------------------------------------------------------

    @classmethod
    def load(
        cls, path: str | Path, fingerprint: str, strict: bool = True
    ) -> "SweepCheckpoint":
        """Load an existing checkpoint for resumption.

        A missing file yields an empty checkpoint.  A fingerprint
        mismatch raises ``ValueError`` when ``strict`` (the sweep
        parameters changed; its results would not belong to this sweep)
        and otherwise discards the stale records.  A truncated or
        unparsable trailing line is dropped with a warning.
        """
        ckpt = cls(path, fingerprint)
        path = Path(path)
        if not path.exists():
            return ckpt
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return ckpt
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            header = {}
        if header.get("magic") != _MAGIC:
            raise ValueError(
                f"{path} is not a sweep checkpoint (bad or missing header)"
            )
        if header.get("fingerprint") != fingerprint:
            if strict:
                raise ValueError(
                    f"checkpoint {path} was written by a different sweep "
                    f"(fingerprint {header.get('fingerprint')!r} != "
                    f"{fingerprint!r}); refusing to resume -- delete it or "
                    f"rerun with matching parameters"
                )
            return ckpt
        for n, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
                if isinstance(raw, dict) and "event" in raw:
                    ckpt.events.append(raw)
                    ckpt._lines.append(line)
                    continue
                comp = comparison_from_dict(raw)
            # Deliberately broad: a crash-during-write can leave *any*
            # malformed shape behind (not just JSON truncation -- also
            # garbage values that fail inside comparison_from_dict).
            # One bad line must never make the whole checkpoint
            # unusable; the unit is simply re-executed.
            except Exception as exc:  # noqa: BLE001
                print(
                    f"warning: dropping unparsable checkpoint line {n} "
                    f"of {path} ({type(exc).__name__}); the unit will be "
                    f"re-run",
                    file=sys.stderr,
                )
                continue
            ckpt.completed.setdefault(comp.workload, []).append(comp)
            ckpt._lines.append(line)
        return ckpt

    # ------------------------------------------------------------------

    def has_workload(self, workload: str, techniques: tuple[str, ...]) -> bool:
        """Whether every technique of a unit is already checkpointed."""
        done = {c.technique for c in self.completed.get(workload, ())}
        return all(t in done for t in techniques)

    def comparisons_for(self, workload: str) -> list[RunComparison]:
        return list(self.completed.get(workload, ()))

    def record(self, comparisons: list[RunComparison]) -> None:
        """Persist one completed unit's comparisons (atomic rewrite)."""
        for comp in comparisons:
            self.completed.setdefault(comp.workload, []).append(comp)
            self._lines.append(
                json.dumps(comparison_to_dict(comp), sort_keys=True)
            )
        atomic_write(self.path, "\n".join(self._lines) + "\n")

    def note_event(
        self, event: str, workload: str, detail: str = ""
    ) -> None:
        """Persist one supervision event (quarantine / deadline skip).

        Idempotent per ``(event, workload)`` so a resumed campaign that
        re-derives the same verdict does not duplicate the record.
        """
        if any(
            e.get("event") == event and e.get("workload") == workload
            for e in self.events
        ):
            return
        record = {"event": event, "workload": workload, "detail": detail}
        self.events.append(record)
        self._lines.append(json.dumps(record, sort_keys=True))
        atomic_write(self.path, "\n".join(self._lines) + "\n")

    def workloads_with_event(self, event: str) -> set[str]:
        """Workloads carrying a given supervision event."""
        return {
            e["workload"]
            for e in self.events
            if e.get("event") == event and "workload" in e
        }

    @property
    def quarantined_workloads(self) -> set[str]:
        return self.workloads_with_event("quarantined")

    @property
    def units(self) -> int:
        """Number of checkpointed comparisons."""
        return sum(len(v) for v in self.completed.values())
