"""Per-layer timing wrappers for the benchmark's traced run.

The traced run times the simulator from outside: before the sweep's
worker pool forks, :class:`LayerClock` replaces a fixed list of public
entry points (:data:`SPANS`) with wrappers that add their self time in
nanoseconds and their call count to counters.  Inside a sweep worker the
counters go into the attempt's ``repro.obs.campaign.current_worker_obs()``
registry, so they ship home with the attempt's telemetry, are merged into
the run manifest and are split per technique by the worker's technique
spans.  Calls made in the sweep parent (trace generation, shared-memory
export, result-cache probes and stores) have no attempt context; they
are summed in :attr:`LayerClock.parent_counters` instead.

Self time is a wrapper's elapsed time minus the elapsed time of the
wrapped calls nested inside it: ``RefreshEngine.advance_to`` runs inside
``System.run``, so its time is counted once, as ``edram.advance``, and
not again in ``timing.run``.

Run as a script, this module runs one traced sweep::

    python3 perfbench/layers.py PARENT_COUNTERS.json -- sweep [repro args]

It installs the wrappers, runs ``repro.cli.main`` with the given
arguments, writes the parent-side counters to the JSON file and exits
with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

#: Prefix of every counter the wrappers write.
PREFIX = "layer."


@dataclass(frozen=True)
class Span:
    """One wrapped entry point.

    ``stem`` names the counters: ``layer.<stem>.ns`` (self time) and
    ``layer.<stem>.calls``.  The callable is ``module.owner.attr`` or,
    with ``owner`` empty, the module-level ``module.attr`` -- patched in
    the module that *looks it up*, so ``from x import f`` call sites see
    the wrapper.  ``tally`` optionally names one more counter,
    ``layer.<tally>``, incremented by ``count(args, result, probe)``
    where ``probe`` is ``probe(args)`` taken before the call.  ``parent``
    marks calls made by the sweep parent rather than by a worker.
    """

    stem: str
    module: str
    owner: str
    attr: str
    tally: str = ""
    count: Callable[[tuple, Any, Any], float] | None = None
    probe: Callable[[tuple], Any] | None = None
    parent: bool = False


def _records(_args: tuple, trace: Any, _probe: Any) -> float:
    return float(len(trace))


def _transitions(_args: tuple, decision: Any, _probe: Any) -> float:
    return float(decision.transitions)


def _refreshes_before(args: tuple) -> int:
    return args[0].total_refreshes


def _refreshes(args: tuple, _result: Any, before: int) -> float:
    return float(args[0].total_refreshes - before)


#: The entry points the traced run times, grouped by ``src/repro`` layer.
SPANS: tuple[Span, ...] = (
    Span("workloads.gen", "repro.experiments._trace_cache", "",
         "generate_trace", "workloads.records", _records, parent=True),
    Span("experiments.shm_export", "repro.experiments.pool",
         "SharedTraceStore", "acquire", parent=True),
    Span("experiments.cache_probe", "repro.experiments.result_cache",
         "ResultCache", "get", parent=True),
    Span("experiments.cache_store", "repro.experiments.result_cache",
         "ResultCache", "put", parent=True),
    Span("timing.build", "repro.timing.system", "System", "__init__"),
    Span("timing.run", "repro.timing.system", "System", "run"),
    Span("timing.build_batch", "repro.timing.system", "", "build_batch"),
    Span("core.interval_end", "repro.core.esteem", "EsteemController",
         "on_interval_end", "core.transitions", _transitions),
    Span("edram.advance", "repro.edram.refresh", "RefreshEngine",
         "advance_to", "edram.refresh_lines", _refreshes, _refreshes_before),
    Span("energy.add_interval", "repro.energy.model", "EnergyAccumulator",
         "add_interval"),
    Span("obs.emit", "repro.obs.trace", "Tracer", "emit"),
)


def _no_context() -> None:
    return None


class LayerClock:
    """Installs the timing wrappers and owns their nesting stack.

    ``context`` returns the current attempt's observation context (an
    object with a ``registry``) or ``None``; counters land in that
    registry, else in :attr:`parent_counters`.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        context: Callable[[], Any] = _no_context,
    ) -> None:
        self.clock = clock
        self.context = context
        self.parent_counters: dict[str, float] = {}
        # One frame per active wrapped call: nanoseconds of nested spans.
        self._stack: list[list[int]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def add(self, name: str, value: float) -> None:
        obs = self.context()
        if obs is not None:
            obs.registry.counter(name).inc(value)
        else:
            self.parent_counters[name] = (
                self.parent_counters.get(name, 0.0) + value
            )

    def wrap(self, span: Span, fn: Callable) -> Callable:
        clock, stack, add = self.clock, self._stack, self.add
        ns_name = f"{PREFIX}{span.stem}.ns"
        calls_name = f"{PREFIX}{span.stem}.calls"
        tally_name = f"{PREFIX}{span.tally}"
        count, probe = span.count, span.probe

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            before = probe(args) if probe is not None else None
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                add(ns_name, elapsed - frame[0])
                add(calls_name, 1.0)
            if count is not None:
                add(tally_name, count(args, result, before))
            return result

        return timed

    def install(self, spans: tuple[Span, ...] = SPANS) -> None:
        """Patch every span's callable (undo with :meth:`remove`)."""
        if self._patches:
            raise RuntimeError("wrappers already installed")
        for span in spans:
            module = importlib.import_module(span.module)
            target = getattr(module, span.owner) if span.owner else module
            # The owner's own attribute: restoring it must not leave a
            # copy of an inherited method behind on the owner.
            original = vars(target)[span.attr]
            self._patches.append((target, span.attr, original))
            setattr(target, span.attr, self.wrap(span, original))

    def remove(self) -> None:
        """Restore every patched callable, last patch first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    @contextmanager
    def installed(self, spans: tuple[Span, ...] = SPANS) -> Iterator["LayerClock"]:
        self.install(spans)
        try:
            yield self
        finally:
            self.remove()


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: layers.py PARENT_COUNTERS.json -- <repro args>",
              file=sys.stderr)
        return 2
    out_path, repro_args = Path(argv[0]), argv[2:]
    from repro.cli import main as repro_main
    from repro.obs.campaign import current_worker_obs

    clock = LayerClock(context=current_worker_obs)
    with clock.installed():
        code = repro_main(repro_args)
    out_path.write_text(json.dumps(clock.parent_counters, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
