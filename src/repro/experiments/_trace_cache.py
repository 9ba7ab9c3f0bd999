"""Process-wide trace cache with an LRU byte cap.

Trace generation is deterministic in ``(benchmark, instruction budget,
seed)`` but costs up to a second per streaming workload, and every
figure/table bench reuses the same traces across techniques and
configurations.  This module memoises them for the lifetime of the process.

The cache is bounded: entries are kept in least-recently-used order and
evicted once the summed column payload exceeds the byte cap (default
1 GiB, overridable via ``REPRO_TRACE_CACHE_BYTES``), so a long sweep
process cannot grow without bound.  Accounting covers the NumPy columns
only, not the list views (:meth:`Trace.columns
<repro.workloads.trace.Trace.columns>`, :meth:`Trace.gcpi_list
<repro.workloads.trace.Trace.gcpi_list>`) a simulated trace carries --
which is why sweep workers :func:`discard` the traces they were shipped
once the unit that needed them ends.  The most recent entry is always
retained, even when it alone exceeds the cap: evicting the trace that was
just inserted would guarantee regeneration thrash.

Observability: cache hits/misses/evictions and generation time are
recorded in the process-wide default metrics registry (``trace_cache.*``
names), and a caller-supplied :class:`~repro.obs.profile.Profiler` gets
one span per actual generation (cache misses only).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from repro.obs.metrics import get_default_registry
from repro.obs.profile import Profiler
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace

__all__ = [
    "DEFAULT_MAX_BYTES",
    "clear",
    "current_bytes",
    "discard",
    "get_trace",
    "max_bytes",
    "put",
]

#: Default cache cap: roomy enough for every Table 1 workload at paper
#: bench scale, small enough that a pool worker cannot balloon.
DEFAULT_MAX_BYTES = 1 << 30

_CACHE: "OrderedDict[tuple[str, int, int], Trace]" = OrderedDict()
_CACHE_BYTES = 0
#: Guards ``_CACHE``/``_CACHE_BYTES``: an in-process sweep attempt that
#: timed out keeps running on its detached thread next to its retry.
_LOCK = threading.Lock()


def max_bytes() -> int:
    """The active byte cap (``REPRO_TRACE_CACHE_BYTES`` wins when valid)."""
    raw = os.environ.get("REPRO_TRACE_CACHE_BYTES")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return DEFAULT_MAX_BYTES
        if value > 0:
            return value
    return DEFAULT_MAX_BYTES


def current_bytes() -> int:
    """Column payload bytes currently held (for tests and gauges)."""
    return _CACHE_BYTES


def _trace_nbytes(trace: Trace) -> int:
    return trace.addrs.nbytes + trace.writes.nbytes + trace.gaps.nbytes


def _insert(key: tuple[str, int, int], trace: Trace) -> None:
    global _CACHE_BYTES
    cap = max_bytes()
    registry = get_default_registry()
    with _LOCK:
        old = _CACHE.pop(key, None)
        if old is not None:
            _CACHE_BYTES -= _trace_nbytes(old)
        _CACHE[key] = trace
        _CACHE_BYTES += _trace_nbytes(trace)
        while _CACHE_BYTES > cap and len(_CACHE) > 1:
            _evicted_key, evicted = _CACHE.popitem(last=False)
            _CACHE_BYTES -= _trace_nbytes(evicted)
            registry.counter("trace_cache.evictions").inc()
        registry.gauge("trace_cache.bytes").set(float(_CACHE_BYTES))


def get_trace(
    profile: BenchmarkProfile,
    max_instructions: int,
    seed: int,
    profiler: Profiler | None = None,
) -> Trace:
    """Memoised :func:`repro.workloads.synthetic.generate_trace`."""
    key = (profile.name, max_instructions, seed)
    with _LOCK:
        trace = _CACHE.get(key)
        if trace is not None:
            _CACHE.move_to_end(key)
    registry = get_default_registry()
    if trace is None:
        registry.counter("trace_cache.misses").inc()
        if profiler is not None and profiler.enabled:
            with profiler.span(
                f"trace.generate:{profile.name}",
                instructions=max_instructions,
                seed=seed,
            ) as span:
                trace = generate_trace(profile, max_instructions, seed=seed)
            registry.histogram(
                "trace_cache.generate_seconds", buckets=_GEN_BUCKETS
            ).observe(span.wall_s)
        else:
            trace = generate_trace(profile, max_instructions, seed=seed)
        _insert(key, trace)
    else:
        registry.counter("trace_cache.hits").inc()
    return trace


#: Generation-time histogram buckets (seconds).
_GEN_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)


def put(
    profile_name: str, max_instructions: int, seed: int, trace: Trace
) -> None:
    """Seed the cache with an externally built trace.

    Sweep attempts attach the parent's already-generated traces from
    shared memory and install them here, so a worker never regenerates a
    trace the parent (or an earlier sweep) has built.  Counts as neither
    a hit nor a miss.
    """
    _insert((profile_name, max_instructions, seed), trace)


def discard(
    profile_name: str, max_instructions: int, seed: int, trace: Trace
) -> None:
    """Drop ``trace`` if it is still the cached entry for its key.

    Sweep attempts call this when a unit ends, so a shared-memory trace --
    with its list views and its mapping of the segment -- lives exactly as
    long as the unit that was shipped it.  The identity check matters on
    the in-process executor: a timed-out attempt's thread runs on after
    its retry installed its own attachment under the same key, and must
    not evict it.  No eviction count.
    """
    global _CACHE_BYTES
    key = (profile_name, max_instructions, seed)
    with _LOCK:
        if _CACHE.get(key) is not trace:
            return
        del _CACHE[key]
        _CACHE_BYTES -= _trace_nbytes(trace)
        get_default_registry().gauge("trace_cache.bytes").set(
            float(_CACHE_BYTES)
        )


def clear() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    global _CACHE_BYTES
    with _LOCK:
        _CACHE.clear()
        _CACHE_BYTES = 0
