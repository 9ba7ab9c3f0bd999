"""Set-associative cache substrate (systems S1-S2 in DESIGN.md).

This package provides the generic cache machinery the rest of the
reproduction builds on: true-LRU set-associative caches with per-way enable
masks, dirty/valid bookkeeping backed by NumPy state arrays (shared with the
refresh engines), a two-level hierarchy for instruction-level traces, and a
writeback-buffer model.
"""

from repro.cache.block import LineState
from repro.cache.lru import LRUStack
from repro.cache.cache import AccessOutcome, CacheStats, SetAssociativeCache
from repro.cache.hierarchy import HierarchyResult, TwoLevelHierarchy
from repro.cache.mshr import WritebackBuffer

__all__ = [
    "AccessOutcome",
    "CacheStats",
    "HierarchyResult",
    "LRUStack",
    "LineState",
    "SetAssociativeCache",
    "TwoLevelHierarchy",
    "WritebackBuffer",
]
