"""Refrint polyphase-dirty (RPD) -- the policy the paper declined to run.

Section 6.2: "Agrawal et al. also propose Refrint polyphase-dirty (RPD)
policy which eagerly invalidates valid blocks to avoid refreshing them and
refreshes only dirty blocks.  For applications where the fraction of dirty
data is small, RPD policy would aggressively invalidate almost the whole
cache which will greatly increase the access to main memory and hence, we
do not evaluate this."

We implement it anyway so the claim can be measured
(``benchmarks/bench_ablation_rpd.py``): when a line comes due,

* a **dirty** line is refreshed (writing it back would cost a memory
  access; Refrint keeps it alive), and
* a **clean** line is *invalidated* instead of refreshed -- its data is
  still in memory, so dropping it is safe, but the next touch misses.

Unlike every other engine, RPD mutates cache contents, so it holds a
reference to the cache (not just the line-state arrays).
"""

from __future__ import annotations

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.config import RefreshConfig
from repro.edram.refresh import RefreshEngine

__all__ = ["RefrintPolyphaseDirty"]


class RefrintPolyphaseDirty(RefreshEngine):
    """Polyphase refresh of dirty lines; eager invalidation of clean ones."""

    name = "rpd"
    #: RPD drops clean lines at phase boundaries, changing later hit/miss
    #: outcomes -- the batch kernel must never span one.
    mutates_cache_state = True

    def __init__(
        self,
        state,
        config: RefreshConfig,
        cache: SetAssociativeCache,
    ) -> None:
        if cache.state is not state:
            raise ValueError("cache and line state must belong together")
        super().__init__(state, config)
        self.cache = cache
        self.phases = config.rpv_phases
        #: Clean lines dropped instead of refreshed.
        self.invalidations = 0

    @property
    def window_cycles(self) -> int:
        return self.config.phase_cycles

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        w = boundary_cycle // self.config.phase_cycles
        due = self._due_mask(w - self.phases)
        if not due.any():
            return 0

        state = self.state
        clean_due = np.flatnonzero(due & ~state.dirty)
        dirty_due = np.logical_and(due, state.dirty, out=due)
        count = int(np.count_nonzero(dirty_due))
        if count:
            np.putmask(state.last_window, dirty_due, w)

        if clean_due.size:
            self.cache.drop_lines(clean_due)
            self.invalidations += int(clean_due.size)
        return count
