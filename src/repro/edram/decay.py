"""Cache-decay refresh policy (Kaxiras et al., ISCA'01, the paper's [22]).

Section 7.2 leans on the cache-decay observation: "cache lines typically
have a flurry of frequent use when first brought into the cache, and then
see a period of 'dead time' before they are evicted".  Decay exploits it
directly: a line that has not been touched for ``decay_windows`` phase
windows is presumed dead and *invalidated* instead of being kept alive by
refresh (for eDRAM, simply not refreshing an expired line kills it, so
decay is nearly free to implement).

Compared to the policies the paper evaluates:

* like RPD, decay trades refresh energy for potential extra misses;
* unlike RPD, it keys on idleness rather than cleanliness, so
  write-heavy-but-idle data also decays (dirty casualties are written back
  first);
* unlike ESTEEM, it acts per line, not per way, and saves no leakage.

This engine exists as an additional comparison point / ablation; the paper
itself compares only against Refrint.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.config import RefreshConfig
from repro.edram.refresh import RefreshEngine

__all__ = ["CacheDecayRefresh"]


class CacheDecayRefresh(RefreshEngine):
    """Refresh live lines; let idle lines decay (invalidate, never refresh).

    Parameters
    ----------
    decay_windows:
        Idle threshold, in phase windows.  A valid line last touched more
        than this many windows ago is decayed at its next due boundary.
        Must be at least the phase count (a line younger than one retention
        period never needs attention at all).
    """

    name = "decay"
    #: Decay invalidates idle lines at boundaries, changing later
    #: hit/miss outcomes -- the batch kernel must never span one.
    mutates_cache_state = True

    def __init__(
        self,
        state,
        config: RefreshConfig,
        cache: SetAssociativeCache,
        decay_windows: int | None = None,
    ) -> None:
        if cache.state is not state:
            raise ValueError("cache and line state must belong together")
        super().__init__(state, config)
        self.cache = cache
        self.phases = config.rpv_phases
        self.decay_windows = (
            decay_windows if decay_windows is not None else 8 * self.phases
        )
        if self.decay_windows < self.phases:
            raise ValueError(
                "decay threshold must be at least one retention period"
            )
        #: Idle lines dropped instead of refreshed.
        self.decayed = 0
        #: Dirty idle lines that needed a writeback before decaying.
        self.decay_writebacks = 0
        self._delta_writebacks = 0
        # Refresh timestamps are kept privately: unlike RPV, a refresh must
        # NOT reset a line's idle clock (``state.last_window`` then tracks
        # the last *demand access* only, which is what decay keys on).
        self._refresh_stamp = np.full(state.num_lines, -(10**9), dtype=np.int64)

    @property
    def window_cycles(self) -> int:
        return self.config.phase_cycles

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        w = boundary_cycle // self.config.phase_cycles
        state = self.state
        accessed = state.last_window
        freshness = np.maximum(accessed, self._refresh_stamp)
        due = state.valid & (freshness <= w - self.phases)
        if not due.any():
            return 0

        expired = due & (accessed <= w - self.decay_windows)
        live = due & ~expired

        count = int(np.count_nonzero(live))
        if count:
            self._refresh_stamp[live] = w

        if expired.any():
            dirty = expired & state.dirty
            n_dirty = int(np.count_nonzero(dirty))
            self.decay_writebacks += n_dirty
            self._delta_writebacks += n_dirty
            self.cache.drop_lines(np.flatnonzero(expired))
            self._refresh_stamp[expired] = -(10**9)
            self.decayed += int(np.count_nonzero(expired))
        return count

    def take_writeback_delta(self) -> int:
        delta = self._delta_writebacks
        self._delta_writebacks = 0
        return delta
