"""The set-associative cache model (system S1).

Implements a true-LRU, writeback, write-allocate cache with per-way power
gating.  Lines live only in enabled ways: the reconfiguration controller
flushes a way before disabling it, so the lookup path never needs to mask
disabled ways.

Tag storage note: each way stores the *full line address* rather than the
tag bits above the index.  Functionally identical (address = tag || index),
it keeps lookups a single comparison and -- crucially -- decouples the
stored state from the set-index width, which lets the selective-sets
controller change the number of active sets (``active_set_mask``) without
re-interpreting every stored tag.

Flat state: every container is cache-wide and indexed by the *global line
index* ``g = set * associativity + way`` (the same index the
:class:`~repro.cache.block.LineState` arrays use), or by set:

* ``tags`` -- one NumPy int64 array, the stored line address per way or
  :data:`EMPTY`; the fast loops read and write it through a memoryview;
* ``line_index`` -- one dict, line address -> ``g``, for every resident
  demand line, so a lookup is one dict probe for the whole cache;
* ``recency`` -- one list per set of that set's global line indices,
  most-recently-used first;
* ``n_active`` / ``leader`` / ``resident`` -- per-set lists: powered-on
  way count, ATD leader flag, and valid-line count (the full-set test).

Stale prefill lines (:meth:`fill_stale`) are valid but can never be hit,
so they stay out of ``line_index``: a warm clone copies no dict entries,
and every evict/drop path tolerates an address absent from the index.

The hot path (:meth:`SetAssociativeCache.access`) is written as straight-line
Python -- per the profiling-first guidance, the per-access budget is ~1-2 us
and attribute lookups / function calls are the dominant cost, so the
containers are manipulated in place.  The fast loops in
:mod:`repro.timing.system` hoist them into locals for a whole run, so no
path may rebind them -- only mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.cache.block import LineState
from repro.config import CacheGeometry

__all__ = [
    "AccessOutcome",
    "CacheStats",
    "EMPTY",
    "SetAssociativeCache",
    "STALE_TAG_BASE",
]

#: ``tags`` value of a way holding no line (line addresses are >= 0).
EMPTY = -1

#: Tag bits of every stale prefill line start here -- far above any real
#: line address (core address spaces are offset at bit 40).
STALE_TAG_BASE = 1 << 45


@dataclass
class AccessOutcome:
    """Result of a single cache access (cold-path convenience wrapper)."""

    hit: bool
    #: Recency position of the hit (0 = MRU), or -1 on a miss.
    position: int
    #: Line address written back due to a dirty eviction, or -1.
    writeback_addr: int


@dataclass
class CacheStats:
    """Monotonic counters; interval deltas are taken by the runner."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    #: Hits served from drowsy (gated, data-retaining) ways.
    drowsy_hits: int = 0
    #: Hits broken down by recency position (whole cache, all sets).
    hits_by_position: list[int] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class SetAssociativeCache:
    """A single cache level with LRU replacement and way gating.

    Parameters
    ----------
    geometry:
        Size / associativity / line size / latency bundle.
    name:
        Label used in reports ("L1D", "L2", ...).
    leader_every:
        When positive, every ``leader_every``-th set (set index divisible by
        it) is marked as a leader set for the embedded ATD (Section 3.2).
        Leader sets always keep every way enabled.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        name: str = "cache",
        leader_every: int = 0,
    ) -> None:
        s = geometry.num_sets
        a = geometry.associativity
        n = s * a
        self._adopt(
            geometry,
            name,
            np.full(n, EMPTY, dtype=np.int64),
            {},
            np.arange(n).reshape(s, a).tolist(),
            [0] * s,
            LineState(s, a),
        )
        if leader_every > 0:
            self.leader[::leader_every] = [True] * len(range(0, s, leader_every))

    def _adopt(self, geometry, name, tags, line_index, recency, resident, state):
        """Install the flat containers plus fresh stats and hooks."""
        self.geometry = geometry
        self.name = name
        s = geometry.num_sets
        a = geometry.associativity
        self.num_sets = s
        self.associativity = a
        self.set_mask = s - 1
        #: Index mask actually used by lookups; the selective-sets
        #: controller narrows it to a power-of-two subset of the sets.
        self.active_set_mask = s - 1
        self.set_bits = geometry.set_index_bits
        self.tags = tags
        self.line_index = line_index
        self.recency = recency
        #: Powered-on ways per set: ways ``[0, n_active[s])`` are usable.
        self.n_active = [a] * s
        #: Profiling (leader) sets of the embedded ATD; never gated.
        self.leader = [False] * s
        #: Valid lines per set (stale prefill lines included).
        self.resident = resident
        self.state = state
        self.stats = CacheStats(hits_by_position=[0] * a)
        # Optional profiling hook installed by the ESTEEM controller:
        # module_of_set[s] -> module index, profile_hist[m][pos] += 1 on
        # leader-set hits.  None when no profiler is attached.
        self.module_of_set: list[int] | None = None
        self.profile_hist: list[list[int]] | None = None
        # Optional per-line write counters (NVM endurance studies install
        # a NumPy array here; None keeps the hot path free of the cost).
        self.write_counts = None
        #: Set by the hot path when the last hit came from a drowsy way;
        #: the timing loop consumes and clears it (wake-up penalty).
        self.drowsy_flag = False

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        return line_addr & self.set_mask

    def tag_of(self, line_addr: int) -> int:
        return line_addr >> self.set_bits

    def line_addr(self, set_index: int, tag: int) -> int:
        return (tag << self.set_bits) | set_index

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def access(self, line_addr: int, is_write: bool, window: int = 0) -> tuple:
        """Perform one demand access.

        Parameters
        ----------
        line_addr:
            Cache-line address (byte address >> log2(line size)).
        is_write:
            Store vs load; stores mark the line dirty.
        window:
            Current refresh phase-window index (an access counts as an
            implicit refresh for the polyphase bookkeeping).

        Returns
        -------
        tuple
            ``(hit, position, writeback_addr)`` where ``position`` is the
            recency position of the hit (0 = MRU, -1 on miss) and
            ``writeback_addr`` is the line address of a dirty eviction
            (-1 when nothing was written back).
        """
        stats = self.stats
        state = self.state
        a = self.associativity
        s = line_addr & self.active_set_mask
        order = self.recency[s]

        g = self.line_index.get(line_addr, -1)

        if g >= 0:
            # Hit: promote to MRU, record recency position.  A hit in a
            # gated way is only possible in drowsy mode (off-mode flushes).
            if g - s * a >= self.n_active[s] and not self.leader[s]:
                stats.drowsy_hits += 1
                self.drowsy_flag = True
            if order[0] == g:
                pos = 0
            else:
                pos = order.index(g)
                del order[pos]
                order.insert(0, g)
            stats.hits += 1
            stats.hits_by_position[pos] += 1
            if is_write:
                state.dirty[g] = True
                if self.write_counts is not None:
                    self.write_counts[g] += 1
            state.last_window[g] = window
            hist = self.profile_hist
            if hist is not None and self.leader[s]:
                hist[self.module_of_set[s]][pos] += 1
            return (True, pos, -1)

        # Miss: pick a victim among the enabled ways -- the LRU tail of a
        # full set (the steady state, no scan), else the first invalid
        # enabled way, else the least recently used enabled way.
        stats.misses += 1
        n = self.n_active[s]
        base = s * a
        if n == a and self.resident[s] == a:
            victim = order[-1]
        else:
            victim = state.valid[base : base + n].tobytes().find(0)
            if victim >= 0:
                victim += base
            else:
                lim = base + n
                for w in reversed(order):
                    if w < lim:
                        victim = w
                        break
        if victim < 0:
            # No enabled way can accept the fill (n_active == 0 and no
            # invalid way): refuse rather than write outside the set.
            raise RuntimeError(
                f"{self.name}: set {s} has no enabled way to fill "
                f"(n_active={n}, associativity={a})"
            )
        wb_addr = -1
        old_tag = int(self.tags[victim])
        if old_tag != EMPTY:
            self.line_index.pop(old_tag, None)
            if state.dirty[victim]:
                wb_addr = old_tag
                stats.writebacks += 1
        else:
            self.resident[s] += 1
        # Fill.
        self.tags[victim] = line_addr
        self.line_index[line_addr] = victim
        state.valid[victim] = True
        state.dirty[victim] = is_write
        if is_write and self.write_counts is not None:
            self.write_counts[victim] += 1
        state.last_window[victim] = window
        order.remove(victim)
        order.insert(0, victim)
        return (False, -1, wb_addr)

    # ------------------------------------------------------------------
    # Cold paths
    # ------------------------------------------------------------------

    def access_outcome(
        self, line_addr: int, is_write: bool, window: int = 0
    ) -> AccessOutcome:
        """Typed wrapper around :meth:`access` for tests and examples."""
        hit, pos, wb = self.access(line_addr, is_write, window)
        return AccessOutcome(hit=hit, position=pos, writeback_addr=wb)

    def find(self, line_addr: int) -> int:
        """Global line index holding ``line_addr``, or -1 (no LRU update)."""
        return self.line_index.get(line_addr, -1)

    def contains(self, line_addr: int) -> bool:
        """Whether the line is resident (no LRU update)."""
        return line_addr in self.line_index

    def probe_position(self, line_addr: int) -> int:
        """Recency position of a resident line without promoting it; -1 if absent."""
        g = self.line_index.get(line_addr, -1)
        if g < 0:
            return -1
        return self.recency[g // self.associativity].index(g)

    def drop_lines(self, lines) -> None:
        """Invalidate the lines at global indices ``lines`` (no writebacks).

        The shared drop path of the decay and RPD refresh engines, the
        way-gating flush, ECC and the fault injector: tags and index
        entries go (a stale line has no entry to remove), valid/dirty are
        cleared, and the phase-window stamp is reset so polyphase refresh
        policies stop tracking the line.  Recency is left alone -- an
        invalid way already wins victim arbitration.  ``lines`` holds
        distinct indices; empty ways among them are a no-op.
        """
        lines = np.asarray(lines, dtype=np.int64)
        tags = self.tags
        held = tags[lines]
        live = held != EMPTY
        # Only demand lines have index entries; stale lines (most of a
        # warm cache's early flushes) skip the dict entirely.
        demand = held[live & (held < STALE_TAG_BASE << self.set_bits)]
        delete = self.line_index.__delitem__
        for addr in demand.tolist():
            delete(addr)
        sets, counts = np.unique(
            lines[live] // self.associativity, return_counts=True
        )
        resident = self.resident
        for s, c in zip(sets.tolist(), counts.tolist()):
            resident[s] -= c
        tags[lines] = EMPTY
        state = self.state
        state.valid[lines] = False
        state.dirty[lines] = False
        state.last_window[lines] = -1

    def invalidate_line(self, g: int) -> tuple[int | None, bool]:
        """Drop the line at global index ``g``; returns ``(tag, was_dirty)``.

        The uncorrectable-loss path of the ECC-extended refresh engine
        and the fault injector (see :meth:`drop_lines`).  ``tag`` is
        ``None`` when the way held no line.
        """
        tag = int(self.tags[g])
        was_dirty = bool(self.state.dirty[g])
        self.drop_lines([g])
        return (None if tag == EMPTY else tag), was_dirty

    def invalidate_all(self) -> None:
        """Drop every line (no writebacks)."""
        self.tags[:] = EMPTY
        self.line_index.clear()
        self.resident[:] = [0] * self.num_sets
        self.state.valid[:] = False
        self.state.dirty[:] = False
        self.state.last_window[:] = -1

    def fill_stale(self, filled: np.ndarray) -> None:
        """Install valid, clean, never-hit lines in the ways ``filled`` marks.

        ``filled`` is a bool mask over global line indices.  Each marked
        way gets a unique fabricated address at or above
        :data:`STALE_TAG_BASE` that maps back to its own set, so it
        collides with no real line.  Stale lines stay out of
        ``line_index``; only the refresh policies, which count valid
        lines, see them.
        """
        a = self.associativity
        g = np.flatnonzero(filled)
        self.tags[g] = ((STALE_TAG_BASE + g % a) << self.set_bits) | (g // a)
        self.state.valid[g] = True
        self.state.dirty[g] = False
        self.resident[:] = (
            self.state.valid.reshape(self.num_sets, a).sum(axis=1).tolist()
        )

    def leader_sets(self) -> list[int]:
        return [s for s, lead in enumerate(self.leader) if lead]

    # ------------------------------------------------------------------
    # Bulk tag/recency export-import (batch classification kernel)
    # ------------------------------------------------------------------

    def export_batch_state(self, set_indices) -> tuple:
        """Snapshot per-set tag/recency/dirty state as dense matrices.

        Parameters
        ----------
        set_indices:
            int64 array of distinct set indices (ascending), typically the
            sets touched by one classification batch.

        Returns
        -------
        tuple
            ``(tags_mat, ts0_mat, dirty_mat)``, each of shape
            ``(len(set_indices), associativity)``:

            * ``tags_mat`` -- rows of ``tags``: stored line addresses,
              :data:`EMPTY` for invalid ways;
            * ``ts0_mat`` -- synthetic last-access timestamps encoding the
              current recency order: way at recency position ``p`` gets
              ``-(1 + p)``, so MRU is the largest and every value is
              distinct.  Real (non-negative) record indices written over
              these preserve relative order under an ``argsort``;
            * ``dirty_mat`` -- the dirty bits (a copy; the kernel tracks
              eviction-time dirtiness without touching live state).

        Raises ``AssertionError`` if the tag matrix disagrees with the
        ``LineState.valid`` mirror -- the kernel classifies against this
        export, so a desync here must fail loudly, not corrupt results.
        """
        s_count = self.num_sets
        a = self.associativity
        rows = np.asarray(set_indices, dtype=np.int64)
        t_count = rows.shape[0]
        tags_mat = self.tags.reshape(s_count, a)[rows]
        # Recency rows hold global line indices; subtracting each row's
        # base turns them into way columns for the timestamp seeds.
        recency = self.recency
        order_mat = np.fromiter(
            chain.from_iterable(map(recency.__getitem__, rows.tolist())),
            np.int64,
            count=t_count * a,
        ).reshape(t_count, a)
        order_mat -= (rows * a)[:, None]
        ts0_mat = np.empty((t_count, a), dtype=np.int32)
        np.put_along_axis(
            ts0_mat,
            order_mat,
            -(1 + np.arange(a, dtype=np.int32))[None, :],
            axis=1,
        )
        valid_mat = self.state.valid.reshape(s_count, a)[rows]
        if ((tags_mat != EMPTY) != valid_mat).any():
            raise AssertionError(
                f"{self.name}: tag/valid mirror desync in batch export"
            )
        dirty_mat = self.state.dirty.reshape(s_count, a)[rows]
        return tags_mat, ts0_mat, dirty_mat

    def import_recency_orders(self, set_indices, order_mat) -> None:
        """Install recency orders reconstructed by the batch kernel.

        ``order_mat`` holds one way-permutation per row of
        ``set_indices`` (most-recently-used first).  Every row is
        validated as a permutation in one vectorised check before any set
        is touched, so a bad reconstruction cannot half-apply.
        """
        a = self.associativity
        rows = np.asarray(set_indices, dtype=np.int64)
        order_mat = np.asarray(order_mat)
        if order_mat.ndim != 2 or order_mat.shape[1] != a:
            raise AssertionError(
                f"{self.name}: imported recency rows have shape "
                f"{order_mat.shape}, expected (n, {a})"
            )
        bad = (np.sort(order_mat, axis=1) != np.arange(a)[None, :]).any(axis=1)
        if bad.any():
            raise AssertionError(
                f"{self.name}: imported recency row for set "
                f"{int(rows[bad.argmax()])} is not a permutation of {a} ways"
            )
        recency = self.recency
        for s, row in zip(rows.tolist(), (order_mat + (rows * a)[:, None]).tolist()):
            recency[s] = row

    # ------------------------------------------------------------------
    # Warm-image snapshot / restore (fast construction path)
    # ------------------------------------------------------------------

    def snapshot_image(self) -> tuple:
        """Capture the line state for :meth:`from_image`.

        Only meaningful for a cache in its post-construction steady state
        (all ways active, no leader sets, no profiling hooks): the image
        stores the flat tag, index, recency and residency containers and
        the line-state arrays, which is everything a freshly prefilled
        cache has.
        """
        state = self.state
        return (
            self.tags.copy(),
            self.line_index.copy(),
            [row.copy() for row in self.recency],
            self.resident.copy(),
            state.valid.copy(),
            state.dirty.copy(),
            state.last_window.copy(),
        )

    @classmethod
    def from_image(
        cls,
        geometry: CacheGeometry,
        image: tuple,
        name: str = "cache",
    ) -> "SetAssociativeCache":
        """Rebuild a cache from :meth:`snapshot_image` output.

        A clone is a handful of container copies -- two small lists, one
        per-set list copy for recency, and array copies -- which is far
        cheaper than construction plus prefill, and matters when a sweep
        builds many systems over the same geometry.  The clone shares
        nothing mutable with the image.
        """
        tags, line_index, recency, resident, valid, dirty, last_window = image
        state = LineState(geometry.num_sets, geometry.associativity)
        state.valid = valid.copy()
        state.dirty = dirty.copy()
        state.last_window = last_window.copy()
        self = cls.__new__(cls)
        self._adopt(
            geometry,
            name,
            tags.copy(),
            line_index.copy(),
            list(map(list.copy, recency)),
            resident.copy(),
            state,
        )
        return self

    def check_invariants(self) -> None:
        """Full-state consistency check (used by property tests).

        Asserts that the line index, ``tags`` and the ``valid`` mirror
        agree, that stale prefill lines are absent from the index, that
        the per-set resident counts are exact, that every recency row is
        a permutation of its set's lines, and that no gated way of a
        follower set holds a line.
        """
        s_count = self.num_sets
        a = self.associativity
        tags = self.tags
        valid = self.state.valid
        assert ((tags != EMPTY) == valid).all(), f"{self.name}: tag/valid desync"
        assert not (self.state.dirty & ~valid).any(), "invalid line is dirty"
        stale = (tags >> self.set_bits) >= STALE_TAG_BASE
        n_index = len(self.line_index)
        assert n_index == int(np.count_nonzero(valid & ~stale)), (
            f"{self.name}: line index holds {n_index} lines, not every "
            f"resident demand line and nothing else"
        )
        if n_index:
            addrs = np.fromiter(self.line_index, np.int64, count=n_index)
            gs = np.fromiter(self.line_index.values(), np.int64, count=n_index)
            assert (tags[gs] == addrs).all(), f"{self.name}: line index desync"
            assert ((addrs & self.active_set_mask) == gs // a).all(), (
                f"{self.name}: indexed line outside its set"
            )
        valid2d = valid.reshape(s_count, a)
        assert self.resident == valid2d.sum(axis=1).tolist(), (
            f"{self.name}: per-set resident counts out of sync"
        )
        lines = np.arange(s_count * a).reshape(s_count, a)
        assert (np.sort(np.array(self.recency), axis=1) == lines).all(), (
            f"{self.name}: a recency row is not a permutation of its set"
        )
        n_active = np.asarray(self.n_active)
        assert ((n_active >= 1) & (n_active <= a)).all(), "active ways out of range"
        gated = (lines % a >= n_active[:, None]) & ~np.asarray(self.leader)[:, None]
        assert not (valid2d & gated).any(), "gated way of a follower holds a line"

    def resident_lines(self) -> list[int]:
        """All resident line addresses, stale lines included (test helper)."""
        return self.tags[self.tags != EMPTY].tolist()
