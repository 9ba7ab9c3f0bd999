"""Stack-distance-based synthetic L2 trace generator (system S15).

The paper's evaluation drives a 4-8 MB LLC with SPEC CPU2006 / HPC-proxy
traces.  We cannot ship those, so this module generates traces whose
*LLC-visible* properties -- working-set size, per-set LRU-position reuse
profile, write fraction, memory intensity, phase behaviour, and LRU vs
non-LRU access-pattern shape -- are controlled directly, because those are
exactly the properties ESTEEM and RPV react to.

Model
-----
Addresses are organised into ``V`` *virtual sets* (default 4096, matching
the default L2 set count; caches with more/fewer real sets dilute/alias the
virtual sets, which mirrors how a real trace redistributes over a different
geometry).  Each virtual set keeps a recency stack of the lines recently
touched in it.  Every record is one of:

* ``near`` -- a stack-distance reuse: pick a virtual set, draw a depth from
  a geometric distribution with mean ``d_mean``, and touch the line at that
  recency depth (promoting it).  This is what generates LRU-friendly,
  monotonically-decaying position histograms (Section 3.1).
* ``far`` -- a uniform reuse anywhere in the working set (captures
  scattered pointer-chasing traffic; not promoted, an accepted
  approximation documented in DESIGN.md).
* ``new`` -- the next cold line, allocated sequentially, wrapping at the
  working-set size (streaming traffic).

The ``scan`` pattern instead walks the working set cyclically, which is the
classic anti-LRU access pattern (hits land at deep, non-monotonic recency
positions -- the omnetpp/xalancbmk behaviour the non-LRU guard of
Algorithm 1 exists for).  The ``stream`` pattern allocates cold lines
almost exclusively (libquantum/milc-style, ~100% miss rate).

Randomness is drawn vectorised with NumPy per segment; only the recency
stack maintenance runs in the per-record Python loop.  The instruction
budget cuts the last segment: the loop stops at the record that meets the
budget, while that segment's draws stay full length, so the random stream
-- and hence every trace -- is the same as resolving the whole segment and
truncating it.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.profiles import BenchmarkProfile

__all__ = ["PhaseSpec", "SyntheticTraceGenerator", "generate_trace", "VIRTUAL_SETS"]

#: Number of virtual sets addresses are striped over (= default L2 set count).
VIRTUAL_SETS: int = 4096

_VSET_BITS: int = VIRTUAL_SETS.bit_length() - 1

#: Cap on per-virtual-set stack depth (bounds deque maintenance cost).
_MAX_STACK_DEPTH: int = 96


@dataclass(frozen=True)
class PhaseSpec:
    """One execution phase of a workload.

    Attributes
    ----------
    ws_lines:
        Working-set size in cache lines (64 B each); 65536 lines = 4 MB.
    p_new:
        Probability a record touches the next cold/streaming line.
    p_near:
        Probability of a geometric stack-distance reuse; the remainder
        ``1 - p_new - p_near`` is a uniform (``far``) reuse.
    d_mean:
        Mean recency depth of near reuses, in per-set position units
        (1.0 keeps hits at MRU; ~8 spreads them across a 16-way set).
    pattern:
        ``"mixture"`` (default LRU-friendly blend), ``"scan"`` (cyclic
        anti-LRU walk), or ``"stream"`` (cold sequential).
    segment_records:
        Records generated before the generator moves to the next phase
        (phases cycle; this drives intra-application variation, Fig. 2).
    """

    ws_lines: int
    p_new: float = 0.05
    p_near: float = 0.80
    d_mean: float = 3.0
    pattern: str = "mixture"
    segment_records: int = 50_000

    def __post_init__(self) -> None:
        if self.ws_lines < 1:
            raise ValueError("working set must contain at least one line")
        if not (0.0 <= self.p_new <= 1.0 and 0.0 <= self.p_near <= 1.0):
            raise ValueError("probabilities must be in [0, 1]")
        if self.p_new + self.p_near > 1.0 + 1e-9:
            raise ValueError("p_new + p_near must not exceed 1")
        if self.d_mean < 1.0:
            raise ValueError("d_mean must be at least 1")
        if self.pattern not in ("mixture", "scan", "stream"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.segment_records < 1:
            raise ValueError("segment must contain at least one record")


class SyntheticTraceGenerator:
    """Generates :class:`~repro.workloads.trace.Trace` objects from a profile."""

    def __init__(self, profile: "BenchmarkProfile", seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed

    def generate(
        self,
        max_instructions: int,
        max_records: int | None = None,
    ) -> Trace:
        """Generate a trace covering ``max_instructions`` instructions.

        Generation stops at whichever limit is hit first; every workload
        therefore represents the same instruction budget regardless of its
        memory intensity (matching the paper's fixed 400 M-instruction
        simulation windows).
        """
        profile = self.profile
        # zlib.crc32 rather than hash(): string hashing is salted per
        # process, and traces must be reproducible across runs.
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [zlib.crc32(profile.name.encode("utf-8")), self.seed]
            )
        )
        # Per-segment NumPy columns, concatenated once at the end -- the
        # trace stays array-backed with no list round-trips.
        addr_chunks: list[np.ndarray] = []
        write_chunks: list[np.ndarray] = []
        gap_chunks: list[np.ndarray] = []
        n_records = 0

        # Per-virtual-set recency stacks and cold-allocation cursors are
        # shared across phases (phases of one application share its address
        # space).  The stacks are pre-seeded with the largest phase's working
        # set: the trace represents a window 10 B instructions into the
        # run, by which point the working set is resident in the
        # application's reuse structure -- without seeding, a scaled-down
        # trace would start with depth-1 stacks and every near reuse would
        # collapse to the MRU position.
        stacks: dict[int, deque] = {}
        cold_cursor = self._seed_stacks(
            stacks, max(ph.ws_lines for ph in profile.phases)
        )
        scan_cursor = 0

        instructions = 0
        record_cap = max_records if max_records is not None else 1 << 62
        phases = profile.phases
        phase_idx = 0

        while instructions < max_instructions and n_records < record_cap:
            phase = phases[phase_idx % len(phases)]
            phase_idx += 1
            n = min(phase.segment_records, record_cap - n_records)
            seg = self._generate_segment(
                phase, n, max_instructions - instructions, rng, stacks,
                cold_cursor, scan_cursor,
            )
            seg_addrs, seg_writes, seg_gaps, cold_cursor, scan_cursor = seg
            addr_chunks.append(seg_addrs)
            write_chunks.append(seg_writes)
            gap_chunks.append(seg_gaps)
            n_records += len(seg_addrs)
            instructions += int(seg_gaps.sum()) + len(seg_gaps)

        return Trace(
            name=profile.name,
            addrs=(
                np.concatenate(addr_chunks)
                if addr_chunks
                else np.empty(0, dtype=np.int64)
            ),
            writes=(
                np.concatenate(write_chunks)
                if write_chunks
                else np.empty(0, dtype=bool)
            ),
            gaps=(
                np.concatenate(gap_chunks)
                if gap_chunks
                else np.empty(0, dtype=np.int64)
            ),
            base_cpi=profile.base_cpi,
            mem_mlp=profile.mem_mlp,
            footprint_lines=profile.footprint_lines,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _seed_stacks(stacks: dict[int, deque], ws_lines: int) -> int:
        """Populate the per-virtual-set recency stacks with ``ws_lines``.

        Lines are laid out exactly as the cold allocator would have placed
        them; returns the cold-allocation cursor (== ws_lines, so the first
        "new" touch wraps, modelling steady-state streaming).
        """
        for vset in range(min(ws_lines, VIRTUAL_SETS)):
            per_set = (ws_lines - vset - 1) // VIRTUAL_SETS + 1
            # Line k of this set is (k << _VSET_BITS) | vset; the deque
            # keeps only the last _MAX_STACK_DEPTH lines, so build just those.
            first = max(0, per_set - _MAX_STACK_DEPTH)
            stacks[vset] = deque(
                range(
                    (first << _VSET_BITS) | vset,
                    (per_set << _VSET_BITS) | vset,
                    VIRTUAL_SETS,
                ),
                maxlen=_MAX_STACK_DEPTH,
            )
        return ws_lines

    def _generate_segment(
        self,
        phase: PhaseSpec,
        n: int,
        budget: int,
        rng: np.random.Generator,
        stacks: dict[int, deque],
        cold_cursor: int,
        scan_cursor: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """Draw ``n`` records for one phase segment; keep those within
        ``budget`` instructions (NumPy columns)."""
        profile = self.profile
        # Vectorised randomness.
        writes = rng.random(n) < profile.write_fraction
        gap_mean = profile.gap_mean
        if gap_mean > 0:
            gaps = (rng.geometric(1.0 / (gap_mean + 1.0), size=n) - 1).astype(
                np.int64
            )
        else:
            gaps = np.zeros(n, dtype=np.int64)

        # Cut at the instruction budget: the record that meets it is the
        # last.  side="left": when some prefix meets the budget exactly,
        # the record after it must not ride along.  Only the kept records
        # are resolved to addresses.
        cum = np.cumsum(gaps + 1)
        keep = n
        if cum[-1] > budget:
            keep = int(np.searchsorted(cum, budget, side="left")) + 1

        if phase.pattern == "scan":
            addrs, scan_cursor = self._scan_addresses(phase, keep, scan_cursor)
        else:
            addrs, cold_cursor = self._mixture_addresses(
                phase, n, keep, rng, stacks, cold_cursor
            )
        return addrs, writes[:keep], gaps[:keep], cold_cursor, scan_cursor

    @staticmethod
    def _line_addr(vset: int, k: int) -> int:
        return (k << _VSET_BITS) | vset

    def _scan_addresses(
        self,
        phase: PhaseSpec,
        n: int,
        cursor: int,
    ) -> tuple[np.ndarray, int]:
        """Cyclic sequential walk over the working set (anti-LRU)."""
        ws = phase.ws_lines
        idx = (np.arange(cursor, cursor + n)) % ws
        vsets = idx % VIRTUAL_SETS
        ks = idx // VIRTUAL_SETS
        addrs = ((ks << _VSET_BITS) | vsets).astype(np.int64)
        return addrs, (cursor + n) % ws

    def _mixture_addresses(
        self,
        phase: PhaseSpec,
        n: int,
        keep: int,
        rng: np.random.Generator,
        stacks: dict[int, deque],
        cold_cursor: int,
    ) -> tuple[np.ndarray, int]:
        """Near/far/new mixture resolved against the virtual-set stacks.

        Draws ``n`` records' randomness but resolves only the first
        ``keep``: the draws stay full length so the random stream (and
        every kept record) is the same as resolving all ``n``.
        """
        ws = phase.ws_lines
        p_new = phase.p_new
        p_near = phase.p_near
        if phase.pattern == "stream":
            p_new, p_near = max(p_new, 0.95), min(p_near, 0.05)

        u = rng.random(n)[:keep]
        # kind: 0 = new, 1 = near, 2 = far
        kinds = np.where(u < p_new, 0, np.where(u < p_new + p_near, 1, 2))
        depths = np.minimum(
            rng.geometric(1.0 / phase.d_mean, size=n)[:keep] - 1,
            _MAX_STACK_DEPTH - 1,
        ).tolist()
        far_ids = rng.integers(0, ws, size=n)[:keep].tolist()
        vset_picks = rng.integers(0, VIRTUAL_SETS, size=n)[:keep].tolist()
        kinds_list = kinds.tolist()

        vbits = _VSET_BITS
        addrs: list[int] = []
        append = addrs.append
        active_vsets: list[int] = list(stacks.keys())

        for i in range(keep):
            kind = kinds_list[i]
            if kind == 1 and active_vsets:
                # Near reuse: geometric recency depth inside a virtual set
                # that has history.
                v = active_vsets[vset_picks[i] % len(active_vsets)]
                dq = stacks[v]
                d = depths[i]
                ln = len(dq)
                if d >= ln:
                    d = ln - 1
                if d == 0:
                    addr = dq[-1]
                else:
                    addr = dq[-1 - d]
                    del dq[-1 - d]
                    dq.append(addr)
                append(addr)
            elif kind == 2:
                # Far reuse: uniform over the working set (not promoted).
                line_id = far_ids[i]
                append(((line_id // VIRTUAL_SETS) << vbits) | (line_id % VIRTUAL_SETS))
            else:
                # New/cold line, allocated sequentially, wrapping at ws.
                line_id = cold_cursor % ws
                cold_cursor += 1
                v = line_id % VIRTUAL_SETS
                addr = ((line_id // VIRTUAL_SETS) << vbits) | v
                dq = stacks.get(v)
                if dq is None:
                    dq = deque(maxlen=_MAX_STACK_DEPTH)
                    stacks[v] = dq
                    active_vsets.append(v)
                dq.append(addr)
                append(addr)
        return np.asarray(addrs, dtype=np.int64), cold_cursor


def generate_trace(
    profile: "BenchmarkProfile",
    max_instructions: int,
    seed: int = 0,
    max_records: int | None = None,
) -> Trace:
    """Convenience wrapper: one-call trace generation."""
    return SyntheticTraceGenerator(profile, seed=seed).generate(
        max_instructions, max_records=max_records
    )
