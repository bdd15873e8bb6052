"""Vectorised multi-group reproducible summation.

The paper's problem with RSUM inside GROUP BY is that the HPC tuning
assumes *one* long vector, while a GROUP BY juggles many interleaved
sums.  The buffered operators solve this at the algorithm level; this
module solves it at the kernel level: :class:`GroupedSummation` runs the
anchor-extraction of :mod:`repro.core.state` for *all* groups at once
using NumPy element-wise arithmetic, with per-element anchors selected
by group id.

The final per-group states are bit-identical to feeding each group's
values through its own :class:`~repro.core.state.SummationState` — the
test suite asserts this — because:

* the ladder of a group depends only on the group's max |value| (fixed
  extractor grid), so it can be computed up-front in one segmented max;
* contributions ``q`` are a pure element-wise function of (value,
  level anchor), so NumPy lanes and a scalar loop round identically;
* contributions are accumulated as exact int64 quanta (bounds checked:
  ``|k| <= 2**(W-1)`` and chunks are capped so sums stay below 2**62).

There are two updates and no third.  :meth:`GroupedSummation.add_pairs`
is the **reference**: the chunked element-wise extraction above, held
directly against the scalar Algorithm-2 state, and the update every
other path is tested against.  :func:`add_blocked_multi` is what the
engine calls: it splits a morsel *by row*, and rows whose group sits on
the table's prevailing ladder **scatter**-accumulate with one scalar
anchor per level and no sort — float64 sums of the integral quanta are
exact in any order while no group receives more than the exactness
window, ``1 << (54 - W)`` rows.  A row the scatter declines — it is
NaN/±inf, it would raise a ladder, its group sits on another ladder or
on none, or its whole block has no scatter (subnormal bottom level, no
window, a finite magnitude past the ladder range, no finite non-zero
value at all) — takes the reference.  Carry-free partial states are exact under any chunking, so
*which* exact update takes a row is invisible in the bits; this is the
paper's "summation on batches" (§V) at the kernel level, with the
preprocessing kept off the per-row path.  The paper's C++ reaches the
same place with AVX + summation buffers, which we model in
``benchmarks/paper/simulator``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..core.params import RsumParams
from ..core.state import LadderOverflowError, SummationState

__all__ = [
    "GroupedSummation",
    "LadderCounters",
    "add_blocked_multi",
]

#: Ladder sentinel for "group has no finite non-zero value yet".
_EMPTY_E0 = -(2**40)

#: Chunk cap keeping int64 contribution sums exact:
#: chunk * 2**(W-1) <= 2**22 * 2**39 = 2**61 < 2**63 (binary64, W=40).
_CHUNK = 1 << 22


class GroupedSummation:
    """Reproducible running sums for ``ngroups`` groups at once."""

    def __init__(self, params: RsumParams, ngroups: int):
        if ngroups < 0:
            raise ValueError("ngroups must be non-negative")
        self.params = params
        self.ngroups = ngroups
        fmt = params.fmt
        self._m = fmt.mantissa_bits
        self._w = params.w
        self._L = params.levels
        self._emin = fmt.min_exponent
        self._emin_grid = -(-fmt.min_exponent // self._w) * self._w
        self._emax_grid = (fmt.max_exponent // self._w) * self._w
        self._dtype = fmt.dtype if fmt.dtype is not None else np.dtype(np.float64)
        #: Exactness window: how many level quanta (``|k| <= 2**(w-1)``)
        #: float64 sums exactly in any order — ``n * 2**(w-1) <= 2**53``
        #: — or 0 when the parameters leave no such window.
        self._window = (
            1 << (54 - self._w) if self._dtype.itemsize in (4, 8) else 0
        )
        self.e0 = np.full(ngroups, _EMPTY_E0, dtype=np.int64)
        self.s = [np.zeros(ngroups, dtype=np.int64) for _ in range(self._L)]
        self.c = [np.zeros(ngroups, dtype=np.int64) for _ in range(self._L)]
        self.nan_cnt = np.zeros(ngroups, dtype=np.int64)
        self.pos_cnt = np.zeros(ngroups, dtype=np.int64)
        self.neg_cnt = np.zeros(ngroups, dtype=np.int64)
        #: what the arrays above are row prefixes of once :meth:`resize`d
        self._spare: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        params: RsumParams,
        group_ids: np.ndarray,
        values: np.ndarray,
        ngroups: int,
    ) -> "GroupedSummation":
        """Aggregate ``(group_id, value)`` pairs in one vectorised pass."""
        grouped = cls(params, ngroups)
        grouped.add_pairs(group_ids, values)
        return grouped

    def add_pairs(self, group_ids: np.ndarray, values: np.ndarray) -> None:
        """Add a batch of pairs (chunked to keep int64 sums exact)."""
        gids = np.asarray(group_ids, dtype=np.int64)
        vals = np.asarray(values, dtype=self._dtype)
        if gids.shape != vals.shape or gids.ndim != 1:
            raise ValueError("group_ids and values must be equal-length 1-D")
        if gids.size and (gids.min() < 0 or gids.max() >= self.ngroups):
            raise IndexError("group id out of range")
        for start in range(0, gids.size, _CHUNK):
            self._add_chunk(gids[start : start + _CHUNK], vals[start : start + _CHUNK])

    def add_sorted_runs(self, group_ids: np.ndarray, values: np.ndarray) -> None:
        """:meth:`add_pairs` under the name of the retired sorted segment
        walk, whose contract — bit-identical to :meth:`add_pairs` over
        any permutation of the same pairs — it keeps trivially.  Here
        only because the frozen end-to-end tracer
        (``benchmarks/e2e/traced.py``) still times it; it goes with
        that file's dead rows."""
        self.add_pairs(group_ids, values)

    def _count_non_finite(self, gids: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """Count NaN / ±inf per group; returns the finite mask."""
        finite = np.isfinite(vals)
        if not finite.all():
            np.add.at(self.nan_cnt, gids[np.isnan(vals)], 1)
            np.add.at(self.pos_cnt, gids[vals == np.inf], 1)
            np.add.at(self.neg_cnt, gids[vals == -np.inf], 1)
        return finite

    def _needed_e0(self, maxima: np.ndarray) -> np.ndarray:
        """Top ladder exponent each non-zero finite ``|max|`` calls for."""
        _, exps = np.frexp(maxima)
        raw = exps.astype(np.int64) - 1 + self._m - self._w + 2
        needed = -((-raw) // self._w) * self._w
        if np.any(needed > self._emax_grid):
            raise LadderOverflowError(
                "input magnitude exceeds the extractor ladder range"
            )
        return np.maximum(needed, self._emin_grid)

    def _elementwise_quanta(self, gids: np.ndarray, vals: np.ndarray):
        """Anchor extraction under per-element anchors (groups on mixed
        ladders, or levels below the normal range): yields each level's
        int64 quanta for all elements at once.  Caller owns the ladder
        demotion beforehand and :meth:`_propagate` after."""
        e0_elem = self.e0[gids]
        r = vals
        for level in range(self._L):
            e_l = e0_elem - level * self._w
            active = e_l >= self._emin
            anchor_exp = np.where(active, e_l, 0).astype(np.int32)
            anchor = np.ldexp(self._dtype.type(1.5), anchor_exp)
            q = (r + anchor) - anchor
            q = np.where(active, q, self._dtype.type(0))
            r = r - q
            shift = np.where(active, self._m - e_l, 0).astype(np.int32)
            yield level, np.ldexp(q, shift).astype(np.int64)

    def _add_chunk(self, gids: np.ndarray, vals: np.ndarray) -> None:
        keep = self._count_non_finite(gids, vals) & (vals != 0)
        if not keep.all():
            gids = gids[keep]
            vals = vals[keep]
        if gids.size == 0:
            return

        # Ladder update: per-group max |value| decides the top exponent.
        groupmax = np.zeros(self.ngroups, dtype=self._dtype)
        np.maximum.at(groupmax, gids, np.abs(vals))
        touched = groupmax > 0
        target = self.e0.copy()
        target[touched] = np.maximum(
            target[touched], self._needed_e0(groupmax[touched])
        )
        self._demote_to(target)

        for level, k in self._elementwise_quanta(gids, vals):
            np.add.at(self.s[level], gids, k)
        self._propagate()

    # ------------------------------------------------------------------
    # Ladder maintenance
    # ------------------------------------------------------------------
    def _demote_to(self, target_e0: np.ndarray) -> None:
        """Raise group ladders to ``target_e0`` (level shift, exact)."""
        valid = self.e0 > _EMPTY_E0
        grows = target_e0 > self.e0
        fresh = ~valid & (target_e0 > _EMPTY_E0)
        self.e0[fresh] = target_e0[fresh]
        moving = valid & grows
        if not moving.any():
            return
        shifts = np.zeros(self.ngroups, dtype=np.int64)
        shifts[moving] = (target_e0[moving] - self.e0[moving]) // self._w
        for sigma in np.unique(shifts[moving]):
            mask = shifts == sigma
            sig = int(sigma)
            for level in range(self._L - 1, -1, -1):
                src = level - sig
                if src >= 0:
                    self.s[level][mask] = self.s[src][mask]
                    self.c[level][mask] = self.c[src][mask]
                else:
                    self.s[level][mask] = 0
                    self.c[level][mask] = 0
        self.e0[moving] = target_e0[moving]

    def _propagate(self) -> None:
        """Vectorised carry propagation: canonicalise s into [0, 2**(m-2))."""
        quantum_bits = self._m - 2
        for level in range(self._L):
            s = self.s[level]
            d = s >> quantum_bits  # arithmetic shift == floor division
            np.subtract(s, d << quantum_bits, out=s)
            self.c[level] += d

    # ------------------------------------------------------------------
    # Merging (thread-private tables into the shared table)
    # ------------------------------------------------------------------
    def merge(self, other: "GroupedSummation", mapping: np.ndarray | None = None) -> None:
        """Fold ``other`` in; ``mapping[g]`` is the target group of other's g.

        ``mapping`` must be injective (each source group hits a distinct
        target), which holds when both sides are keyed group tables.
        """
        if other.params != self.params:
            raise ValueError("cannot merge with different parameters")
        if mapping is None:
            if other.ngroups != self.ngroups:
                raise ValueError("group counts differ and no mapping given")
            mapping = np.arange(self.ngroups, dtype=np.int64)
        else:
            mapping = np.asarray(mapping, dtype=np.int64)
            if mapping.size != other.ngroups:
                raise ValueError("mapping must cover all source groups")
            if np.unique(mapping).size != mapping.size:
                raise ValueError("mapping must be injective")

        np.add.at(self.nan_cnt, mapping, other.nan_cnt)
        np.add.at(self.pos_cnt, mapping, other.pos_cnt)
        np.add.at(self.neg_cnt, mapping, other.neg_cnt)

        src_valid = other.e0 > _EMPTY_E0
        if not src_valid.any():
            return
        # Raise both sides to the joint ladder.
        target = self.e0.copy()
        tgt_idx = mapping[src_valid]
        np.maximum.at(target, tgt_idx, other.e0[src_valid])
        self._demote_to(target)

        joint = self.e0[mapping]  # per-source-group target ladder
        shifts = np.zeros(other.ngroups, dtype=np.int64)
        shifts[src_valid] = (joint[src_valid] - other.e0[src_valid]) // self._w
        for sigma in np.unique(shifts[src_valid]):
            mask = src_valid & (shifts == sigma)
            sig = int(sigma)
            tgt = mapping[mask]
            for level in range(self._L):
                src = level - sig
                if src >= 0:
                    np.add.at(self.s[level], tgt, other.s[src][mask])
                    np.add.at(self.c[level], tgt, other.c[src][mask])
        self._propagate()

    # ------------------------------------------------------------------
    # Finalisation / interop
    # ------------------------------------------------------------------
    def finalize(self) -> np.ndarray:
        """Per-group reproducible sums (Equation 1, vectorised)."""
        dt = self._dtype.type
        res = np.zeros(self.ngroups, dtype=self._dtype)
        valid = self.e0 > _EMPTY_E0
        for level in range(self._L - 1, -1, -1):
            e_l = self.e0 - level * self._w
            active = valid & (e_l >= self._emin)
            exp = np.where(active, e_l, 0).astype(np.int32)
            offset = np.ldexp(self.s[level].astype(self._dtype), exp - self._m)
            carries = self.c[level].astype(self._dtype) * np.ldexp(dt(0.25), exp)
            term = offset + carries
            res = np.where(active, res + term, res)
        has_nan = (self.nan_cnt > 0) | ((self.pos_cnt > 0) & (self.neg_cnt > 0))
        res = np.where(self.pos_cnt > 0, dt(np.inf), res)
        res = np.where(self.neg_cnt > 0, dt(-np.inf), res)
        res = np.where(has_nan, dt(np.nan), res)
        return res

    def resize(self, ngroups: int) -> None:
        """Grow the table to ``ngroups`` (new groups start empty).

        Used by the streaming aggregation when previously unseen keys
        arrive; existing group states are untouched, so growth cannot
        affect any bits.
        """
        if ngroups < self.ngroups:
            raise ValueError("cannot shrink a grouped summation")
        if ngroups == self.ngroups:
            return
        arrays = [self.e0, *self.s, *self.c,
                  self.nan_cnt, self.pos_cnt, self.neg_cnt]
        spare = self._spare
        if (spare is None or spare.shape[1] < ngroups
                or any(arr.base is not spare for arr in arrays)):
            # Grow geometrically: a table that gains groups every
            # morsel pays one allocation and copy per doubling, not
            # nine per morsel.
            spare = self._spare = np.zeros(
                (len(arrays), max(ngroups, 2 * self.ngroups)), dtype=np.int64)
            spare[0] = _EMPTY_E0
            for row, arr in zip(spare, arrays):
                row[:self.ngroups] = arr
        self.e0, *rows = (row[:ngroups] for row in spare)
        self.s, self.c = rows[:self._L], rows[self._L:2 * self._L]
        self.nan_cnt, self.pos_cnt, self.neg_cnt = rows[-3:]
        self.ngroups = ngroups

    def nbytes(self) -> int:
        """Resident bytes of the per-group ladder arrays (the memory
        the engine's budget accounting charges for one repro-sum
        state)."""
        per_level = sum(s.nbytes + c.nbytes for s, c in zip(self.s, self.c))
        return (
            self.e0.nbytes + per_level
            + self.nan_cnt.nbytes + self.pos_cnt.nbytes + self.neg_cnt.nbytes
        )

    def to_state(self, group: int) -> SummationState:
        """Extract one group as a scalar :class:`SummationState`."""
        state = SummationState(self.params)
        if self.e0[group] > _EMPTY_E0:
            state.e0 = int(self.e0[group])
            state.s = [int(self.s[level][group]) for level in range(self._L)]
            state.c = [int(self.c[level][group]) for level in range(self._L)]
        state.nan_count = int(self.nan_cnt[group])
        state.posinf_count = int(self.pos_cnt[group])
        state.neginf_count = int(self.neg_cnt[group])
        return state

    def state_tuples(self) -> list:
        """Canonical identity per group (for reproducibility assertions)."""
        return [self.to_state(g).state_tuple() for g in range(self.ngroups)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupedSummation({self.ngroups} groups, L={self._L}, "
            f"{self.params.fmt.name})"
        )


#: Largest element count kept as persistent per-thread scratch (beyond
#: it, buffers are allocated per call rather than pinned).
_SCRATCH_CAP = 1 << 18

_SCRATCH = threading.local()


def _scratch(slot: str, count: int, dtype) -> np.ndarray:
    """Thread-local 1-D scratch of ``count`` elements, one per ``slot``.

    The scatter's temporaries are as large as its block, so freshly
    allocating them every call means every pass streams through
    cold pages.  Reusing one buffer per thread and slot keeps those
    pages warm in cache from block to block; per-worker tables make the
    kernels thread-confined, so ``threading.local`` is the whole story.
    Oversized requests fall back to plain allocation to keep the pinned
    footprint bounded.
    """
    if count > _SCRATCH_CAP:
        return np.empty(count, dtype=dtype)
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None:
        bufs = _SCRATCH.bufs = {}
    key = (slot, np.dtype(dtype))
    buf = bufs.get(key)
    if buf is None or buf.size < count:
        buf = bufs[key] = np.empty(
            min(max(count, 1 << 14), _SCRATCH_CAP), dtype=dtype
        )
    return buf[:count]


class LadderCounters:
    """Which update the rows fed to :func:`add_blocked_multi` took, in
    rows summed over tables: scatter-accumulated on their table's
    prevailing ladder, or handed to the reference — and why the first
    row that went there did (``off_ladder``: it raises a ladder, or its
    group sits on another one or on none; ``non_finite``;
    ``subnormal`` / ``window``: the parameters leave the block no
    scatter at all)."""

    __slots__ = ("scatter", "reference", "first_decline")

    def __init__(self):
        self.scatter = 0
        self.reference = 0
        self.first_decline: str | None = None

    def decline(self, rows: int, reason: str | None) -> None:
        self.reference += rows
        if self.first_decline is None:
            self.first_decline = reason

    def merge(self, other: "LadderCounters") -> None:
        self.scatter += other.scatter
        self.decline(other.reference, other.first_decline)


def _same_params(tables) -> list:
    tables = list(tables)
    for table in tables[1:]:
        if table.params != tables[0].params:
            raise ValueError("ladder tables must share identical parameters")
    return tables


def add_blocked_multi(tables: list, group_ids: np.ndarray, values_rows: list,
                      counters: LadderCounters | None = None) -> None:
    """The ladder update every reproducible SUM goes through: feed
    unsorted ``(group id, value)`` pairs to several same-parameter
    tables (``values_rows[i]`` goes to ``tables[i]``), bit-identical to
    per-table :meth:`GroupedSummation.add_pairs`.

    Ladder states are exact under any chunking and permutation of their
    input, so each table's rows are split *by row*.  With ``E`` the
    table's prevailing ladder (its highest top exponent; for an empty
    table, the one the block's ``|max|`` calls for) and ``m``, ``w``
    the mantissa bits and ``W``:

    * **warm** rows — ``|v| < 2**(E-m+w-1)`` (the row fits under ``E``)
      and the group sits on ``E`` — scatter-accumulate with one scalar
      anchor per level and ``np.bincount``: no sort, no gather.
    * **cold** rows — NaN/±inf, rows that would raise a ladder, rows of
      groups on another ladder or on none — are declined: after the
      scatter they take the update every other path is tested against,
      ``table.add_pairs(gids[cold], vals[cold])``, with every filter
      and demotion of the reference.

    **Seeding.**  An empty group that receives a row needing exactly
    ``E`` (``2**(E-m-1) <= |v|``, or just ``v != 0`` on the floor
    ladder) is put on ``E`` first, which makes its fitting rows warm.
    The reference puts a group on the ladder of its own ``|max|``; that
    row proves the max calls for at least ``E``, and a row calling for
    more is cold and demotes the group afterwards exactly as a later
    chunk would.  A group whose rows are all zero or all below ``E``'s
    class is not seeded — the reference leaves it empty, or on a lower
    ladder — so those rows are cold.

    **Exactness of the scatter.**  A warm row has ``|v| < 2**(eb+1)``
    with ``eb + m - w + 2 <= E``, so every level quantum
    ``q = k * 2**(e_l - m)`` has ``|k| <= 2**(w-1)`` whether ``m`` is
    52 or 23.  The extraction runs element-wise in the table dtype with
    anchors ``ldexp(1.5, e_l)`` (exact: one significand bit), so each
    quantum is the one the reference computes; cold positions are
    zero-filled, and a zero extracts a zero quantum at every level — an
    exact no-op, as in the zero-filtering reference (``s += 0`` on a
    canonical state, then an idempotent propagate).  ``np.bincount``
    sums its weights in float64 (every binary32 quantum converts
    exactly) and *per bin*: with at most ``n`` rows in a group, every
    partial sum is an integer multiple of ``2**(e_l - m)`` with integer
    part at most ``n * 2**(w-1)``, representable and closed under
    addition in any order while ``n <= 2**(54-w)``.  ``np.ldexp`` lifts
    the bin sums to whole int64 quanta exactly (the shift can leave the
    power-of-two-float range near ``emin``, so no ``2.0**p``) and they
    join the carry-propagated state before the next block.

    So the window — ``1 << (54 - w)``, 16 384 at ``W = 40``, derived
    from the parameters and not a knob — bounds the rows of one group,
    not of one block: when no group receives more the input is one
    block (a scratch buffer's worth at a time), otherwise it is taken
    a window at a time.  Subnormal bottom levels, a format with no
    window (binary16), a block with no finite non-zero value and a
    finite magnitude past the ladder range decline the whole block of
    every table: the reference then runs table by table, so a
    :class:`LadderOverflowError` leaves the earlier tables applied and
    the later ones untouched, as a loop over ``add_pairs`` would.
    ``counters`` records rows per update.
    """
    tables = _same_params(tables)
    if not tables:
        return
    first = tables[0]
    gids = np.asarray(group_ids, dtype=np.int64)
    rows = [np.asarray(r, dtype=first._dtype) for r in values_rows]
    if (gids.ndim != 1 or len(rows) != len(tables)
            or any(r.shape != gids.shape for r in rows)):
        raise ValueError("one equal-length 1-D values row per table required")
    n = gids.size
    if n == 0:
        return
    ngroups = min(t.ngroups for t in tables)
    # one pass: viewed unsigned, a negative id is out of range upwards
    if int(gids.view(np.uint64).max()) >= ngroups:
        raise IndexError("group id out of range")
    if counters is None:
        counters = LadderCounters()
    window = first._window
    if not window:
        counters.decline(n * len(tables), "window")
        for table, vals in zip(tables, rows):
            table.add_pairs(gids, vals)
        return
    # Counting rows per group costs a pass over the rows and saves one
    # over the groups per block avoided: tried only when the groups
    # outnumber a block's rows.
    if n <= window or (ngroups >= window
                       and int(np.bincount(gids).max()) <= window):
        step = min(n, _SCRATCH_CAP)
    else:
        step = window
    for pos in range(0, n, step):
        _add_block(tables, gids[pos:pos + step],
                   [r[pos:pos + step] for r in rows], counters)


def _add_block(tables: list, gids: np.ndarray, rows: list,
               counters: LadderCounters) -> None:
    """One block of :func:`add_blocked_multi` (which carries the
    proof): in-range ids, at most ``window`` rows per group."""
    first = tables[0]
    m, w = first._m, first._w
    n = gids.size
    plans = []  # (table, values, ladder, |max|, min |v| or 0, table empty)
    reason = None  # why the scatter declines the whole block, if it does
    for table, vals in zip(tables, rows):
        # max/min propagate NaN and catch ±inf without a full |.| pass
        vmin, vmax = float(vals.min()), float(vals.max())
        top = max(vmax, -vmin)
        if top == 0:
            continue  # all zeros: an exact no-op, as in the reference
        # the finite |max| ranks the block; NaN/±inf rows go cold alone
        peak = top
        if not top < math.inf:
            peak = float(np.abs(vals[np.isfinite(vals)]).max(initial=0))
            if peak == 0:
                reason = "non_finite"
                break
        if peak >= math.ldexp(1.0, first._emax_grid - m + w - 1):
            reason = "off_ladder"  # the reference raises its range error
            break
        e0 = int(table.e0.max())
        empty = e0 == _EMPTY_E0
        if empty:
            e0 = int(first._needed_e0(first._dtype.type(peak)))
        if e0 - (first._L - 1) * w < first._emin:
            reason = "subnormal"
            break
        # known without a pass when the block is single-signed
        least = vmin if vmin > 0 else -vmax if vmax < 0 else 0.0
        plans.append((table, vals, e0, top, least, empty))
    if reason is not None:
        counters.decline(n * len(tables), reason)
        for table, vals in zip(tables, rows):
            table.add_pairs(gids, vals)
        return
    counters.scatter += n * (len(tables) - len(plans))

    for table, vals, e0, top, least, empty in plans:
        cold = _cold_rows(table, gids, vals, e0, top, least, empty)
        ncold = 0 if cold is None else cold.size
        counters.scatter += n - ncold
        if ncold < n:
            _scatter(table, gids, vals, e0, cold)
        if ncold:
            counters.decline(ncold, "off_ladder" if math.isfinite(
                vals[cold[0]]) else "non_finite")
            table.add_pairs(gids[cold], vals[cold])


def _cold_rows(table: GroupedSummation, gids: np.ndarray, vals: np.ndarray,
               e0: int, top: float, least: float,
               empty: bool) -> np.ndarray | None:
    """Seed the empty groups a row of this block puts on ``e0``; return
    the indices of the rows that cannot scatter there (``None``: every
    row can).  ``top`` is the block's ``|max|`` (NaN or inf if it holds
    one), ``least`` its smallest ``|v|`` where known, else 0; ``empty``:
    no group of the table is on a ladder yet."""
    m, w = table._m, table._w
    fits_under = math.ldexp(1.0, e0 - m + w - 1)
    fits = top < fits_under
    lo = _EMPTY_E0 if empty else int(table.e0.min())
    if fits and lo == e0:
        return None  # steady state: one ladder, and it holds the block
    # a row needs exactly ``e0`` from here up (any non-zero one does on
    # the floor ladder, which nothing sits below)
    needs = (np.ldexp(table._dtype.type(1), e0 - m - 1)
             if e0 > table._emin_grid
             else np.finfo(table._dtype).smallest_subnormal)
    if fits and empty and least >= needs:
        table.e0[gids] = e0  # every row seeds its group
        return None
    idx = None  # rows that may be cold; None = every row
    if lo == e0:
        idx = np.flatnonzero(~(np.abs(vals) < fits_under))
    elif not empty:
        off = (table.e0 != e0).take(gids)
        if not fits:
            off |= ~(np.abs(vals) < fits_under)
        idx = np.flatnonzero(off)
    g, v = (gids, vals) if idx is None else (gids[idx], vals[idx])
    mag = np.abs(v)
    warm = mag < fits_under
    if lo == _EMPTY_E0:
        seeds = g[warm & (mag >= needs)]
        if not empty:
            seeds = seeds[table.e0[seeds] == _EMPTY_E0]
        table.e0[seeds] = e0
    warm &= (table.e0 == e0).take(g)
    cold = np.flatnonzero(~warm)
    if cold.size == 0:
        return None
    return cold if idx is None else idx[cold]


def _scatter(table: GroupedSummation, gids: np.ndarray, vals: np.ndarray,
             e0: int, cold: np.ndarray | None) -> None:
    """Scatter-accumulate the rows of one block on ladder ``e0``, the
    ``cold`` ones zero-filled (see :func:`add_blocked_multi`)."""
    m, w, levels = table._m, table._w, table._L
    dt = table._dtype.type
    q = _scratch("q", gids.size, table._dtype)
    r = _scratch("r", gids.size, table._dtype)
    src = vals
    if cold is not None:
        np.copyto(r, vals)
        r[cold] = 0
        src = r
    for level in range(levels):
        e_l = e0 - level * w
        anchor = np.ldexp(dt(1.5), e_l)
        np.add(src, anchor, out=q)
        np.subtract(q, anchor, out=q)
        if level + 1 < levels:
            np.subtract(src, q, out=r)
            src = r
        sums = np.bincount(gids, weights=q, minlength=table.ngroups)
        table.s[level] += np.ldexp(sums, m - e_l).astype(np.int64)
    table._propagate()
