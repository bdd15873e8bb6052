"""Retractable (invertible) reproducible grouped summation.

The paper's exact-merge property makes partial aggregate states
*invertible*: because contributions are accumulated as exact integer
quanta on a fixed extractor grid, a value's contribution can be
subtracted again without any rounding residue.  That is what enables
incrementally-maintained materialized aggregate views — merge the
partial states of inserted rows, *retract* those of deleted rows, and
the refreshed view is byte-identical to recomputing it from scratch.

One wrinkle stands between the L-level :class:`GroupedSummation` state
and exact retraction: the engine's query-time state keeps only the top
``L`` grid levels relative to the group's running ``max |value|``, and
a ladder promotion *discards* the levels that fall below the horizon.
Retracting the maximum would require un-promoting the ladder and
recovering those discarded bins — information the truncated state no
longer has.

This module therefore maintains the **full-grid** form of the same
state:

* one integer bin ``(s, c)`` per extractor-grid slot that has ever
  received a quantum (sparse: real data touches a handful of slots);
* a **top-slot refcount histogram**: for every live value, one count at
  the grid slot its magnitude pins the ladder to (the ``needed_e0`` of
  Algorithm 2's no-demotion condition).

Both structures are plain integer vectors, so the state is an abelian
group: ``insert`` adds, ``retract`` subtracts, and any interleaving of
the two over the same multiset of values lands on the same bytes.

:meth:`RetractableGroupedSummation.render` converts the full-grid state
back into the engine's truncated L-level :class:`GroupedSummation`:

* the group ladder top ``e0`` is the highest grid slot with a positive
  refcount — exactly the from-scratch running-max ladder, because
  ``needed_e0`` is per-value and order-independent (and, unlike the
  bins themselves, the refcounts cannot cancel);
* the L levels below ``e0`` copy their bins verbatim (bins are kept in
  the same canonical ``s in [0, 2**(m-2))`` split, so the copied pair
  matches the carry-propagated query-time state bit for bit);
* everything below the horizon is dropped — the same truncation a
  ladder promotion performs.

The test suite asserts the resulting state is **byte-identical** to
feeding the surviving multiset through :class:`GroupedSummation` from
scratch, for any insert/retract interleaving, including NaN, ±inf,
``-0.0`` and subnormal inputs.
"""

from __future__ import annotations

import numpy as np

from ..core.params import RsumParams
from ..errors import LadderOverflowError
from .grouped import GroupedSummation, _EMPTY_E0

__all__ = ["RetractableGroupedSummation"]

#: Chunk cap keeping int64 quantum sums exact between canonicalisation
#: sweeps (same bound as :data:`repro.aggregation.grouped._CHUNK`).
_CHUNK = 1 << 22


class RetractableGroupedSummation:
    """Full-grid reproducible sums for ``ngroups`` groups, supporting
    exact retraction."""

    def __init__(self, params: RsumParams, ngroups: int):
        if ngroups < 0:
            raise ValueError("ngroups must be non-negative")
        self.params = params
        self.ngroups = ngroups
        fmt = params.fmt
        self._m = fmt.mantissa_bits
        self._w = params.w
        self._L = params.levels
        self._emin_grid = -(-fmt.min_exponent // self._w) * self._w
        self._emax_grid = (fmt.max_exponent // self._w) * self._w
        self._dtype = fmt.dtype if fmt.dtype is not None else np.dtype(np.float64)
        #: grid slot exponent -> [s, c] canonical int64 bin arrays
        self.bins: dict[int, list[np.ndarray]] = {}
        #: grid slot exponent -> per-group live-value refcounts
        self.top_counts: dict[int, np.ndarray] = {}
        self.nan_cnt = np.zeros(ngroups, dtype=np.int64)
        self.pos_cnt = np.zeros(ngroups, dtype=np.int64)
        self.neg_cnt = np.zeros(ngroups, dtype=np.int64)

    # ------------------------------------------------------------------
    # Slot bookkeeping
    # ------------------------------------------------------------------
    def _bin(self, slot: int) -> list[np.ndarray]:
        entry = self.bins.get(slot)
        if entry is None:
            entry = [
                np.zeros(self.ngroups, dtype=np.int64),
                np.zeros(self.ngroups, dtype=np.int64),
            ]
            self.bins[slot] = entry
        return entry

    def _top(self, slot: int) -> np.ndarray:
        arr = self.top_counts.get(slot)
        if arr is None:
            arr = np.zeros(self.ngroups, dtype=np.int64)
            self.top_counts[slot] = arr
        return arr

    def resize(self, ngroups: int) -> None:
        """Grow the table (new groups start empty; existing bits keep)."""
        if ngroups < self.ngroups:
            raise ValueError("cannot shrink a retractable summation")
        if ngroups == self.ngroups:
            return
        extra = ngroups - self.ngroups

        def grown(arr: np.ndarray) -> np.ndarray:
            return np.concatenate([arr, np.zeros(extra, dtype=np.int64)])

        for entry in self.bins.values():
            entry[0] = grown(entry[0])
            entry[1] = grown(entry[1])
        for slot in list(self.top_counts):
            self.top_counts[slot] = grown(self.top_counts[slot])
        self.nan_cnt = grown(self.nan_cnt)
        self.pos_cnt = grown(self.pos_cnt)
        self.neg_cnt = grown(self.neg_cnt)
        self.ngroups = ngroups

    # ------------------------------------------------------------------
    # Accumulation / retraction
    # ------------------------------------------------------------------
    def add_pairs(self, group_ids: np.ndarray, values: np.ndarray) -> None:
        """Insert a batch of ``(group_id, value)`` pairs."""
        self._apply(group_ids, values, +1)

    def retract_pairs(self, group_ids: np.ndarray, values: np.ndarray) -> None:
        """Remove one previously-inserted occurrence of each pair.

        Exact: after retracting a sub-multiset, the state is bit-equal
        to one that never saw those pairs.
        """
        self._apply(group_ids, values, -1)

    def _apply(self, group_ids, values, sign: int) -> None:
        gids = np.asarray(group_ids, dtype=np.int64)
        vals = np.asarray(values, dtype=self._dtype)
        if gids.shape != vals.shape or gids.ndim != 1:
            raise ValueError("group_ids and values must be equal-length 1-D")
        if gids.size and (gids.min() < 0 or gids.max() >= self.ngroups):
            raise IndexError("group id out of range")
        for start in range(0, gids.size, _CHUNK):
            self._apply_chunk(
                gids[start : start + _CHUNK],
                vals[start : start + _CHUNK],
                sign,
            )

    def _apply_chunk(self, gids, vals, sign: int) -> None:
        finite = np.isfinite(vals)
        if not finite.all():
            np.add.at(self.nan_cnt, gids[np.isnan(vals)], sign)
            np.add.at(self.pos_cnt, gids[vals == np.inf], sign)
            np.add.at(self.neg_cnt, gids[vals == -np.inf], sign)
            gids = gids[finite]
            vals = vals[finite]
        nonzero = vals != 0
        if not nonzero.all():
            gids = gids[nonzero]
            vals = vals[nonzero]
        if gids.size == 0:
            return

        # Per-value ladder pin: the slot Algorithm 2's no-demotion
        # condition demands (the running-max e0 is the max of these).
        _, exps = np.frexp(np.abs(vals))
        eb = exps.astype(np.int64) - 1
        raw = eb + self._m - self._w + 2
        needed = -((-raw) // self._w) * self._w
        if np.any(needed > self._emax_grid):
            raise LadderOverflowError(
                "input magnitude exceeds the extractor ladder range"
            )
        np.maximum(needed, self._emin_grid, out=needed)
        for slot in np.unique(needed).tolist():
            mask = needed == slot
            np.add.at(self._top(int(slot)), gids[mask], sign)

        # Grid-aligned anchor extraction over *all* slots from the
        # batch's top slot downwards.  Extraction at a slot above a
        # value's own pin yields an exact 0 (the anchor's half-ulp
        # exceeds the value), so one shared slot walk is bit-equal to
        # per-value walks; the remainder of a value dies within
        # ceil(m/w)+1 slots of its pin, so the walk is short.
        quantum_bits = self._m - 2
        r = vals
        slot = int(needed.max())
        while slot >= self._emin_grid and np.any(r != 0):
            anchor = np.ldexp(self._dtype.type(1.5), slot)
            q = (r + anchor) - anchor
            r = r - q
            k = np.ldexp(q, self._m - slot).astype(np.int64)
            if np.any(k):
                entry = self._bin(slot)
                np.add.at(entry[0], gids, sign * k)
                # Canonicalise: keep s in [0, 2**(m-2)), carries in c.
                # A pure function of the bin total, so insert/retract
                # interleavings cannot skew the split.
                s = entry[0]
                d = s >> quantum_bits
                np.subtract(s, d << quantum_bits, out=s)
                entry[1] += d
            slot -= self._w

    def merge(self, other: "RetractableGroupedSummation",
              mapping: np.ndarray | None = None) -> None:
        """Fold ``other`` in (exact; ``mapping`` as in
        :meth:`GroupedSummation.merge`)."""
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
        np.add.at(self.nan_cnt, mapping, other.nan_cnt)
        np.add.at(self.pos_cnt, mapping, other.pos_cnt)
        np.add.at(self.neg_cnt, mapping, other.neg_cnt)
        for slot, counts in other.top_counts.items():
            np.add.at(self._top(slot), mapping, counts)
        quantum_bits = self._m - 2
        for slot, (src_s, src_c) in other.bins.items():
            entry = self._bin(slot)
            np.add.at(entry[0], mapping, src_s)
            np.add.at(entry[1], mapping, src_c)
            s = entry[0]
            d = s >> quantum_bits
            np.subtract(s, d << quantum_bits, out=s)
            entry[1] += d

    # ------------------------------------------------------------------
    # Rendering back to the engine's truncated state
    # ------------------------------------------------------------------
    def render(self) -> GroupedSummation:
        """The L-level :class:`GroupedSummation` a from-scratch run over
        the live multiset would hold, bit for bit."""
        out = GroupedSummation(self.params, self.ngroups)
        e0 = np.full(self.ngroups, _EMPTY_E0, dtype=np.int64)
        for slot in sorted(self.top_counts, reverse=True):
            counts = self.top_counts[slot]
            np.maximum(e0, np.where(counts > 0, slot, _EMPTY_E0), out=e0)
        out.e0 = e0
        valid = e0 > _EMPTY_E0
        for slot, (s_arr, c_arr) in self.bins.items():
            level = (e0 - slot) // self._w
            for lvl in range(self._L):
                mask = valid & (level == lvl)
                if mask.any():
                    out.s[lvl][mask] = s_arr[mask]
                    out.c[lvl][mask] = c_arr[mask]
        out.nan_cnt = self.nan_cnt.copy()
        out.pos_cnt = self.pos_cnt.copy()
        out.neg_cnt = self.neg_cnt.copy()
        return out

    def finalize(self) -> np.ndarray:
        """Per-group sums, bit-equal to the from-scratch query path."""
        return self.render().finalize()

    def nbytes(self) -> int:
        per_slot = sum(
            s.nbytes + c.nbytes for s, c in self.bins.values()
        ) + sum(arr.nbytes for arr in self.top_counts.values())
        return (
            per_slot + self.nan_cnt.nbytes + self.pos_cnt.nbytes
            + self.neg_cnt.nbytes
        )

    def state_identity(self) -> tuple:
        """Canonical full-state identity (drives the round-trip
        property tests: ``insert then retract`` must restore this)."""
        live_bins = tuple(
            (slot, tuple(entry[0].tolist()), tuple(entry[1].tolist()))
            for slot, entry in sorted(self.bins.items())
            if np.any(entry[0]) or np.any(entry[1])
        )
        live_tops = tuple(
            (slot, tuple(arr.tolist()))
            for slot, arr in sorted(self.top_counts.items())
            if np.any(arr)
        )
        return (
            live_bins,
            live_tops,
            tuple(self.nan_cnt.tolist()),
            tuple(self.pos_cnt.tolist()),
            tuple(self.neg_cnt.tolist()),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RetractableGroupedSummation({self.ngroups} groups, "
            f"{len(self.bins)} slots, {self.params.fmt.name})"
        )
