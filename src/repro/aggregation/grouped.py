"""Vectorised multi-group reproducible summation: the ladder every
reproducible sum runs.

The paper's problem with RSUM inside GROUP BY is that the HPC tuning
assumes *one* long vector, while a GROUP BY juggles many interleaved
sums.  :class:`GroupedSummation` keeps one Algorithm 2 state per group
(top exponent ``e0``, per-level running sums ``s`` and carry counters
``c`` as int64 arrays).  SQL's SUM / RSUM, ``repro.group_sum`` and
``repro.reproducible_sum`` (one group) all feed it through
:func:`add_blocked_multi`.

The final per-group states are bit-identical to feeding each group's
values through its own scalar Algorithm 2 state — the independent
oracle ``SummationState`` in ``benchmarks/paper/state.py``, which the
test suite holds this module against — because:

* the ladder of a group depends only on the group's max |value| (fixed
  extractor grid), so it can be computed up-front in one segmented max;
* contributions ``q`` are a pure element-wise function of (value,
  level anchor), so NumPy lanes and a scalar C loop round identically;
* contributions are accumulated as exact int64 quanta: ``|k| <=
  2**(W-1)``, and every update is cut into blocks of at most
  :attr:`GroupedSummation.block_rows` rows, so a level sum stays
  below 2**63.

There are two updates and no third.  :meth:`GroupedSummation.add_pairs`
is the **reference**: the blocked element-wise NumPy extraction above,
held directly against the scalar Algorithm-2 state, and the update
every other path is tested against.  :func:`add_blocked_multi` is what
the engine calls: one compiled loop per block of rows (``_ladder.c``,
built on first import, see :mod:`._native`) that does what the paper's
C++ does per row — classify, extract against one scalar anchor per
level, add the int64 quanta into the group's levels — for every table
of the call.  A row it declines — NaN/±inf, a row that would raise a
ladder, a row whose group sits on another ladder or on none, or the
whole block when it has no ladder pass (subnormal bottom level, a
format the kernel has no instance for, a finite magnitude past the
ladder range, no finite non-zero value at all) — takes the reference.
Carry-free partial states are exact under any chunking, so *which*
exact update takes a row is invisible in the bits; this is the paper's
"summation on batches" (§V) at the kernel level.  Its block bound
``NB <= 2**(m-W-1)`` (§III-C) exists because the paper's running sums
are floats; here the one bound is int64 headroom, the same for both
updates.
"""

from __future__ import annotations

import numpy as np

from ..core.params import RsumParams
from ..errors import LadderOverflowError
from ._native import load_ladder

__all__ = [
    "GroupedSummation",
    "LadderCounters",
    "add_blocked_multi",
]

#: Ladder sentinel for "group has no finite non-zero value yet".
_EMPTY_E0 = -(2**40)

#: The compiled ladder update; building it is part of importing.
_KERNEL = load_ladder()

#: The reference update maxes a chunk's magnitudes over every group of
#: the table while the table has at most this many groups per row, and
#: sorts the chunk's own ids beyond.
_DENSE_GROUPS_PER_ROW = 8

#: ``ladder_block``'s decline codes, by number (``_ladder.c``).
_REASONS = (None, "non_finite", "off_ladder", "subnormal")


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
        #: The most rows one block of either update takes: ``n`` rows
        #: add at most ``n * 2**(w-1) <= 2**61`` quanta to a level on
        #: top of its canonical ``s < 2**(m-2)``, below 2**63 whatever
        #: their groups; 2**22 caps the reference's temporaries.
        self.block_rows = 1 << min(22, 62 - self._w)
        #: whether the compiled update runs this format (not binary16,
        #: nor a format with no NumPy dtype of its own)
        self._compiled = (fmt.dtype is not None
                          and self._dtype.itemsize in (4, 8))
        self.e0 = np.full(ngroups, _EMPTY_E0, dtype=np.int64)
        self.s = [np.zeros(ngroups, dtype=np.int64) for _ in range(self._L)]
        self.c = [np.zeros(ngroups, dtype=np.int64) for _ in range(self._L)]
        self.nan_cnt = np.zeros(ngroups, dtype=np.int64)
        self.pos_cnt = np.zeros(ngroups, dtype=np.int64)
        self.neg_cnt = np.zeros(ngroups, dtype=np.int64)
        #: what the arrays above are row prefixes of once :meth:`resize`d
        self._spare: np.ndarray | None = None
        #: (e0, *s, *c) and their addresses, for the compiled update
        self._addresses: tuple | None = None

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
        """Add a batch of pairs, :attr:`block_rows` at a time."""
        gids = np.asarray(group_ids, dtype=np.int64)
        vals = np.asarray(values, dtype=self._dtype)
        if gids.shape != vals.shape or gids.ndim != 1:
            raise ValueError("group_ids and values must be equal-length 1-D")
        if gids.size and (gids.min() < 0 or gids.max() >= self.ngroups):
            raise IndexError("group id out of range")
        step = self.block_rows
        for start in range(0, gids.size, step):
            self._add_chunk(gids[start : start + step], vals[start : start + step])

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
        """One block of the reference update, in time and memory
        proportional to its rows: only the groups it touches move,
        every other group is canonical already."""
        keep = self._count_non_finite(gids, vals) & (vals != 0)
        if not keep.all():
            gids = gids[keep]
            vals = vals[keep]
        if gids.size == 0:
            return

        # Ladder update: per-group max |value| decides the top exponent.
        groups, peaks = self._touched(gids, np.abs(vals))
        self._demote_to(groups, np.maximum(
            self.e0[groups], self._needed_e0(peaks)))

        for level, k in self._elementwise_quanta(gids, vals):
            np.add.at(self.s[level], gids, k)
        self._propagate(groups)

    def _touched(self, gids: np.ndarray, mags: np.ndarray):
        """``(groups, peaks)``: the distinct ids of ``gids``, ascending,
        and the largest of ``mags`` in each.  A chunk with rows to
        spare against the table's groups takes a max over every group
        (no sort); a smaller one sorts its own ids, so the cost is the
        chunk's, not the table's."""
        if self.ngroups <= _DENSE_GROUPS_PER_ROW * gids.size:
            peaks = np.zeros(self.ngroups, dtype=mags.dtype)
            np.maximum.at(peaks, gids, mags)
            groups = np.flatnonzero(peaks)
            return groups, peaks[groups]
        groups, inverse = np.unique(gids, return_inverse=True)
        peaks = np.zeros(groups.size, dtype=mags.dtype)
        np.maximum.at(peaks, inverse, mags)
        return groups, peaks

    # ------------------------------------------------------------------
    # Ladder maintenance
    # ------------------------------------------------------------------
    def _demote_to(self, groups: np.ndarray, target_e0: np.ndarray) -> None:
        """Raise the ladders of the distinct ``groups`` to ``target_e0``
        (one per group, never below its ladder; level shift, exact)."""
        e0 = self.e0[groups]
        moving = (e0 > _EMPTY_E0) & (target_e0 > e0)
        if moving.any():
            # A shift of L levels or more clears every level: clamped
            # to L, each shift in 1..L is one index set.
            shifts = np.minimum(
                (target_e0[moving] - e0[moving]) // self._w, self._L)
            rows = groups[moving]
            for sig in range(1, self._L + 1):
                at = rows[shifts == sig]
                if not at.size:
                    continue
                for level in range(self._L - 1, -1, -1):
                    src = level - sig
                    if src >= 0:
                        self.s[level][at] = self.s[src][at]
                        self.c[level][at] = self.c[src][at]
                    else:
                        self.s[level][at] = 0
                        self.c[level][at] = 0
        self.e0[groups] = target_e0

    def _propagate(self, groups=slice(None)) -> None:
        """Vectorised carry propagation: canonicalise s into
        [0, 2**(m-2)), of the distinct ``groups`` (every group by
        default)."""
        quantum_bits = self._m - 2
        for s, c in zip(self.s, self.c):
            low = s[groups]
            carry = low >> quantum_bits  # arithmetic shift == floor division
            s[groups] = low - (carry << quantum_bits)
            c[groups] += carry

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
            # one mark per target group, O(n + ngroups): a target hit
            # twice leaves fewer marks than sources
            hit = np.zeros(self.ngroups, dtype=bool)
            hit[mapping] = True
            if np.count_nonzero(hit) != mapping.size:
                raise ValueError("mapping must be injective")

        np.add.at(self.nan_cnt, mapping, other.nan_cnt)
        np.add.at(self.pos_cnt, mapping, other.pos_cnt)
        np.add.at(self.neg_cnt, mapping, other.neg_cnt)

        src_valid = other.e0 > _EMPTY_E0
        if not src_valid.any():
            return
        # Raise both sides to the joint ladder.
        tgt_idx = mapping[src_valid]
        self._demote_to(tgt_idx, np.maximum(
            self.e0[tgt_idx], other.e0[src_valid]))

        joint = self.e0[mapping]  # per-source-group target ladder
        # A source shifted L levels or more adds nothing.
        shifts = np.zeros(other.ngroups, dtype=np.int64)
        shifts[src_valid] = (joint[src_valid] - other.e0[src_valid]) // self._w
        for sig in range(self._L):
            mask = src_valid & (shifts == sig)
            if not mask.any():
                continue
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
        """Per-group reproducible sums (Equation 1): one compiled loop
        over the groups (``ladder_finalize`` in ``_ladder.c``), every
        IEEE operation of the equation in the table's format and in a
        fixed order."""
        dtype = self._dtype
        out = np.empty(self.ngroups,
                       dtype=np.float32 if dtype == np.float16 else dtype)
        if self.ngroups:
            arrays = [np.ascontiguousarray(arr, dtype=np.int64) for arr in (
                self.e0, *self.s, *self.c,
                self.nan_cnt, self.pos_cnt, self.neg_cnt)]
            state = np.array([arr.ctypes.data for arr in arrays],
                             dtype=np.uintp)
            _KERNEL.finalize[dtype](
                self.ngroups, self._L, self._m, self._w, self._emin,
                state.ctypes.data, out.ctypes.data)
        return out.astype(dtype, copy=False)

    def exact(self):
        """Per-group sums *before* Equation 1 rounds them:
        ``(integers, exponents, nonfinite)`` with each finite group's
        ladder holding exactly ``integers[g] * 2**exponents[g]`` —
        ``integers`` an object array of Python ints, ``exponents``
        int64 (0 for an empty group) — and ``nonfinite`` marking the
        groups that saw a NaN or ±inf, whose integer is meaningless.

        Level ``l`` holds ``s[l] + c[l] * 2**(m-2)`` units of
        ``2**(e0 - l*W - m)``, so the levels fold top-down into one
        integer in units of the bottom level's (one level in int64 while
        its carries leave room: a level is one object array, not two)."""
        carry_bits = self._m - 2
        integers = np.zeros(self.ngroups, dtype=object)
        for s, c in zip(self.s, self.c):
            if np.abs(c).max(initial=0) < 1 << (62 - carry_bits):
                level = (s + (c << carry_bits)).astype(object)
            else:
                level = s.astype(object) + (c.astype(object) << carry_bits)
            integers = (integers << self._w) + level
        valid = self.e0 > _EMPTY_E0
        exponents = np.where(
            valid, self.e0 - (self._L - 1) * self._w - self._m, 0)
        nonfinite = (self.nan_cnt | self.pos_cnt | self.neg_cnt) > 0
        return integers, exponents, nonfinite

    def resize(self, ngroups: int) -> None:
        """Grow the table to ``ngroups`` (new groups start empty).

        Used by the engine's group tables when previously unseen keys
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
            # Grow geometrically, to a power of two: a table that
            # gains groups every morsel pays one allocation and copy
            # per doubling, not nine per morsel, and one whose groups
            # fit the first power of two never pays another.
            capacity = 1 << (max(ngroups, 2 * self.ngroups) - 1).bit_length()
            spare = self._spare = np.zeros(
                (len(arrays), capacity), dtype=np.int64)
            spare[0] = _EMPTY_E0
            for row, arr in zip(spare, arrays):
                row[:self.ngroups] = arr
        self.e0, *rows = (row[:ngroups] for row in spare)
        self.s, self.c = rows[:self._L], rows[self._L:2 * self._L]
        self.nan_cnt, self.pos_cnt, self.neg_cnt = rows[-3:]
        self.ngroups = ngroups

    def state_addresses(self) -> tuple:
        """Addresses of ``e0``, ``s[0..L)``, ``c[0..L)`` — the state
        arrays the compiled update writes in place — recomputed only
        when one of them was replaced (:meth:`resize`, a spill load)."""
        arrays = (self.e0, *self.s, *self.c)
        cached = self._addresses
        if cached is None or any(
                old is not new for old, new in zip(cached[0], arrays)):
            for arr in arrays:
                if (arr.dtype != np.int64 or arr.shape != (self.ngroups,)
                        or not arr.flags.c_contiguous
                        or not arr.flags.writeable):
                    raise ValueError("ladder state arrays must be "
                                     "writeable contiguous int64")
            cached = self._addresses = (
                arrays, tuple(arr.ctypes.data for arr in arrays))
        return cached[1]

    def __getstate__(self) -> dict:
        # a copy or an unpickled table owns other arrays: its addresses
        # are computed afresh
        return {**self.__dict__, "_addresses": None}

    def nbytes(self) -> int:
        """Resident bytes of the per-group ladder arrays (the memory
        the engine's budget accounting charges for one repro-sum
        state)."""
        per_level = sum(s.nbytes + c.nbytes for s, c in zip(self.s, self.c))
        return (
            self.e0.nbytes + per_level
            + self.nan_cnt.nbytes + self.pos_cnt.nbytes + self.neg_cnt.nbytes
        )

    def state_tuples(self) -> list:
        """Canonical identity per group (for reproducibility
        assertions): ``(e0, s, c, has NaN, has +inf, has -inf)``, with
        ``e0 = None`` and zero levels for a group on no ladder — the
        scalar oracle's ``state_tuple``."""
        empty = (None, (0,) * self._L, (0,) * self._L)
        s, c = np.array(self.s).T.tolist(), np.array(self.c).T.tolist()
        return [
            ((int(e0), tuple(s[g]), tuple(c[g])) if e0 > _EMPTY_E0
             else empty) + (bool(nan), bool(pos), bool(neg))
            for g, (e0, nan, pos, neg) in enumerate(zip(
                self.e0, self.nan_cnt, self.pos_cnt, self.neg_cnt))
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupedSummation({self.ngroups} groups, L={self._L}, "
            f"{self.params.fmt.name})"
        )


class LadderCounters:
    """Which update the rows fed to :func:`add_blocked_multi` took, in
    rows summed over tables: taken by the compiled ladder on their
    table's prevailing ladder (``scatter``), or handed to the reference
    — and why the first row that went there did (``off_ladder``: it
    raises a ladder, or its group sits on another one or on none;
    ``non_finite``; ``subnormal`` / ``format``: the parameters leave the
    block no ladder pass at all)."""

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
    if len({id(table) for table in tables}) != len(tables):
        raise ValueError("ladder tables must be distinct")
    return tables


def add_blocked_multi(tables: list, group_ids: np.ndarray, values_rows: list,
                      counters: LadderCounters | None = None) -> None:
    """The ladder update every reproducible SUM goes through: feed
    unsorted ``(group id, value)`` pairs to several same-parameter
    tables (``values_rows[i]`` goes to ``tables[i]``), bit-identical to
    per-table :meth:`GroupedSummation.add_pairs`.

    Ladder states are exact under any chunking and permutation of their
    input, so each table's rows are split *by row*.  The input is cut
    into blocks of :attr:`GroupedSummation.block_rows` rows, and each
    block is one call into the compiled kernel (``_ladder.c``) covering
    every table; the call's pointers and parameters are built once and
    each block passes only its row range (:class:`_Blocks`).  With
    ``E`` the table's prevailing ladder at the start of the block (its
    highest top exponent; for an empty table, the one the block's
    finite ``|max|`` calls for) and ``m``, ``w`` the mantissa bits and
    ``W``, the kernel runs one pass per table and per row:

    * **classify** — the row is *taken* when ``|v| < 2**(E-m+w-1)``
      (it fits under ``E``; NaN/±inf never do) and its group sits on
      ``E``; otherwise it is *declined*;
    * **extract** — ``L`` levels against the scalar anchors
      ``1.5 * 2**e_l``, ``e_l = E - l*w``;
    * **accumulate** — each level's quantum, as an int64 count of
      ``2**(e_l - m)``, straight into ``s[l]`` of its group; the state
      is carry-propagated once per call.

    **Whole blocks.**  The kernel's first pass over a block already
    reads every value for the block's ``|max|``.  When that ``|max|``
    fits under ``E`` (a NaN/±inf row ranks above every finite one, so
    it never does) and every group of the table sits on ``E``, the row
    rule takes every row, so the block is *whole*: the kernel extracts
    and adds each row without classifying it.  Only a block that can
    decline a row, or seed a group, runs the classifying pass.  The states are the same
    either way; the whole-block pass just skips a test whose answer is
    known.

    Declined rows come back as indices and take the update every other
    path is tested against, ``table.add_pairs(gids[i], vals[i])``, with
    every filter and demotion of the reference.

    **Seeding.**  An empty group that receives a row needing exactly
    ``E`` (``2**(E-m-1) <= |v|``, or just ``v != 0`` on the floor
    ladder) is put on ``E`` by that row, which makes all of its fitting
    rows in the block taken.  The reference puts a group on the ladder
    of its own ``|max|``; that row proves the max calls for at least
    ``E``, and a row calling for more is declined and demotes the group
    afterwards exactly as a later chunk would.  Seeding is part of the
    one classifying pass: a fitting row that reaches its group while
    the group is still empty and does not need ``E`` itself is
    deferred, and taken after the pass if a later row put its group on
    ``E``.  A group whose rows are all zero or all below ``E``'s class
    is not seeded — the reference leaves it empty, or on a lower ladder
    — so those rows are declined.  The first declined row in row order
    names the reason, deferred or not.

    **Exactness.**  A taken row has ``|v| < 2**(eb+1)`` with
    ``eb + m - w + 2 <= E``, so every level quantum
    ``q = k * 2**(e_l - m)`` has ``|k| <= 2**(w-1)`` whether ``m`` is
    52 or 23.  The extraction runs in the table's dtype with anchors
    that carry one significand bit (exact), built without
    ``-ffast-math`` and with ``-ffp-contract=off``, so ``t = r + a``
    and ``q = t - a`` are evaluated as written and each quantum is the
    one the reference's element-wise extraction computes.  Since
    ``|r| < 2**(e_l - 3)`` (``W <= m - 2``), ``t`` stays in the
    anchor's binade, so ``k`` — the reference's ``q * 2**(m - e_l)`` —
    is the difference of the bit patterns of ``t`` and ``a``: no
    scaling, nothing to round.  A zero row adds ``k = 0`` at every
    level.  The block bounds the int64 sums: it holds ``n <=
    2**min(22, 62 - w)`` rows, so however they fall into groups, a
    level of one group gains at most ``n * 2**(w-1) <= 2**61`` in
    magnitude over its canonical ``0 <= s < 2**(m-2)`` before the
    call's carry propagation — below ``2**63``.  Integer addition is
    exact in any order, and the reference's blocks obey the same bound.

    The bound is per block, derived from the parameters and not a knob:
    2**22 rows at ``W = 40`` (a default morsel is one block), 4 096 at
    ``W = 50``.  Subnormal bottom levels, a format the kernel has no
    instance for (binary16), a block with no finite non-zero value and
    a finite magnitude past the ladder range decline the whole block of
    every table before any state moves: the reference then runs table
    by table, so a :class:`LadderOverflowError` leaves the earlier
    tables applied and the later ones untouched, as a loop over
    ``add_pairs`` would.  ``counters`` records rows per update.
    """
    tables = _same_params(tables)
    if not tables:
        return
    first = tables[0]
    gids = np.ascontiguousarray(group_ids, dtype=np.int64)
    rows = [np.ascontiguousarray(r, dtype=first._dtype) for r in values_rows]
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
    if not first._compiled:
        counters.decline(n * len(tables), "format")
        for table, vals in zip(tables, rows):
            table.add_pairs(gids, vals)
        return
    step = first.block_rows
    blocks = _Blocks(tables, gids, rows)
    for pos in range(0, n, step):
        _add_block(blocks, pos, min(pos + step, n), counters)


class _Blocks:
    """The kernel arguments of one :func:`add_blocked_multi` call,
    built once and shared by its blocks, which pass only their row
    range: ``ptrs`` — ``gids``, the values rows, each table's state
    arrays, then the block's scratch for deferred row indices — and
    ``io`` — the parameters, ``(ngroups, ladder, declined rows, whole)``
    per table, and the counters (rows taken, rows declined, why the
    first was); ``_ladder.c`` has the layouts.  The state addresses hold
    for the whole call: the reference takes the declined rows into the
    same arrays, in place."""

    __slots__ = ("tables", "gids", "rows", "deferred", "ptrs", "io",
                 "slots", "addresses", "block", "declined")

    def __init__(self, tables: list, gids: np.ndarray, rows: list):
        first = tables[0]
        self.tables, self.gids, self.rows = tables, gids, rows
        self.deferred = np.empty(min(gids.size, first.block_rows),
                                 dtype=np.int64)
        self.ptrs = np.array(
            [arr.ctypes.data for arr in (gids, *rows)]
            + [addr for table in tables for addr in table.state_addresses()]
            + [self.deferred.ctypes.data],
            dtype=np.uintp)
        self.io = np.zeros(6 + 4 * len(tables) + 3, dtype=np.int64)
        self.io[:6] = (first._L, first._m, first._w, first._emin,
                       first._emin_grid, first._emax_grid)
        self.slots = self.io[6:6 + 4 * len(tables)].reshape(len(tables), 4)
        self.slots[:, 0] = [table.ngroups for table in tables]
        self.addresses = (self.ptrs.ctypes.data, self.io.ctypes.data)
        self.block = _KERNEL.block[first._dtype]
        self.declined = _KERNEL.declined[first._dtype]


def _add_block(blocks: _Blocks, start: int, stop: int,
               counters: LadderCounters) -> None:
    """Rows ``[start, stop)`` of :func:`add_blocked_multi` (which carries
    the proof) as one block: in-range ids, at most ``block_rows``
    rows."""
    tables, gids, rows = blocks.tables, blocks.gids, blocks.rows
    ntables = len(tables)
    ptrs, io = blocks.addresses
    reason = blocks.block(start, stop, ntables, ptrs, io)
    if reason:
        counters.decline((stop - start) * ntables, _REASONS[reason])
        for table, vals in zip(tables, rows):
            table.add_pairs(gids[start:stop], vals[start:stop])
        return
    taken, declined, why = blocks.io[-3:].tolist()
    counters.scatter += taken
    if declined:
        counters.decline(declined, _REASONS[why])
        for t, (table, vals) in enumerate(zip(tables, rows)):
            ncold = int(blocks.slots[t, 2])
            if ncold:
                idx = np.empty(ncold, dtype=np.int64)
                blocks.declined(start, stop, ntables, t, ptrs, io,
                                idx.ctypes.data)
                table.add_pairs(gids[idx], vals[idx])
