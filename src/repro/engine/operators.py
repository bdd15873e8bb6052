"""Physical operators for the mini engine.

Execution is morsel-driven (see :mod:`repro.engine.pipeline`): every
aggregate is expressed as *partial state + exact merge + finalize*, so
the same operator code serves whole-batch serial execution and the
parallel pipeline.  The interesting machinery is the SUM family, which
hosts the paper's implementations side by side:

* ``sum_mode="ieee"`` — conventional accumulation in physical row
  order (non-reproducible; what stock engines do).  Its partial states
  are plain float sums, so the result *may* drift with the morsel
  size / worker count — exactly the effect the paper describes;
* ``sum_mode="repro"`` / ``"repro_buffered"`` — the reproducible
  aggregation of Sections IV/V.  Partial states are
  :class:`~repro.aggregation.grouped.GroupedSummation` tables whose
  merge is *exact*, so the result bits are identical for every input
  permutation, chunking, and parallel split (the buffered mode differs
  only in cost, which the simulator models);
* ``sum_mode="sorted"`` — the only conventional way to force
  reproducibility (Table IV's 7x-slower baseline).  Partial states
  buffer the raw (group, value) pairs; finalize sorts them by
  (group, value-bits) and sums, which is split-independent because the
  final sort canonicalises any partitioning of the input.

``RSUM(expr [, L])`` is the paper's proposed "alternate aggregate
function ... which would give the user control on the desired
precision" (Section V-D): it is reproducible regardless of the session
sum mode.
"""

from __future__ import annotations

import numpy as np

from ..core.params import RsumParams
from ..fp.formats import BINARY32, BINARY64
from .expr import ExprError, evaluate
from .sql import ast
from .types import DecimalSqlType, SqlType

__all__ = [
    "Batch",
    "SumConfig",
    "OperatorTimings",
    "AggregateSpec",
    "PartialGroupTable",
    "canonical_float_bits",
    "factorize_object",
    "grouped_float_sum",
]


class Batch:
    """Columnar batch: arrays + SQL types + row count.

    ``encodings`` optionally carries dictionary encodings of key
    columns — ``{name: (codes, uniques)}`` with ``codes`` aligned to the
    batch rows — produced by the storage layer and consumed by the
    group table (:mod:`repro.engine.vectorized`).
    """

    def __init__(self, columns: dict, types: dict[str, SqlType],
                 encodings: dict | None = None):
        self.columns = columns
        self.types = types
        self.encodings = encodings or {}
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError("ragged batch")
        self.nrows = lengths.pop() if lengths else 0

    def filter(self, mask: np.ndarray) -> "Batch":
        encodings = {
            name: (codes[mask], uniques)
            for name, (codes, uniques) in self.encodings.items()
        } or None
        return Batch(
            {name: arr[mask] for name, arr in self.columns.items()},
            self.types,
            encodings,
        )


class OperatorTimings:
    """CPU time per operator class (Table IV's breakdown).

    In a parallel session the pipeline reports ``selection`` and
    ``aggregation`` as per-thread CPU time *summed across workers*, so
    with ``workers > 1`` they can exceed the query's wall-clock; use
    :class:`~repro.engine.pipeline.PipelineStats` for wall-clock /
    critical-path accounting.  With the default ``workers=1`` the two
    views coincide.
    """

    def __init__(self):
        self.seconds: dict[str, float] = {}
        #: per-query path counters (not times) the pipeline reports,
        #: e.g. ``ladder_rows_scatter``
        self.counters: dict = {}

    def add(self, label: str, dt: float) -> None:
        self.seconds[label] = self.seconds.get(label, 0.0) + dt

    def total(self) -> float:
        return sum(self.seconds.values())


class SumConfig:
    """Session-level configuration of the SUM implementation."""

    MODES = ("ieee", "repro", "repro_buffered", "sorted")

    def __init__(self, mode: str = "ieee", levels: int = 2,
                 buffer_size: int | None = None):
        if mode not in self.MODES:
            raise ValueError(f"sum_mode must be one of {self.MODES}")
        self.mode = mode
        self.levels = levels
        self.buffer_size = buffer_size


# ---------------------------------------------------------------------------
# Partial aggregate states
#
# Each state supports:
#   update(batch, gids, ngroups)      -- consume one morsel (local gids)
#   merge(other, mapping, ngroups)    -- fold a worker-local partial in;
#                                        mapping[g] is the target group of
#                                        other's local group g (injective)
#   finalize(ngroups) -> np.ndarray   -- per-group results, table gid order
#
# For the repro modes, update/merge are *exact* (integer-canonical
# SummationState arithmetic via GroupedSummation), which is what makes
# the parallel GROUP BY bit-reproducible.
# ---------------------------------------------------------------------------


def _grown(arr: np.ndarray, n: int) -> np.ndarray:
    """Zero-extend a per-group array to ``n`` groups."""
    if len(arr) >= n:
        return arr
    out = np.zeros(n, dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


def _eval_values(arg: ast.Expr, batch: Batch) -> np.ndarray:
    values = np.asarray(evaluate(arg, batch.columns, batch.types))
    if values.shape == ():
        values = np.full(batch.nrows, values)
    return values


#: Rough per-group cost of one key-table entry (dict slot + tuple), and
#: per key member within the tuple — used by the memory-budget
#: accounting of the external aggregation (order of magnitude is all
#: the spill heuristics need).
_KEY_BYTES_BASE = 64
_KEY_BYTES_PER_COLUMN = 32


class _CountState:
    def __init__(self):
        self.counts = np.zeros(0, dtype=np.int64)

    def approx_bytes(self) -> int:
        return self.counts.nbytes

    def update(self, batch: Batch, gids: np.ndarray, ngroups: int) -> None:
        self.counts = _grown(self.counts, ngroups)
        if gids.size:
            self.counts += np.bincount(gids, minlength=ngroups)

    def retract(self, batch: Batch, gids: np.ndarray, ngroups: int) -> None:
        """Exact inverse of :meth:`update` (integer subtraction)."""
        self.counts = _grown(self.counts, ngroups)
        if gids.size:
            self.counts -= np.bincount(gids, minlength=ngroups)

    def merge(self, other: "_CountState", mapping, ngroups: int) -> None:
        self.counts = _grown(self.counts, ngroups)
        theirs = _grown(other.counts, len(mapping))
        np.add.at(self.counts, mapping, theirs)

    def finalize(self, ngroups: int) -> np.ndarray:
        return _grown(self.counts, ngroups)


class _PlainSumImpl:
    """Accumulator-array sums: exact for int64 (INT/BOOL columns and
    unscaled DECIMAL storage, with the scale applied at finalize); for
    float dtypes this is the conventional IEEE mode — merge order is
    deterministic but the result depends on how the input was split
    (non-reproducible)."""

    def __init__(self, dtype, scale: int | None = None):
        self.scale = scale
        self.sums = np.zeros(0, dtype=dtype)

    def empty_like(self):
        return _PlainSumImpl(self.sums.dtype, self.scale)

    def approx_bytes(self) -> int:
        return self.sums.nbytes

    def update(self, values, gids, ngroups):
        self.sums = _grown(self.sums, ngroups)
        if gids.size:
            np.add.at(self.sums, gids, values)

    def update_sorted(self, values, morsel, ngroups):
        """Segmented update for the exact int64 accumulators: integer
        addition is associative, so one ``reduceat`` partial per sorted
        run plus a per-segment scatter is bit-identical to
        :meth:`update` and far cheaper than per-element ``ufunc.at``.
        Never used for float accumulators (IEEE adds are
        order-sensitive; those keep physical row order)."""
        self.sums = _grown(self.sums, ngroups)
        if morsel.gids.size:
            seg = np.add.reduceat(
                morsel.take(values).astype(np.int64, copy=False),
                morsel.starts,
            )
            np.add.at(self.sums, morsel.seg_gids, seg)

    def retract(self, values, gids, ngroups):
        """Inverse of :meth:`update` — exact for the int64 (INT / BOOL /
        DECIMAL) accumulators; for IEEE float accumulators subtraction
        carries rounding residue, so float plain sums are excluded from
        incremental view maintenance (see
        :meth:`AggregateSpec.supports_retraction`)."""
        self.sums = _grown(self.sums, ngroups)
        if gids.size:
            np.subtract.at(self.sums, gids, values)

    def merge(self, other, mapping, ngroups):
        self.sums = _grown(self.sums, ngroups)
        # IEEE partials holding +inf and -inf for one group sum to NaN:
        # the right answer, not worth a RuntimeWarning.
        with np.errstate(invalid="ignore"):
            np.add.at(self.sums, mapping, _grown(other.sums, len(mapping)))

    def finalize(self, ngroups):
        sums = _grown(self.sums, ngroups)
        if self.scale is not None:
            return sums.astype(np.float64) / 10.0**self.scale
        return sums


class _ReproSumImpl:
    """Reproducible sums: GroupedSummation states with exact merge."""

    def __init__(self, dtype, levels: int):
        from ..aggregation.grouped import GroupedSummation

        self._dtype = dtype
        self._levels = levels
        fmt = BINARY32 if dtype == np.float32 else BINARY64
        self.params = RsumParams(fmt, levels)
        self.grouped = GroupedSummation(self.params, 0)
        self._fmt_dtype = fmt.dtype

    def empty_like(self):
        return _ReproSumImpl(self._dtype, self._levels)

    def approx_bytes(self) -> int:
        return self.grouped.nbytes()

    def update(self, values, gids, ngroups):
        if self.grouped.ngroups < ngroups:
            self.grouped.resize(ngroups)
        if gids.size:
            self.grouped.add_pairs(gids, values.astype(self._fmt_dtype))

    def merge(self, other, mapping, ngroups):
        if self.grouped.ngroups < ngroups:
            self.grouped.resize(ngroups)
        if other.grouped.ngroups < len(mapping):
            other.grouped.resize(len(mapping))
        self.grouped.merge(other.grouped, np.asarray(mapping, dtype=np.int64))

    def finalize(self, ngroups):
        if self.grouped.ngroups < ngroups:
            self.grouped.resize(ngroups)
        return self.grouped.finalize()


class _RetractableReproSumImpl:
    """Reproducible sums in retractable (full-grid) form.

    Drop-in for :class:`_ReproSumImpl` plus an exact :meth:`retract`;
    used by incremental view maintenance
    (:mod:`repro.engine.matview`).  ``finalize`` renders the full-grid
    state down to the truncated L-level ladder first, so the produced
    bits match the query-time :class:`_ReproSumImpl` path exactly.
    """

    def __init__(self, dtype, levels: int):
        from ..aggregation.retractable import RetractableGroupedSummation

        self._dtype = dtype
        self._levels = levels
        fmt = BINARY32 if dtype == np.float32 else BINARY64
        self.params = RsumParams(fmt, levels)
        self.grouped = RetractableGroupedSummation(self.params, 0)
        self._fmt_dtype = fmt.dtype

    def empty_like(self):
        return _RetractableReproSumImpl(self._dtype, self._levels)

    def approx_bytes(self) -> int:
        return self.grouped.nbytes()

    def _grow(self, ngroups):
        if self.grouped.ngroups < ngroups:
            self.grouped.resize(ngroups)

    def update(self, values, gids, ngroups):
        self._grow(ngroups)
        if gids.size:
            self.grouped.add_pairs(gids, values.astype(self._fmt_dtype))

    def retract(self, values, gids, ngroups):
        self._grow(ngroups)
        if gids.size:
            self.grouped.retract_pairs(gids, values.astype(self._fmt_dtype))

    def merge(self, other, mapping, ngroups):
        self._grow(ngroups)
        if other.grouped.ngroups < len(mapping):
            other.grouped.resize(len(mapping))
        self.grouped.merge(other.grouped, np.asarray(mapping, dtype=np.int64))

    def finalize(self, ngroups):
        self._grow(ngroups)
        return self.grouped.finalize()


class _SortedSumImpl:
    """Sort-based reproducible sums.

    Partials buffer the raw (gid, value) pairs; finalize sorts all pairs
    by (group, value-bits) and accumulates.  Because the final sort
    canonicalises the pair order, the result bits are independent of how
    the input was split across morsels and workers.
    """

    def __init__(self, dtype):
        self.dtype = np.dtype(dtype)
        self.chunks: list[tuple[np.ndarray, np.ndarray]] = []

    def empty_like(self):
        return _SortedSumImpl(self.dtype)

    def approx_bytes(self) -> int:
        return sum(g.nbytes + v.nbytes for g, v in self.chunks)

    def update(self, values, gids, ngroups):
        if gids.size:
            self.chunks.append((gids, values))

    def merge(self, other, mapping, ngroups):
        for gids, values in other.chunks:
            self.chunks.append((np.asarray(mapping)[gids], values))

    def finalize(self, ngroups):
        if not self.chunks:
            return np.zeros(ngroups, dtype=self.dtype)
        gids = np.concatenate([g for g, _ in self.chunks])
        values = np.concatenate([v for _, v in self.chunks])
        bits = values.view(
            np.uint32 if values.dtype == np.float32 else np.uint64
        )
        order = np.lexsort((bits, gids))
        out = np.zeros(ngroups, dtype=values.dtype)
        np.add.at(out, gids[order], values[order])
        return out


def _make_float_sum_impl(dtype, mode: str, levels: int,
                         retractable: bool = False):
    if mode == "ieee":
        return _PlainSumImpl(dtype)
    if mode in ("repro", "repro_buffered"):
        if retractable:
            return _RetractableReproSumImpl(dtype, levels)
        return _ReproSumImpl(dtype, levels)
    if mode == "sorted":
        return _SortedSumImpl(dtype)
    raise ValueError(f"unknown sum mode {mode!r}")


class _SumState:
    """SUM/RSUM over one expression; the concrete impl (exact integer,
    ieee, repro, or sorted) is chosen from the input type on the first
    morsel, mirroring the pre-pipeline dispatch.

    ``retractable=True`` (incremental view maintenance) swaps the repro
    float impl for its full-grid retractable sibling; the int64 paths
    already invert exactly.
    """

    def __init__(self, arg: ast.Expr, mode: str, levels: int,
                 retractable: bool = False):
        self.arg = arg
        self.mode = mode
        self.levels = levels
        self.retractable = retractable
        self.impl = None

    def _values(self, batch: Batch):
        """Returns (values, kind, decimal_scale) for one morsel."""
        if isinstance(self.arg, ast.ColumnRef):
            sql_type = batch.types.get(self.arg.name.lower())
            if isinstance(sql_type, DecimalSqlType):
                # Exact integer path: SUM over a bare DECIMAL column.
                return (
                    batch.columns[self.arg.name.lower()],
                    "decimal",
                    sql_type.scale,
                )
        values = _eval_values(self.arg, batch)
        if values.dtype.kind in "iub":
            return values, "int", None
        return values, "float", None

    def _make_impl(self, kind: str, scale, dtype):
        if kind in ("decimal", "int"):
            return _PlainSumImpl(np.int64, scale)
        return _make_float_sum_impl(
            dtype, self.mode, self.levels, self.retractable
        )

    def update(self, batch: Batch, gids: np.ndarray, ngroups: int) -> None:
        values, kind, scale = self._values(batch)
        if self.impl is None:
            self.impl = self._make_impl(kind, scale, values.dtype)
        self.impl.update(values, gids, ngroups)

    def retract(self, batch: Batch, gids: np.ndarray, ngroups: int) -> None:
        values, kind, scale = self._values(batch)
        if self.impl is None:
            self.impl = self._make_impl(kind, scale, values.dtype)
        self.impl.retract(values, gids, ngroups)

    def merge(self, other: "_SumState", mapping, ngroups: int) -> None:
        if other.impl is None:
            return
        if self.impl is None:
            self.impl = other.impl.empty_like()
        self.impl.merge(other.impl, mapping, ngroups)

    def finalize(self, ngroups: int) -> np.ndarray:
        if self.impl is None:
            return np.zeros(ngroups, dtype=np.float64)
        return self.impl.finalize(ngroups)

    def approx_bytes(self) -> int:
        return 0 if self.impl is None else self.impl.approx_bytes()


def canonical_float_bits(values: np.ndarray) -> np.ndarray:
    """Float array -> uint64 bit patterns under the engine's canonical
    float identity: ``-0.0`` folds into ``0.0``, every NaN payload
    collapses to the canonical NaN, float32 promotes exactly.  This is
    the one definition of float-key equality shared by GROUP BY keys
    (:func:`_key_identity`), COUNT(DISTINCT), and the hash join."""
    out = values.astype(np.float64)
    if out is values:
        out = out.copy()
    out[out == 0.0] = 0.0
    out[np.isnan(out)] = np.nan
    return out.view(np.uint64)


def _canonical_distinct_codes(values: np.ndarray):
    """Dictionary-encode one morsel's values for DISTINCT counting.

    Returns ``(codes, members)``: ``codes[i]`` indexes ``members``, a
    list of hashable canonical representatives — canonical float bit
    patterns (:func:`canonical_float_bits`), plain Python values
    otherwise.
    """
    if values.dtype.kind == "f":
        bits = canonical_float_bits(values)
        uniques, codes = np.unique(bits, return_inverse=True)
        return codes.astype(np.int64, copy=False), uniques.tolist()
    if values.dtype == object:
        codes, uniques = factorize_object(values)
        return codes, uniques.tolist()
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), uniques.tolist()


class _DistinctCountState:
    """COUNT(DISTINCT expr): per-group sets of canonical values.

    The partial state is a plain set per group, so update and merge are
    *exact* for any morsel split, worker count, or join build side —
    the same horizontal-merge property the repro SUM states have, which
    is what keeps COUNT(DISTINCT) in the bit-reproducible family.
    Each morsel is dictionary-encoded once (codes + uniques) and the
    (gid, code) pairs deduplicated vectorized before the sets are
    touched.
    """

    def __init__(self, arg: ast.Expr):
        self.arg = arg
        self.sets: list[set] = []
        #: running total of set members, maintained incrementally so
        #: :meth:`approx_bytes` is O(1) (budget accounting runs per
        #: morsel)
        self.member_count = 0

    def _grow(self, ngroups: int) -> None:
        while len(self.sets) < ngroups:
            self.sets.append(set())

    def update(self, batch: Batch, gids: np.ndarray, ngroups: int) -> None:
        self._grow(ngroups)
        if not gids.size:
            return
        values = _eval_values(self.arg, batch)
        codes, members = _canonical_distinct_codes(values)
        base = max(len(members), 1)
        pairs = np.unique(gids.astype(np.int64) * base + codes)
        for pair in pairs.tolist():
            gid, code = divmod(pair, base)
            group = self.sets[gid]
            before = len(group)
            group.add(members[code])
            self.member_count += len(group) - before

    def merge(self, other: "_DistinctCountState", mapping,
              ngroups: int) -> None:
        self._grow(ngroups)
        for gid, members in enumerate(other.sets):
            if members:
                target = self.sets[mapping[gid]]
                before = len(target)
                target |= members
                self.member_count += len(target) - before

    def finalize(self, ngroups: int) -> np.ndarray:
        self._grow(ngroups)
        return np.array(
            [len(members) for members in self.sets[:ngroups]],
            dtype=np.int64,
        )

    def approx_bytes(self) -> int:
        # ~one set header per group plus ~64 bytes per member (slot +
        # boxed value) — a deliberate over-estimate so budgets spill
        # DISTINCT state early rather than late.
        return 64 * len(self.sets) + 64 * self.member_count


class _RefcountedDistinctState:
    """COUNT(DISTINCT expr) with per-member refcounts (retractable).

    Where :class:`_DistinctCountState` keeps plain sets (one membership
    bit per canonical value), this variant counts *occurrences*, so a
    deleted row decrements its value's refcount and the member only
    disappears when the last occurrence is retracted.  Finalize counts
    the members with positive refcounts — byte-identical to the
    set-based state over the same live rows.  Used by incremental view
    maintenance (:mod:`repro.engine.matview`).
    """

    def __init__(self, arg: ast.Expr):
        self.arg = arg
        self.refcounts: list[dict] = []
        self.member_count = 0

    def _grow(self, ngroups: int) -> None:
        while len(self.refcounts) < ngroups:
            self.refcounts.append({})

    def _apply(self, batch: Batch, gids: np.ndarray, ngroups: int,
               sign: int) -> None:
        self._grow(ngroups)
        if not gids.size:
            return
        values = _eval_values(self.arg, batch)
        codes, members = _canonical_distinct_codes(values)
        base = max(len(members), 1)
        pairs, counts = np.unique(
            gids.astype(np.int64) * base + codes, return_counts=True
        )
        for pair, count in zip(pairs.tolist(), counts.tolist()):
            gid, code = divmod(pair, base)
            group = self.refcounts[gid]
            member = members[code]
            total = group.get(member, 0) + sign * count
            if total > 0:
                if member not in group:
                    self.member_count += 1
                group[member] = total
            elif total == 0 and member in group:
                del group[member]
                self.member_count -= 1
            elif total < 0:
                raise ValueError(
                    f"retract of unseen DISTINCT value {member!r}"
                )

    def update(self, batch: Batch, gids: np.ndarray, ngroups: int) -> None:
        self._apply(batch, gids, ngroups, +1)

    def retract(self, batch: Batch, gids: np.ndarray, ngroups: int) -> None:
        self._apply(batch, gids, ngroups, -1)

    def merge(self, other: "_RefcountedDistinctState", mapping,
              ngroups: int) -> None:
        self._grow(ngroups)
        for gid, counts in enumerate(other.refcounts):
            if counts:
                target = self.refcounts[mapping[gid]]
                for member, count in counts.items():
                    if member not in target:
                        self.member_count += 1
                    target[member] = target.get(member, 0) + count

    def finalize(self, ngroups: int) -> np.ndarray:
        self._grow(ngroups)
        return np.array(
            [len(counts) for counts in self.refcounts[:ngroups]],
            dtype=np.int64,
        )

    def approx_bytes(self) -> int:
        return 64 * len(self.refcounts) + 96 * self.member_count


class _MinMaxState:
    def __init__(self, arg: ast.Expr, is_min: bool):
        self.arg = arg
        self.name = "MIN" if is_min else "MAX"
        self.ufunc = np.minimum if is_min else np.maximum
        self.extremes: np.ndarray | None = None
        self.seen = np.zeros(0, dtype=bool)

    def _grow(self, ngroups: int, dtype) -> None:
        if self.extremes is None:
            self.extremes = np.empty(0, dtype=dtype)
        if len(self.extremes) < ngroups:
            pad = np.empty(ngroups - len(self.extremes), dtype=self.extremes.dtype)
            self.extremes = np.concatenate([self.extremes, pad])
            grown_seen = np.zeros(ngroups, dtype=bool)
            grown_seen[: len(self.seen)] = self.seen
            self.seen = grown_seen

    def _combine(self, idx: np.ndarray, ext: np.ndarray) -> None:
        known = self.seen[idx]
        fresh = idx[~known]
        self.extremes[fresh] = ext[~known]
        self.seen[fresh] = True
        old = idx[known]
        if old.size:
            self.extremes[old] = self.ufunc(self.extremes[old], ext[known])

    def update(self, batch: Batch, gids: np.ndarray, ngroups: int) -> None:
        values = _eval_values(self.arg, batch)
        self._grow(ngroups, values.dtype)
        if gids.size == 0:
            return
        order = np.argsort(gids, kind="stable")
        sorted_gids = gids[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_gids[1:] != sorted_gids[:-1]))
        )
        self._combine(sorted_gids[starts], self.ufunc.reduceat(values[order], starts))

    def merge(self, other: "_MinMaxState", mapping, ngroups: int) -> None:
        if other.extremes is None:
            return
        self._grow(ngroups, other.extremes.dtype)
        src = np.flatnonzero(other.seen)
        if src.size:
            self._combine(np.asarray(mapping)[src], other.extremes[src])

    def finalize(self, ngroups: int) -> np.ndarray:
        if (self.extremes is None or len(self.extremes) < ngroups
                or not self.seen[:ngroups].all()):
            raise ExprError(f"{self.name} over empty input")
        return self.extremes[:ngroups]

    def approx_bytes(self) -> int:
        extremes = 0 if self.extremes is None else self.extremes.nbytes
        return extremes + self.seen.nbytes


class _AvgState:
    def __init__(self, arg: ast.Expr, mode: str, levels: int,
                 retractable: bool = False):
        self.sum = _SumState(arg, mode, levels, retractable)
        self.count = _CountState()

    def update(self, batch, gids, ngroups):
        self.sum.update(batch, gids, ngroups)
        self.count.update(batch, gids, ngroups)

    def retract(self, batch, gids, ngroups):
        self.sum.retract(batch, gids, ngroups)
        self.count.retract(batch, gids, ngroups)

    def merge(self, other, mapping, ngroups):
        self.sum.merge(other.sum, mapping, ngroups)
        self.count.merge(other.count, mapping, ngroups)

    def finalize(self, ngroups):
        sums = self.sum.finalize(ngroups)
        counts = self.count.finalize(ngroups)
        return sums / np.maximum(counts, 1)

    def approx_bytes(self):
        return self.sum.approx_bytes() + self.count.approx_bytes()


class _VarState:
    """VARIANCE/STDDEV from SUM(x) and SUM(x*x) — the paper's footnote-2
    recipe: with a reproducible SUM these become reproducible too.
    x*x is an element-wise (order-free) operation."""

    def __init__(self, name: str, arg: ast.Expr, mode: str, levels: int,
                 retractable: bool = False):
        self.name = name
        self.arg = arg
        self.sum_x = _make_float_sum_impl(np.float64, mode, levels, retractable)
        self.sum_xx = _make_float_sum_impl(np.float64, mode, levels, retractable)
        self.count = _CountState()

    def update(self, batch, gids, ngroups):
        values = np.asarray(_eval_values(self.arg, batch), dtype=np.float64)
        self.sum_x.update(values, gids, ngroups)
        self.sum_xx.update(values * values, gids, ngroups)
        self.count.update(batch, gids, ngroups)

    def retract(self, batch, gids, ngroups):
        # x*x is element-wise, so retracting the squared values is as
        # order-free as adding them was.
        values = np.asarray(_eval_values(self.arg, batch), dtype=np.float64)
        self.sum_x.retract(values, gids, ngroups)
        self.sum_xx.retract(values * values, gids, ngroups)
        self.count.retract(batch, gids, ngroups)

    def merge(self, other, mapping, ngroups):
        self.sum_x.merge(other.sum_x, mapping, ngroups)
        self.sum_xx.merge(other.sum_xx, mapping, ngroups)
        self.count.merge(other.count, mapping, ngroups)

    def finalize(self, ngroups):
        sums = self.sum_x.finalize(ngroups)
        squares = self.sum_xx.finalize(ngroups)
        counts = self.count.finalize(ngroups).astype(np.float64)
        ddof = 0.0 if self.name.endswith("_POP") else 1.0
        denominator = np.maximum(counts - ddof, 1.0)
        variance = squares - sums * sums / np.maximum(counts, 1.0)
        variance = np.maximum(variance, 0.0) / denominator
        if self.name.startswith("STDDEV"):
            return np.sqrt(variance)
        return variance

    def approx_bytes(self):
        return (
            self.sum_x.approx_bytes() + self.sum_xx.approx_bytes()
            + self.count.approx_bytes()
        )


_VAR_NAMES = ("VARIANCE", "VAR_SAMP", "VAR_POP", "STDDEV", "STDDEV_SAMP",
              "STDDEV_POP")

#: Dict stand-in for NaN group keys: ``nan != nan``, so a raw NaN can
#: never be found again in the key table; ``np.unique`` collapses NaNs
#: within a morsel and the key dict must do the same across morsels.
_NAN_KEY = object()


def factorize_object(arr: np.ndarray):
    """Dictionary-encode an object array in one pass (first-arrival
    codes; far cheaper than ``np.unique``'s Python-level sort, and safe
    for ``None`` entries from a LEFT JOIN's null-introduced columns).
    Returns ``(codes, uniques)``."""
    table: dict = {}
    codes = np.empty(arr.size, dtype=np.int64)
    for i, value in enumerate(arr.tolist()):
        code = table.get(value)
        if code is None:
            code = len(table)
            table[value] = code
        codes[i] = code
    uniques = np.empty(len(table), dtype=object)
    for value, code in table.items():
        uniques[code] = value
    return codes, uniques


def _object_sort_rank(col: np.ndarray) -> np.ndarray:
    """Sorted-rank codes of an object key column, with ``None`` (a LEFT
    JOIN's null) ordered before every real value."""
    ordered = sorted(set(col.tolist()), key=lambda v: (v is not None, v))
    rank = {value: j for j, value in enumerate(ordered)}
    return np.array([rank[value] for value in col.tolist()], dtype=np.int64)


def _key_identity(key: tuple) -> tuple:
    """Hash/equality form of a key tuple: NaN -> sentinel, -0.0 -> 0.0."""
    out = []
    for value in key:
        if isinstance(value, (float, np.floating)):
            if value != value:  # NaN
                out.append(_NAN_KEY)
                continue
            if value == 0.0:
                value = type(value)(0.0)
        out.append(value)
    return tuple(out)


class AggregateSpec:
    """Resolved plan for one aggregate call: validates the call once and
    manufactures fresh partial states for each worker."""

    def __init__(self, call: ast.FuncCall, sum_config: SumConfig):
        self.call = call
        self.sql = call.sql()
        self.sum_config = sum_config
        name = call.name
        if call.distinct:
            # DISTINCT is honoured for COUNT(DISTINCT expr) only; every
            # other spelling errors out rather than silently dropping
            # the qualifier (which would return wrong answers).
            if (
                name != "COUNT"
                or len(call.args) != 1
                or isinstance(call.args[0], ast.Star)
            ):
                raise NotImplementedError(
                    "DISTINCT aggregates are only supported as "
                    f"COUNT(DISTINCT expr); got {self.sql}"
                )
        if name != "COUNT" and not call.args:
            raise ExprError(f"{name} requires an argument")
        if name == "RSUM":
            self.levels = sum_config.levels
            if len(call.args) > 1:
                lv = call.args[1]
                if not isinstance(lv, ast.Literal) or not isinstance(lv.value, int):
                    raise ExprError("RSUM level argument must be an integer literal")
                self.levels = lv.value
        else:
            self.levels = sum_config.levels
        if name not in ("COUNT", "SUM", "RSUM", "AVG", "MIN", "MAX") + _VAR_NAMES:
            raise ExprError(f"unknown aggregate {name!r}")

    def supports_retraction(self) -> bool:
        """True when :meth:`make_state` with ``retractable=True`` yields
        a state whose ``retract`` is the *exact* inverse of ``update``.

        MIN/MAX cannot retract (a bounded extreme forgets the runner-
        up), and the ieee/sorted SUM family is excluded because IEEE
        float subtraction leaves rounding residue — the reproducible
        modes are what make incremental view maintenance exact, which
        is the paper's pre-aggregation argument in practice.
        """
        name = self.call.name
        if name == "COUNT" or name == "RSUM":
            return True
        if name in ("MIN", "MAX"):
            return False
        return self.sum_config.mode in ("repro", "repro_buffered")

    def make_state(self, retractable: bool = False):
        name = self.call.name
        mode = self.sum_config.mode
        if name == "COUNT":
            if self.call.distinct:
                if retractable:
                    return _RefcountedDistinctState(self.call.args[0])
                return _DistinctCountState(self.call.args[0])
            return _CountState()
        arg = self.call.args[0]
        if name == "SUM":
            return _SumState(arg, mode, self.levels, retractable)
        if name == "RSUM":
            # Reproducible regardless of the session sum mode.
            return _SumState(arg, "repro", self.levels, retractable)
        if name == "AVG":
            return _AvgState(arg, mode, self.levels, retractable)
        if name == "MIN":
            return _MinMaxState(arg, is_min=True)
        if name == "MAX":
            return _MinMaxState(arg, is_min=False)
        return _VarState(name, arg, mode, self.levels, retractable)


class PartialGroupTable:
    """Worker-local GROUP BY state: a key table plus one partial state
    per aggregate.

    This is the engine-layer sibling of
    :class:`~repro.aggregation.streaming.StreamingGroupSum`, generalised
    to composite keys and arbitrary aggregate lists.  Keys are assigned
    dense gids in first-arrival order; :meth:`merge` folds another
    worker's table in through an injective gid mapping, and
    :meth:`finalize` emits groups in canonical (sorted-key) order so the
    output is independent of arrival order.
    """

    def __init__(self, group_exprs, specs: list[AggregateSpec]):
        self.group_exprs = tuple(group_exprs)
        self.specs = specs
        self.states = [spec.make_state() for spec in specs]
        self._key_to_gid: dict = {}
        self._keys: list[tuple] = []
        self._key_dtypes: list | None = None
        #: ``(ngroups, columns)`` memo for :meth:`_key_columns`; stale
        #: the moment a registration grows ``_keys``
        self._key_columns_memo = None
        if not self.group_exprs:
            # Aggregation without grouping: one global group, always
            # present (so zero-row inputs still produce one output row).
            self._key_to_gid[()] = 0
            self._keys.append(())

    @property
    def ngroups(self) -> int:
        return len(self._keys)

    def approx_bytes(self) -> int:
        """Resident-memory estimate of this partial table: key registry
        plus every aggregate state.  Used by the external aggregation's
        budget accounting (:mod:`repro.aggregation.external_agg`); a
        rough upper bound is all it needs."""
        keys = self.ngroups * (
            _KEY_BYTES_BASE + _KEY_BYTES_PER_COLUMN * len(self.group_exprs)
        )
        return keys + sum(state.approx_bytes() for state in self.states)

    # -- morsel consumption ------------------------------------------------
    def update(self, batch: Batch) -> None:
        gids = self._factorize(batch)
        ngroups = self.ngroups
        for state in self.states:
            state.update(batch, gids, ngroups)

    def _factorize(self, batch: Batch) -> np.ndarray:
        """Composite morsel keys -> table gids, registering new keys."""
        if not self.group_exprs:
            return np.zeros(batch.nrows, dtype=np.int64)
        inverses = []
        uniques = []
        for expr in self.group_exprs:
            arr = np.asarray(evaluate(expr, batch.columns, batch.types))
            if arr.shape == ():
                arr = np.full(batch.nrows, arr)
            try:
                uniq, inverse = np.unique(arr, return_inverse=True)
            except TypeError:
                # Object keys with None entries (a LEFT JOIN's
                # null-introduced column) cannot sort; dictionary-
                # encode instead.
                inverse, uniq = factorize_object(arr)
            inverses.append(inverse.astype(np.int64))
            uniques.append(uniq)
        if self._key_dtypes is None:
            self._key_dtypes = [uniq.dtype for uniq in uniques]
        combined = inverses[0]
        for inv, uniq in zip(inverses[1:], uniques[1:]):
            combined = combined * len(uniq) + inv
        dense_uniq, morsel_gids = np.unique(combined, return_inverse=True)
        key_cols = self._decode_columns(
            dense_uniq, uniques, [len(uniq) for uniq in uniques]
        )
        lut = self._bulk_register(
            list(zip(*[col.tolist() for col in key_cols]))
        )
        return lut[morsel_gids.astype(np.int64)]

    @staticmethod
    def _decode_columns(dense: np.ndarray, uniques: list,
                        bases: list[int]) -> list:
        """Split composite radix codes back into per-key distinct values
        (shared by the scalar and vectorized factorizations, so the key
        decode cannot diverge between the two paths)."""
        key_cols = []
        radix = dense
        for uniq, base in zip(reversed(uniques[1:]), reversed(bases[1:])):
            key_cols.append(uniq[radix % base])
            radix = radix // base
        key_cols.append(uniques[0][radix])
        key_cols.reverse()
        return key_cols

    def _register(self, key: tuple) -> int:
        """Register one key tuple (single-key convenience over
        :meth:`_bulk_register`, which owns the identity logic)."""
        return int(self._bulk_register([key])[0])

    def _ident_is_key(self) -> bool:
        """True when key tuples *are* their identity form — no float
        key columns (the only dtype :func:`_key_identity` rewrites) and
        no object columns (which may hold floats or None)."""
        dtypes = self._key_dtypes
        if dtypes is None or len(dtypes) != len(self.group_exprs):
            return not self.group_exprs
        return all(
            dt is not None and np.dtype(dt).kind in "iubUSM"
            for dt in dtypes
        )

    def _bulk_register(self, keys: list) -> np.ndarray:
        """Register many key tuples at once; returns their gids.

        The bulk paths (exact merge, spill-run restore) pay one
        C-level dict sweep for the hits and only run Python-level work
        for genuinely new keys — the difference between O(n) dict ops
        and O(n) Python function calls matters when the external
        aggregation re-merges thousands of groups per run file.
        """
        if self._ident_is_key():
            idents = keys
        else:
            idents = [_key_identity(key) for key in keys]
        table = self._key_to_gid
        stored = self._keys
        hits = list(map(table.get, idents))
        if None not in hits:
            # Steady state (merges, spill restores): every key already
            # registered — one C-level conversion, no Python loop.
            return np.fromiter(hits, np.int64, len(hits))
        self._key_columns_memo = None
        fast = idents is keys
        if fast:
            # Identity keys: insert every miss speculatively with one
            # C-level ``dict.update``.  Registered gids are < base, so
            # -1 marks the miss slots unambiguously.  Callers pass
            # within-call-distinct keys; if a duplicate slips in the
            # update self-overwrites (the size delta betrays it) and
            # the speculative insert is unwound below.
            base = len(stored)
            gids = np.fromiter(
                (-1 if h is None else h for h in hits),
                np.int64, len(hits),
            )
            misses = [k for k, h in zip(keys, hits) if h is None]
            table.update(zip(misses, range(base, base + len(misses))))
            if len(table) == base + len(misses):
                stored.extend(misses)
                gids[gids < 0] = np.arange(
                    base, base + len(misses), dtype=np.int64
                )
                return gids
            for key in misses:
                if table.get(key, -1) >= base:
                    del table[key]
        mapping = np.empty(len(keys), dtype=np.int64)
        for g, gid in enumerate(hits):
            if gid is None:
                fresh = len(stored)
                gid = table.setdefault(idents[g], fresh)
                if gid == fresh:
                    if fast:
                        stored.append(keys[g])
                    else:
                        stored.append(tuple(
                            orig if member is _NAN_KEY else member
                            for orig, member in zip(keys[g], idents[g])
                        ))
            mapping[g] = gid
        return mapping

    # -- exact merge -------------------------------------------------------
    def merge(self, other: "PartialGroupTable") -> None:
        """Fold a worker-local table in (exact for repro aggregates)."""
        if self._key_dtypes is None:
            self._key_dtypes = other._key_dtypes
        mapping = self._bulk_register(other._keys)
        ngroups = self.ngroups
        for state, other_state in zip(self.states, other.states):
            state.merge(other_state, mapping, ngroups)

    # -- finalisation ------------------------------------------------------
    def _canonical_order(self) -> np.ndarray | None:
        """Permutation putting groups in sorted-key order (the order the
        whole-batch ``np.unique`` factorisation produced pre-pipeline)."""
        if not self.group_exprs or self.ngroups <= 1:
            return None
        codes = []
        for i in range(len(self.group_exprs)):
            col = self._key_column(i)
            if col.dtype == object:
                codes.append(_object_sort_rank(col))
            elif col.dtype.kind in "iubUSM":
                # Raw values rank exactly like their unique-inverse
                # codes for totally-ordered dtypes; skip the per-column
                # sort the code substitution would cost.  Floats keep
                # the code path (NaN/-0.0 collapse rules live there).
                codes.append(col)
            else:
                codes.append(np.unique(col, return_inverse=True)[1])
        return np.lexsort(tuple(reversed(codes)))

    def _key_columns(self) -> list[np.ndarray]:
        """Every key column materialized in one transpose, memoized:
        finalisation reads each column twice (ordering + output), and
        the C-level ``np.array`` over a transposed tuple beats a
        Python assignment loop per group."""
        memo = self._key_columns_memo
        if memo is not None and memo[0] == self.ngroups:
            return memo[1]
        nkeys = len(self.group_exprs)
        dtypes = self._key_dtypes if self._key_dtypes else [object] * nkeys
        if not self._keys:
            columns = [np.empty(0, dtype=dt) for dt in dtypes]
        else:
            columns = [
                np.array(values, dtype=dt)
                for values, dt in zip(zip(*self._keys), dtypes)
            ]
        self._key_columns_memo = (self.ngroups, columns)
        return columns

    def _key_column(self, i: int) -> np.ndarray:
        return self._key_columns()[i]

    def _finalize_results(self, ngroups: int) -> list:
        """Per-spec result arrays in table gid order (hook for the
        vectorized subclass, whose physical states are shared between
        specs)."""
        return [state.finalize(ngroups) for state in self.states]

    def finalize(self):
        """Returns (key_arrays, result_arrays, ngroups), canonical order."""
        ngroups = self.ngroups
        order = self._canonical_order()
        key_arrays = []
        if self.group_exprs:
            for i in range(len(self.group_exprs)):
                col = self._key_column(i)
                key_arrays.append(col if order is None else col[order])
        results = [
            arr if order is None else arr[order]
            for arr in self._finalize_results(ngroups)
        ]
        return key_arrays, results, ngroups


def grouped_float_sum(values: np.ndarray, gids: np.ndarray, ngroups: int,
                      mode: str, levels: int = 2) -> np.ndarray:
    """The four SUM implementations as one-shot whole-column kernels.

    This is the pre-pipeline serial path, kept as the reference oracle:
    for the repro modes the partial-state pipeline must reproduce these
    bits exactly, for any (workers, morsel_size) split.
    """
    if mode == "ieee":
        out = np.zeros(ngroups, dtype=values.dtype)
        np.add.at(out, gids, values)
        return out
    if mode in ("repro", "repro_buffered"):
        from ..aggregation.grouped import GroupedSummation

        fmt = BINARY32 if values.dtype == np.float32 else BINARY64
        grouped = GroupedSummation.from_pairs(
            RsumParams(fmt, levels), gids, values.astype(fmt.dtype), ngroups
        )
        return grouped.finalize()
    if mode == "sorted":
        bits = values.view(np.uint32 if values.dtype == np.float32 else np.uint64)
        order = np.lexsort((bits, gids))
        sorted_gids = gids[order]
        sorted_values = values[order]
        out = np.zeros(ngroups, dtype=values.dtype)
        np.add.at(out, sorted_gids, sorted_values)
        return out
    raise ValueError(f"unknown sum mode {mode!r}")
