"""The per-morsel group table of every SELECT aggregate.

:class:`VectorizedGroupTable` is the one aggregate runtime: the
in-memory pipeline, the external (spill) aggregation and the shard
executors all build it through :data:`repro.engine.pipeline.
make_group_table`, driven by a generated kernel
(:mod:`repro.engine.fused`) when the planner compiled one and by its
own :meth:`~VectorizedGroupTable.update` otherwise.  The scalar
:class:`~repro.engine.operators.PartialGroupTable` it extends — every
morsel re-factorizes its key columns with ``np.unique`` over object
arrays, every aggregate re-evaluates its argument expression — is the
reference the differential tests compare against, never a query path.

Per morsel the table:

1. evaluates all expressions through one :class:`~repro.engine.expr.
   ExprCache` (common sub-expressions are computed once);
2. computes group ids for the whole morsel at once — dictionary-encoded
   key columns (see :meth:`repro.engine.table.Column.encoding`) combine
   with pure integer radix arithmetic, numeric keys go through
   ``np.unique`` with the same canonical NaN / ``-0.0`` handling as the
   scalar key table;
3. sorts the morsel by group id **at most once** (a lazy radix
   argsort shared by the aggregates that need it) and updates
   per-group partial states with segment kernels — ``ufunc.reduceat``
   reductions for MIN/MAX and int sums; the RSUM ladders go through
   the blocked kernel (:func:`~repro.aggregation.grouped.
   add_blocked_multi`), which scatter-accumulates every row whose
   group sits on its table's prevailing ladder and sorts only the
   stragglers;
4. shares physical states between aggregates: ``AVG(x)`` reuses the
   ``SUM(x)`` state and one common ``COUNT`` state, the six
   VARIANCE/STDDEV spellings share one second-moment state.

Reproducibility is preserved *by construction*: the repro-mode partial
states are exact under any permutation and chunking of their input (the
paper's Algorithm 3 horizontal-merge property, which
:class:`~repro.core.rsum_simd.SimdRsum` demonstrates lane-wise), so
re-ordering a morsel by group id cannot change the final bits.  IEEE
sums keep the scalar path's unbuffered ``np.add.at`` accumulation in
physical row order, so even the *non*-reproducible mode returns the
same bits as the scalar path.  The equivalence suite asserts both.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from ..aggregation.partition import stable_group_order
from .expr import ExprCache
from .operators import (
    AggregateSpec,
    Batch,
    PartialGroupTable,
    _CountState,
    _DistinctCountState,
    _MinMaxState,
    _ReproSumImpl,
    _SumState,
    _make_float_sum_impl,
    factorize_object,
)
from .sql import ast
from .types import DecimalSqlType

__all__ = [
    "VectorizedGroupTable",
    "SortedMorsel",
]

#: Composite-code spaces at most this large use a persistent
#: code -> gid lookup table instead of a per-morsel ``np.unique``.
_LUT_MAX = 1 << 20

#: Radix-combine guard: the product of the per-key dictionary sizes must
#: stay below this for the composite int64 codes to be collision-free.
_RADIX_MAX = 1 << 62


# ---------------------------------------------------------------------------
# Shared morsel sort
# ---------------------------------------------------------------------------

class SortedMorsel:
    """One stable sort of a morsel's group ids, shared by every state.

    Lazily computes the permutation putting rows in group-id order, the
    segment starts, and the per-segment gids.  When the ids are already
    non-decreasing (single group, pre-sorted input) the permutation is
    the identity and :meth:`take` returns the input array untouched.
    ``counters`` is the owning group table's ladder-path accounting,
    carried here because the morsel is the one per-update object every
    state sees.
    """

    def __init__(self, gids: np.ndarray,
                 counters: LadderCounters | None = None):
        self.gids = gids
        self.counters = counters
        self._ready = False
        self._identity = False
        self._order: np.ndarray | None = None
        self._sorted_gids: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._seg_gids: np.ndarray | None = None

    def _ensure(self) -> None:
        if self._ready:
            return
        gids = self.gids
        if gids.size == 0:
            self._identity = True
            self._sorted_gids = gids
            self._starts = np.empty(0, dtype=np.int64)
            self._seg_gids = gids
        else:
            if bool((gids[1:] >= gids[:-1]).all()):
                self._identity = True
                self._sorted_gids = gids
            else:
                self._order = stable_group_order(gids)
                self._sorted_gids = gids[self._order]
            sg = self._sorted_gids
            self._starts = GroupedSummation._run_starts(sg)
            self._seg_gids = sg[self._starts]
        self._ready = True

    @property
    def sorted_gids(self) -> np.ndarray:
        self._ensure()
        return self._sorted_gids

    @property
    def starts(self) -> np.ndarray:
        """Segment start offsets into the sorted order."""
        self._ensure()
        return self._starts

    @property
    def seg_gids(self) -> np.ndarray:
        """The distinct gids, one per segment, in sorted-gid order."""
        self._ensure()
        return self._seg_gids

    def take(self, values: np.ndarray) -> np.ndarray:
        """``values`` permuted into group-id order (no-op if sorted)."""
        self._ensure()
        if self._identity:
            return values
        return values[self._order]


class ClusteredMorsel(SortedMorsel):
    """Group-clustering permutation without intra-group stability.

    Consumers whose per-segment reduction is bit-independent of the
    order *within* a group — exact int64 quantum sums (repro ladders),
    int/decimal sums, counts — pay for the stable argsort of
    :class:`SortedMorsel` without needing it.  When few distinct
    groups are present, one counting pass per group builds a grouping
    permutation in ``O(n * distinct)`` sequential scans (each far
    cheaper than a sort's data-dependent movement) and the run starts
    fall out of the group counts for free.  Kernels containing an
    order-sensitive state must keep the stable morsel: float MIN/MAX
    can return either zero of a ``±0.0`` tie depending on encounter
    order, and IEEE-mode float sums depend on it outright.
    """

    #: Beyond this many distinct groups the per-group counting passes
    #: lose to one radix argsort; fall back to the stable morsel.
    _MAX_COUNTING_GROUPS = 32

    def __init__(self, gids: np.ndarray, ngroups: int,
                 counters: LadderCounters | None = None):
        super().__init__(gids, counters)
        self._ngroups = ngroups

    def _ensure(self) -> None:
        if self._ready:
            return
        gids = self.gids
        if gids.size == 0 or bool((gids[1:] >= gids[:-1]).all()):
            super()._ensure()
            return
        counts = np.bincount(gids, minlength=self._ngroups)
        present = np.flatnonzero(counts)
        if present.size > self._MAX_COUNTING_GROUPS:
            super()._ensure()
            return
        kcounts = counts[present]
        self._order = np.concatenate(
            [np.flatnonzero(gids == g) for g in present]
        )
        self._sorted_gids = np.repeat(present, kcounts)
        starts = np.empty(present.size, dtype=np.int64)
        starts[0] = 0
        np.cumsum(kcounts[:-1], out=starts[1:])
        self._starts = starts
        self._seg_gids = present
        self._ready = True


# ---------------------------------------------------------------------------
# Vectorized partial states (merge/finalize inherited => exact parity)
# ---------------------------------------------------------------------------

class _VecCountState(_CountState):
    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        _CountState.update(self, batch, gids, ngroups)


class _VecDistinctCountState(_DistinctCountState):
    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        _DistinctCountState.update(self, batch, gids, ngroups)


def _update_float_sum(impl, values: np.ndarray, gids: np.ndarray,
                      morsel: SortedMorsel, ngroups: int) -> None:
    """Feed one morsel into a float-sum impl.

    Repro impls go through the blocked ladder kernel (exact, so neither
    blocking nor sorting can change the bits); IEEE and sorted-mode
    impls keep their scalar-path update — ``np.add.at`` in physical row
    order — so even the order-*sensitive* mode returns bits identical
    to the scalar path.
    """
    if isinstance(impl, _ReproSumImpl):
        update_ladders((impl,), (values,), gids, morsel, ngroups)
    else:
        impl.update(values, gids, ngroups)


def update_ladders(impls, rows, gids: np.ndarray, morsel: SortedMorsel,
                   ngroups: int) -> None:
    """Feed one morsel into ``k`` same-parameter repro sum impls
    (``rows[i]`` goes to ``impls[i]``) with one call into
    :func:`~repro.aggregation.grouped.add_blocked_multi`."""
    groupeds = []
    for impl in impls:
        if impl.grouped.ngroups < ngroups:
            impl.grouped.resize(ngroups)
        groupeds.append(impl.grouped)
    add_blocked_multi(groupeds, gids, rows, morsel.counters)


class _VecSumState(_SumState):
    def _values_cached(self, batch: Batch, cache: ExprCache):
        if isinstance(self.arg, ast.ColumnRef):
            sql_type = batch.types.get(self.arg.name.lower())
            if isinstance(sql_type, DecimalSqlType):
                # Exact integer path: SUM over a bare DECIMAL column.
                return (
                    batch.columns[self.arg.name.lower()],
                    "decimal",
                    sql_type.scale,
                )
        values = cache.values(self.arg, batch.nrows)
        if values.dtype.kind in "iub":
            return values, "int", None
        return values, "float", None

    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        values, kind, scale = self._values_cached(batch, cache)
        if self.impl is None:
            self.impl = self._make_impl(kind, scale, values.dtype)
        _update_float_sum(self.impl, values, gids, morsel, ngroups)


class _VecMinMaxState(_MinMaxState):
    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        values = cache.values(self.arg, batch.nrows)
        self._grow(ngroups, values.dtype)
        if gids.size == 0:
            return
        self._combine(
            morsel.seg_gids,
            self.ufunc.reduceat(morsel.take(values), morsel.starts),
        )


class _VecSecondMomentState:
    """Shared SUM(x) / SUM(x*x) state behind the VARIANCE/STDDEV family
    (counts live in the table's common count state)."""

    def __init__(self, arg: ast.Expr, mode: str, levels: int):
        self.arg = arg
        self.sum_x = _make_float_sum_impl(np.float64, mode, levels)
        self.sum_xx = _make_float_sum_impl(np.float64, mode, levels)

    def update_vec(self, batch: Batch, cache: ExprCache, gids, morsel,
                   ngroups: int) -> None:
        values = np.asarray(cache.values(self.arg, batch.nrows),
                            dtype=np.float64)
        _update_float_sum(self.sum_x, values, gids, morsel, ngroups)
        _update_float_sum(self.sum_xx, values * values, gids, morsel, ngroups)

    def merge(self, other: "_VecSecondMomentState", mapping,
              ngroups: int) -> None:
        self.sum_x.merge(other.sum_x, mapping, ngroups)
        self.sum_xx.merge(other.sum_xx, mapping, ngroups)

    def approx_bytes(self) -> int:
        return self.sum_x.approx_bytes() + self.sum_xx.approx_bytes()


# ---------------------------------------------------------------------------
# The vectorized group table
# ---------------------------------------------------------------------------

class VectorizedGroupTable(PartialGroupTable):
    """Batched drop-in for :class:`PartialGroupTable`.

    The key table, exact merge, and canonical finalize order are
    inherited — only morsel consumption changes.  Physical partial
    states are shared between specs (AVG reuses SUM and COUNT; the
    VARIANCE/STDDEV spellings share one second-moment state), which is
    bit-safe because a shared state consumes exactly the value sequence
    each private state would have.

    ``kernel`` (a :class:`~repro.engine.fused.FusedKernel`) replaces
    the interpreted per-morsel dispatch of :meth:`update` with one
    generated call; key registration, merge and finalize are the same
    methods either way, which is what pins the two to the same bits.
    ``joins`` holds the built :class:`~repro.engine.join.HashJoin`
    objects the kernel probes (one per fused probe, in chain order):
    kernels are compiled at *plan* time and cached across queries,
    hash tables are built at *execution* time, so the joins ride the
    table as runtime parameters.
    """

    def __init__(self, group_exprs, specs: list[AggregateSpec],
                 kernel=None, joins=()):
        super().__init__(group_exprs, specs)
        self.states, self._spec_plan = self._build_plan(specs)
        self._kernel = kernel
        self._joins = list(joins or ())
        if kernel is not None and len(self._joins) != kernel.njoins:
            raise ValueError(
                f"kernel fuses {kernel.njoins} join probe(s) but "
                f"{len(self._joins)} built join(s) were supplied"
            )
        #: Persistent code -> gid table shared by the two stable-code
        #: factorization paths; ``_lut_bases`` records which code space
        #: the table indexes (per-part dictionary bases, or the
        #: ``("rows", total)`` tag of the build-row path).
        self._lut: np.ndarray | None = None
        self._lut_bases = None
        #: Which ladder path this table's rows took (scattered vs
        #: walked sorted); merged with the workers' and reported on
        #: :class:`~repro.engine.pipeline.PipelineStats`.
        self.ladder = LadderCounters()

    def merge(self, other: PartialGroupTable) -> None:
        super().merge(other)
        self.ladder.merge(other.ladder)

    def approx_bytes(self) -> int:
        lut = 0 if self._lut is None else self._lut.nbytes
        return super().approx_bytes() + lut

    # -- shared physical-state plan ---------------------------------------
    def _build_plan(self, specs: list[AggregateSpec]):
        states: list = []
        count_state: list = []  # 0 or 1 element, shared
        sums: dict = {}
        minmax: dict = {}
        moments: dict = {}

        def need_count() -> _VecCountState:
            if not count_state:
                count_state.append(_VecCountState())
                states.append(count_state[0])
            return count_state[0]

        def need_sum(arg: ast.Expr, mode: str, levels: int) -> _VecSumState:
            key = (arg.sql(), mode, levels)
            state = sums.get(key)
            if state is None:
                state = _VecSumState(arg, mode, levels)
                sums[key] = state
                states.append(state)
            return state

        plan = []
        for spec in specs:
            name = spec.call.name
            mode = spec.sum_config.mode
            if name == "COUNT":
                if spec.call.distinct:
                    state = _VecDistinctCountState(spec.call.args[0])
                    states.append(state)
                else:
                    state = need_count()
                plan.append(("count", state))
                continue
            arg = spec.call.args[0]
            if name in ("SUM", "RSUM"):
                resolved = "repro" if name == "RSUM" else mode
                plan.append(("sum", need_sum(arg, resolved, spec.levels)))
            elif name == "AVG":
                plan.append(
                    ("avg", need_sum(arg, mode, spec.levels), need_count())
                )
            elif name in ("MIN", "MAX"):
                key = (arg.sql(), name)
                state = minmax.get(key)
                if state is None:
                    state = _VecMinMaxState(arg, is_min=(name == "MIN"))
                    minmax[key] = state
                    states.append(state)
                plan.append(("minmax", state))
            else:  # VARIANCE/STDDEV family
                key = (arg.sql(), mode, spec.levels)
                state = moments.get(key)
                if state is None:
                    state = _VecSecondMomentState(arg, mode, spec.levels)
                    moments[key] = state
                    states.append(state)
                plan.append(("var", name, state, need_count()))
        return states, plan

    # -- morsel consumption ------------------------------------------------
    def update(self, batch: Batch) -> None:
        if self._kernel is not None:
            self._kernel.fn(batch, self)
            return
        cache = ExprCache(batch.columns, batch.types)
        gids = self._factorize_vectorized(batch, cache)
        ngroups = self.ngroups
        morsel = SortedMorsel(gids, self.ladder)
        for state in self.states:
            state.update_vec(batch, cache, gids, morsel, ngroups)

    def _factorize_vectorized(self, batch: Batch,
                              cache: ExprCache) -> np.ndarray:
        if not self.group_exprs:
            return np.zeros(batch.nrows, dtype=np.int64)
        parts = []
        all_encoded = True
        for expr in self.group_exprs:
            encoding = None
            if isinstance(expr, ast.ColumnRef):
                encoding = batch.encodings.get(expr.name.lower())
            if encoding is not None:
                codes, uniques = encoding
            else:
                all_encoded = False
                arr = cache.values(expr, batch.nrows)
                codes, uniques = self._encode_values(arr)
            parts.append((codes, uniques, max(len(uniques), 1)))
        return self._gids_from_parts(
            parts, all_encoded,
            lambda: PartialGroupTable._factorize(self, batch),
        )

    @staticmethod
    def _encode_values(arr: np.ndarray):
        """Dictionary-encode one unencoded key column (codes, uniques)."""
        if arr.dtype == object:
            codes, uniques = factorize_object(arr)
        else:
            uniques, codes = np.unique(arr, return_inverse=True)
            codes = codes.astype(np.int64, copy=False)
        return codes, uniques

    def _gids_from_parts(self, parts, all_encoded: bool,
                         scalar_fallback) -> np.ndarray:
        """Composite ``(codes, uniques, base)`` key parts -> table gids.

        Shared by the interpreted vectorized path and the fused kernels
        (:mod:`repro.engine.fused`), so key registration — radix
        combine, persistent LUT, canonical NaN/-0.0 identity — cannot
        diverge between the two.  ``scalar_fallback`` produces the gids
        when the composite radix space would overflow int64.
        """
        total = 1
        for _, _, base in parts:
            total *= base
        if self._key_dtypes is None:
            self._key_dtypes = [uniques.dtype for _, uniques, _ in parts]
        if total >= _RADIX_MAX:
            # Composite radix codes would overflow int64: let the scalar
            # per-morsel key table handle this (automatic fallback).
            return scalar_fallback()
        combined = parts[0][0]
        for codes, _, base in parts[1:]:
            combined = combined * base + codes

        if all_encoded and total <= _LUT_MAX:
            # Stable global dictionaries: composite codes mean the same
            # thing in every morsel, so a persistent code -> gid lookup
            # replaces the per-morsel np.unique entirely.
            bases = [base for _, _, base in parts]
            if self._lut is None or self._lut_bases != bases:
                self._lut = np.full(total, -1, dtype=np.int64)
                self._lut_bases = bases
            gids = self._lut[combined]
            missing = gids < 0
            if missing.any():
                fresh = np.unique(combined[missing])
                key_columns = self._decode_parts(fresh, parts)
                self._lut[fresh] = self._bulk_register(
                    list(zip(*[col.tolist() for col in key_columns]))
                )
                gids = self._lut[combined]
            return gids

        dense, inverse = np.unique(combined, return_inverse=True)
        key_columns = self._decode_parts(dense, parts)
        lut = self._bulk_register(
            list(zip(*[col.tolist() for col in key_columns]))
        )
        return lut[inverse.astype(np.int64, copy=False)]

    def _gids_from_rows(self, codes: np.ndarray, total: int, dtypes,
                        decode_rows) -> np.ndarray:
        """Morsel gids from composite *source-row* codes whose meaning
        is stable across morsels.

        The fused join kernels pass gathered build-row indices here
        when every group key is a function of the build row (a
        build-side column, or a probe key the inner join made equal to
        the build key): unlike per-morsel dictionary codes, a build-row
        index means the same key tuple in every morsel, so a persistent
        code -> gid lookup registers each key *once* for the whole
        query instead of re-uniquing and re-registering per morsel.
        ``decode_rows(fresh_codes)`` gathers the per-key value columns
        for codes not seen before; registration goes through the same
        :meth:`_bulk_register` identity logic as every other path, so
        the stored key representatives (and the result bits) cannot
        diverge.  Code spaces beyond ``_LUT_MAX`` degrade to the
        per-morsel ``np.unique`` registration — same bits, no cache.
        """
        if self._key_dtypes is None:
            self._key_dtypes = list(dtypes)
        if total <= _LUT_MAX:
            signature = ("rows", total)
            if self._lut is None or self._lut_bases != signature:
                self._lut = np.full(total, -1, dtype=np.int64)
                self._lut_bases = signature
            gids = self._lut[codes]
            missing = gids < 0
            if missing.any():
                fresh = np.unique(codes[missing])
                key_columns = decode_rows(fresh)
                self._lut[fresh] = self._bulk_register(
                    list(zip(*[col.tolist() for col in key_columns]))
                )
                gids = self._lut[codes]
            return gids
        dense, inverse = np.unique(codes, return_inverse=True)
        key_columns = decode_rows(dense)
        lut = self._bulk_register(
            list(zip(*[col.tolist() for col in key_columns]))
        )
        return lut[inverse.astype(np.int64, copy=False)]

    @classmethod
    def _decode_parts(cls, dense: np.ndarray, parts) -> list:
        """Radix decode over (codes, uniques, base) parts — delegates to
        the key decode shared with the scalar path."""
        return cls._decode_columns(
            dense,
            [uniques for _, uniques, _ in parts],
            [base for _, _, base in parts],
        )

    # -- finalisation ------------------------------------------------------
    def _finalize_results(self, ngroups: int) -> list:
        finals: dict[int, np.ndarray] = {}

        def final(state):
            key = id(state)
            if key not in finals:
                finals[key] = state.finalize(ngroups)
            return finals[key]

        def impl_final(impl):
            key = id(impl)
            if key not in finals:
                finals[key] = impl.finalize(ngroups)
            return finals[key]

        results = []
        for entry in self._spec_plan:
            kind = entry[0]
            if kind == "count":
                results.append(final(entry[1]))
            elif kind == "sum":
                results.append(final(entry[1]))
            elif kind == "avg":
                sums = final(entry[1])
                counts = final(entry[2])
                results.append(sums / np.maximum(counts, 1))
            elif kind == "minmax":
                results.append(final(entry[1]))
            else:  # var
                name, moment, count = entry[1], entry[2], entry[3]
                sums = impl_final(moment.sum_x)
                squares = impl_final(moment.sum_xx)
                counts = final(count).astype(np.float64)
                ddof = 0.0 if name.endswith("_POP") else 1.0
                denominator = np.maximum(counts - ddof, 1.0)
                variance = squares - sums * sums / np.maximum(counts, 1.0)
                variance = np.maximum(variance, 0.0) / denominator
                if name.startswith("STDDEV"):
                    results.append(np.sqrt(variance))
                else:
                    results.append(variance)
        return results
