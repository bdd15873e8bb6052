"""The group table of every aggregate — SELECT, view build and REFRESH.

:class:`VectorizedGroupTable` is the one aggregate runtime: the
in-memory pipeline, the external (spill) aggregation and
materialized-view maintenance all construct it, the
query paths through :data:`repro.engine.pipeline.make_group_table`.
One feeder: every morsel arrives through
:meth:`~VectorizedGroupTable.update`.  The table owns three things:

* the **key registry** — group keys get dense gids in first-arrival
  order, NaN keys collapse and ``-0.0`` joins ``0.0``; finalize emits
  groups in canonical (sorted-key) order, so output is independent of
  arrival order.  The registry is columnar: the keys are one array per
  key column in gid order, and a key row is looked up by its identity
  — one int64 per column (integers by value, floats by canonical
  bits, strings and ``None`` through a per-column dict) — in one
  sorted index with ``np.searchsorted``, so registering keys makes no
  Python object per key (:meth:`~VectorizedGroupTable.
  _register_columns`);
* the **spec -> shared-state plan** — ``AVG(x)`` reuses the ``SUM(x)``
  state and one common ``COUNT`` state, the six VARIANCE/STDDEV
  spellings share one second-moment state.  Sharing is bit-safe
  because a shared state consumes exactly the value sequence each
  private one would have.  The states themselves
  (:mod:`repro.engine.aggregates`) are opaque to the table;
* the only **AVG and VARIANCE/STDDEV formulas**, applied at finalize.

Per morsel :meth:`~VectorizedGroupTable.update`:

1. evaluates all expressions through one :class:`~repro.engine.expr.
   ExprCache` (common sub-expressions are computed once; a column of
   the late-materialized batch is gathered when first read, one nobody
   reads never);
2. computes group ids for the whole morsel at once — from the hidden
   build-row column when the planner found that a probe's build row
   determines the group (:meth:`~VectorizedGroupTable._gids_from_rows`:
   the join factorised its build keys once per build, so a
   group is named by its build key code, no key column is gathered and
   no key registered); otherwise dictionary-encoded key columns (see
   :meth:`repro.engine.table.Column.encoding`) combine with pure
   integer radix arithmetic through a persistent code -> gid table,
   and only the morsel's distinct new keys reach the registry.  An
   unencoded key column gets its codes from
   :meth:`~VectorizedGroupTable._encode_values`: an integer column
   whose values span a few slots per row is offset into a bounded
   space, and the one sort left per morsel is the ``np.unique`` of a
   float, string or widely spread integer column.  Every code space
   the table knows to be bounded — such integer offsets, its codes,
   composite codes, dictionary codes, build codes — yields its
   distinct codes from a mark array
   (:func:`~repro.engine.operators.distinct_codes`,
   :func:`~repro.engine.operators.dense_codes`; a sort only when a few
   codes meet a large space);
3. hands every state the morsel's group ids; every state updates in
   place per group — ``np.bincount``, ``np.add.at``, MIN/MAX's
   ``np.minimum.at`` / ``np.maximum.at`` — so no state sorts the morsel;
4. feeds the rsum ladders last, **one call per parameter set**: every
   ``LadderSum`` of equal ``(dtype, levels)`` — SUM, AVG's numerator,
   the three sums of VARIANCE's second moment — queued its values in
   step 3 and they go through the compiled ladder update
   (:func:`~repro.aggregation.grouped.add_blocked_multi`) together;
   one C loop per block adds every row whose group sits on its
   table's prevailing ladder and hands the stragglers to the
   reference chunk update.  Batching is
   bit-neutral: each accumulator still consumes exactly its own value
   sequence, only the dispatch is shared.

Reproducibility is preserved *by construction*: the repro-mode states
are exact under any permutation and chunking of their input (the
paper's Algorithm 3 horizontal-merge property, which
``benchmarks/paper/rsum_simd.py`` demonstrates lane-wise), so
how the ladder update blocks a morsel cannot change the final bits.  IEEE
sums accumulate unbuffered in physical row order, so even the
*non*-reproducible mode means the same thing under every split.  The
differential tests hold all of this against a row-order reference
table that lives under ``tests/``.
"""

from __future__ import annotations

import sys

import numpy as np

from ..aggregation.grouped import LadderCounters
from ..core.stats import variance
from ..errors import SpillFormatError
from .aggregates import (
    CountState,
    DistinctState,
    MinMaxState,
    Moment2State,
    SumState,
    update_ladders,
)
from .expr import ExprCache
from .operators import (
    _SCRATCH_PER_CODE,
    BUILD_ROW,
    AggregateSpec,
    Batch,
    _object_sort_rank,
    canonical_float_bits,
    dense_codes,
    distinct_codes,
    factorize_object,
)
from .sql import ast

__all__ = [
    "VectorizedGroupTable",
    "canonical_key_order",
    "factorize_keys",
]

#: Composite-code spaces at most this large use a persistent
#: code -> gid lookup table instead of per-morsel registration.
_LUT_MAX = 1 << 20

#: Radix-combine guard: the product of the per-key dictionary sizes must
#: stay below this for the composite int64 codes to be collision-free.
_RADIX_MAX = 1 << 62

#: An unencoded integer key column whose values span at most this many
#: slots per row takes its codes from a mark array
#: (:meth:`VectorizedGroupTable._encode_values`); the bound is
#: :func:`~repro.engine.operators.dense_codes`' own for an inverse.
_INT_SPAN_PER_ROW = _SCRATCH_PER_CODE // 8


# ---------------------------------------------------------------------------
# The group table
# ---------------------------------------------------------------------------

def _canonical_objects(values: list) -> list:
    """Object key values in the key identity's canonical form: every NaN
    is ``np.nan`` (one object, so a dict finds it again by identity,
    though ``nan != nan``) and a float zero is ``+0.0``; strings,
    ``None`` and everything else as themselves."""
    return [
        np.nan if value != value
        else type(value)(0.0)
        if value == 0 and isinstance(value, (float, np.floating))
        else value
        for value in values
    ]


def canonical_key_order(key_columns, distinct: bool = False) -> np.ndarray:
    """Permutation putting key rows in sorted-key order (the order the
    whole-batch ``np.unique`` factorisation produced pre-pipeline) —
    THE output order of every grouped result.

    ``distinct`` adds the pass a concatenation of separately finalized
    partitions needs: two rows holding one key (equal under the key
    identity) raise rather than return a group twice.
    """
    codes = []
    for col in key_columns:
        if col.dtype == object:
            codes.append(_object_sort_rank(col))
        elif col.dtype.kind in "iubUSM":
            # Raw values rank exactly like their unique-inverse codes
            # for totally-ordered dtypes; skip the per-column sort the
            # code substitution would cost.  Floats keep the code path
            # (NaN/-0.0 collapse rules live there).
            codes.append(col)
        else:
            codes.append(np.unique(col, return_inverse=True)[1])
    order = np.lexsort(tuple(reversed(codes)))
    if distinct and len(order) > 1:
        same = np.ones(len(order) - 1, dtype=bool)
        for code in codes:
            ranked = code[order]
            same &= ranked[1:] == ranked[:-1]
        if same.any():
            raise SpillFormatError(
                f"{int(same.sum())} group keys reached more than one "
                "spill partition: the partition router sent equal keys "
                "different ways"
            )
    return order


def factorize_keys(columns) -> tuple[np.ndarray, list[np.ndarray]]:
    """``(row_code, key_columns)``: distinct-key codes of the rows of
    ``columns`` under the group tables' key identity (one NaN group,
    ``-0.0`` is ``0.0``; strings and ``None`` as themselves), and each
    code's key as the registry would output it — the first row holding
    it, NaN canonical and ``-0.0`` as ``0.0``.
    """
    parts = []
    for col in columns:
        if col.dtype == object:
            index: dict = {}
            codes = np.fromiter(
                (index.setdefault(value, len(index))
                 for value in _canonical_objects(col.tolist())),
                np.int64, len(col),
            )
        else:
            identity = canonical_float_bits(col) if col.dtype.kind == "f" \
                else col
            codes = np.unique(identity, return_inverse=True)[1]
            codes = codes.astype(np.int64, copy=False)
        parts.append((codes, int(codes.max(initial=0)) + 1))
    first, row_code = _distinct_rows(parts)
    return row_code, [_canonical_keys(col[first]) for col in columns]


def _canonical_keys(col: np.ndarray) -> np.ndarray:
    """A freshly gathered key column in canonical form, in place: one
    NaN, ``0.0`` for ``-0.0`` (:func:`_canonical_objects` for
    objects)."""
    if col.dtype == object:
        col[:] = _canonical_objects(col.tolist())
    elif col.dtype.kind == "f":
        col[col == 0.0] = 0.0
        col[np.isnan(col)] = np.nan
    return col


def _identity(col: np.ndarray, objects: dict | None) -> np.ndarray:
    """One int64 per value of a key column, equal exactly when the
    values are one key: integers (BOOL, DATE) by value,
    floats by :func:`~repro.engine.operators.canonical_float_bits`, and
    objects (strings, ``None``) by ``objects`` — the column's own
    value -> number dict, which grows by the values it has not seen."""
    if objects is not None:
        return np.fromiter(
            (objects.setdefault(value, len(objects))
             for value in _canonical_objects(col.tolist())),
            np.int64, len(col),
        )
    if col.dtype.kind == "f":
        return canonical_float_bits(col).view(np.int64)
    return col.astype(np.int64, copy=False)


def _distinct_rows(parts) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` over the distinct rows of per-key codes
    ``parts`` (``(codes, base)`` pairs, ``0 <= codes < base``): one
    representative row per distinct key tuple, and each row's dense
    distinct-key code.  The running composite is re-densified after
    every key, so it never exceeds rows x base and cannot overflow."""
    combined = parts[0][0]
    for codes, base in parts[1:]:
        combined = np.unique(combined, return_inverse=True)[1]
        combined = combined.astype(np.int64, copy=False) * base + codes
    _, first, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    return first, inverse.astype(np.int64, copy=False)


def _avg(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    return sums / np.maximum(counts, 1)


def _variance_family(name: str, moment, counts) -> np.ndarray:
    """VARIANCE / STDDEV (``_SAMP`` default, ``_POP``) from the exact
    second moment (:meth:`Moment2State.finalize`), rounded once."""
    var = variance(moment, counts, 0 if name.endswith("_POP") else 1)
    return np.sqrt(var) if name.startswith("STDDEV") else var


class VectorizedGroupTable:
    """Worker-local GROUP BY state: a key registry plus the shared
    physical states of an aggregate list."""

    def __init__(self, group_exprs, specs: list[AggregateSpec]):
        self.group_exprs = tuple(group_exprs)
        self.specs = specs
        self.states, self._spec_plan = self._build_plan(specs)
        self._key_dtypes: list | None = None
        #: The key registry (:meth:`_register_columns`): every group's
        #: key, one array per key column in gid order and canonical
        #: form (``None`` before the first key) ...
        self._key_cols: list[np.ndarray] | None = None
        #: ... per object column its value -> number dict (``None`` for
        #: the others) ...
        self._key_objects: list = []
        #: ... and the keys' identities (:func:`_identity`; a void row
        #: of them for several columns), sorted, with each one's gid.
        self._index: np.ndarray | None = None
        self._index_gids = np.empty(0, dtype=np.int64)
        #: Persistent code -> gid table of :meth:`_gids_from_codes`;
        #: ``_lut_bases`` records which code space it indexes.
        self._lut: np.ndarray | None = None
        self._lut_bases = None
        #: Build-row groups (:meth:`_gids_from_rows`): the join's
        #: :class:`~repro.engine.join.BuildRowKeys` naming them, its
        #: key code -> gid table and every gid's key code.  The key
        #: registry above stays empty while these are set.
        self._row_keys = None
        self._row_lut: np.ndarray | None = None
        self._gid_codes: np.ndarray | None = None
        #: Which ladder update this table's rows took (scatter vs
        #: reference); merged with the other partial tables' and reported on
        #: :class:`~repro.engine.pipeline.PipelineStats`.
        self.ladder = LadderCounters()

    @property
    def ngroups(self) -> int:
        if self._row_keys is not None:
            return len(self._gid_codes)
        if not self.group_exprs:
            # Aggregation without grouping: one global group, always
            # present (so zero-row inputs still produce one output row).
            return 1
        return len(self._index_gids)

    def approx_bytes(self) -> int:
        """Resident bytes of the key registry, the code tables and every
        aggregate state.  Used by the external aggregation's budget
        accounting (:mod:`repro.aggregation.external_agg`); object keys
        count their references and dicts, not the strings."""
        if self._row_keys is not None:
            keys = self._gid_codes.nbytes + self._row_lut.nbytes
        else:
            keys = self._index_gids.nbytes + sum(
                arr.nbytes for arr in (self._index, *(self._key_cols or ()))
                if arr is not None
            ) + sum(sys.getsizeof(objects) for objects in self._key_objects
                    if objects is not None)
        lut = 0 if self._lut is None else self._lut.nbytes
        return keys + lut + sum(state.approx_bytes() for state in self.states)

    # -- shared physical-state plan ---------------------------------------
    @staticmethod
    def _build_plan(specs: list[AggregateSpec]):
        """``(states, plan)``: the distinct physical states and, per
        spec, ``result(final)`` rendering its output from
        ``final(state)`` — the finalized value of a state, computed
        once however many specs share it."""
        states: list = []
        shared: dict = {}

        def need(key, make):
            state = shared.get(key)
            if state is None:
                state = shared[key] = make()
                states.append(state)
            return state

        def need_count():
            return need("count", CountState)

        def need_sum(arg, mode, levels):
            return need(
                ("sum", arg.sql(), mode, levels),
                lambda: SumState(arg, mode, levels),
            )

        plan = []
        for spec in specs:
            name = spec.call.name
            mode = spec.sum_config.mode
            arg = spec.call.args[0] if spec.call.args else None
            if name == "COUNT" and spec.call.distinct:
                state = DistinctState(arg)
                states.append(state)
            elif name == "COUNT":
                state = need_count()
            elif name in ("SUM", "RSUM"):
                # RSUM is reproducible regardless of the session mode.
                state = need_sum(
                    arg, "repro" if name == "RSUM" else mode, spec.levels
                )
            elif name in ("MIN", "MAX"):
                state = need(
                    (name, arg.sql()),
                    lambda: MinMaxState(arg, is_min=(name == "MIN")),
                )
            elif name == "AVG":
                plan.append(
                    lambda final, s=need_sum(arg, mode, spec.levels),
                    c=need_count(): _avg(final(s), final(c))
                )
                continue
            else:  # VARIANCE/STDDEV family: the depth is the state's own
                moment = need(
                    ("moment2", arg.sql(), mode),
                    lambda: Moment2State(arg, mode, need_count()),
                )
                plan.append(
                    lambda final, n=name, m=moment:
                    _variance_family(n, *final(m))
                )
                continue
            plan.append(lambda final, s=state: final(s))
        return states, plan

    # -- morsel consumption ------------------------------------------------
    def update(self, batch: Batch) -> None:
        cache = ExprCache(batch.columns, batch.types)
        gids = self._group_ids(batch, cache)
        # RsumParams -> ([LadderSum], [values]), queued by LadderSum.add
        ladders: dict = {}
        ngroups = self.ngroups
        for state in self.states:
            state.update(batch, cache, gids, ladders, ngroups)
        # One ladder call per parameter set, after every state has
        # queued its values: each accumulator still consumes exactly
        # its own value sequence, so batching cannot move a bit.
        for accs, rows in ladders.values():
            update_ladders(accs, rows, gids, self.ladder, ngroups)

    def _group_ids(self, batch: Batch, cache: ExprCache) -> np.ndarray:
        if not self.group_exprs:
            return np.zeros(batch.nrows, dtype=np.int64)
        build_rows = batch.encoding(BUILD_ROW)
        if build_rows is not None:
            return self._gids_from_rows(*build_rows)
        parts = []
        all_encoded = True
        for expr in self.group_exprs:
            encoding = None
            if isinstance(expr, ast.ColumnRef):
                encoding = batch.encoding(expr.name.lower())
            if encoding is not None:
                codes, uniques = encoding
            else:
                all_encoded = False
                arr = cache.values(expr, batch.nrows)
                codes, uniques = self._encode_values(arr)
            parts.append((codes, uniques, max(len(uniques), 1)))
        return self._gids_from_parts(parts, all_encoded)

    @staticmethod
    def _encode_values(arr: np.ndarray):
        """Dictionary-encode one unencoded key column ``(codes,
        uniques)``: an object column by first arrival
        (:func:`~repro.engine.operators.factorize_object`), any other
        exactly as ``np.unique(arr, return_inverse=True)`` gives it
        (``uniques`` sorted, in the column's dtype; int64 codes).

        An integer column whose values span at most
        :data:`_INT_SPAN_PER_ROW` slots per row is offset by its minimum
        into ``[0, span)`` and coded by :func:`~repro.engine.operators.
        dense_codes`' mark array, with no sort.  The offsets are taken
        in int64 (an int8 ``0 - (-128)`` would wrap in its own dtype),
        wrapping past 2**63 for uint64 alike on both sides, so their
        difference is exact; the span is a Python int (``max - min``
        of int64 extremes overflows int64).  Floats, strings and wider
        integer spans sort."""
        if arr.dtype == object:
            return factorize_object(arr)
        if arr.dtype.kind in "iu" and len(arr):
            low = int(arr.min())
            span = int(arr.max()) - low + 1
            if span <= _INT_SPAN_PER_ROW * len(arr):
                base = np.int64((low + (1 << 63)) % (1 << 64) - (1 << 63))
                distinct, codes = dense_codes(
                    arr.astype(np.int64, copy=False) - base, span)
                return codes, (distinct + base).astype(arr.dtype)
        uniques, codes = np.unique(arr, return_inverse=True)
        return codes.astype(np.int64, copy=False), uniques

    def _gids_from_parts(self, parts, all_encoded: bool) -> np.ndarray:
        """Composite ``(codes, uniques, base)`` key parts -> table gids.

        ``all_encoded`` says every part is a storage dictionary, whose
        codes mean the same thing in every morsel.
        """
        total = 1
        for _, _, base in parts:
            total *= base
        if self._key_dtypes is None:
            self._key_dtypes = [uniques.dtype for _, uniques, _ in parts]
        if total >= _RADIX_MAX:
            # a composite code would overflow int64: register the rows
            # by their key values instead
            return self._register_columns(
                [uniques[codes] for codes, uniques, _ in parts]
            )
        combined = parts[0][0]
        for codes, _, base in parts[1:]:
            combined = combined * base + codes
        return self._gids_from_codes(
            combined, total,
            [base for _, _, base in parts] if all_encoded else None,
            lambda dense: self._decode_columns(
                dense,
                [uniques for _, uniques, _ in parts],
                [base for _, _, base in parts],
            ),
        )

    def _gids_from_rows(self, rows: np.ndarray, keys) -> np.ndarray:
        """Morsel gids from the build-row index a probe carried
        (:data:`~repro.engine.operators.BUILD_ROW`), when the planner
        found every group key to be a function of that build row.
        ``keys`` (a :class:`~repro.engine.join.BuildRowKeys`) factorised
        the build's keys once per build, so a row's key is its
        ``row_code``: no key column is gathered and no key registered
        — key values are read at finalize.  The table keeps
        a build code -> gid array and each gid's code; codes not seen
        before get the next dense gids in code order; the build codes
        are a bounded space, so :func:`distinct_codes` finds them
        without a sort unless a few arrive into a large build.  A table
        that already holds groups named otherwise (by key value, or by
        another build's codes) registers these rows' keys by value.
        """
        codes = keys.row_code[rows]
        total = len(keys.columns[0])
        if keys is not self._row_keys:
            if self.ngroups:
                self._to_registry()
                dense, inverse = dense_codes(codes, total)
                return self._register_columns(
                    keys.key_columns(dense))[inverse]
            self._row_keys = keys
            self._key_dtypes = list(keys.dtypes)
            self._row_lut = np.full(total, -1, dtype=np.int64)
            self._gid_codes = np.empty(0, dtype=np.int64)
        gids = self._row_lut[codes]
        missing = gids < 0
        if missing.any():
            fresh = distinct_codes(codes[missing], total)
            base = len(self._gid_codes)
            self._row_lut[fresh] = np.arange(
                base, base + len(fresh), dtype=np.int64
            )
            self._gid_codes = np.concatenate((self._gid_codes, fresh))
            gids = self._row_lut[codes]
        return gids

    def _to_registry(self) -> None:
        """Register the build-row groups' keys, gid for gid, in the key
        registry and forget the build codes."""
        if self._row_keys is None:
            return
        columns = self._key_columns()
        self._row_keys = self._row_lut = self._gid_codes = None
        self._register_columns(columns)

    def _gids_from_codes(self, codes: np.ndarray, total: int, stable,
                         decode) -> np.ndarray:
        """Composite key codes -> table gids, registering new keys
        (``decode(distinct codes)`` -> their per-key value columns)
        through :meth:`_register_columns` like every other path.

        ``stable`` names a code space that means the same thing in
        every morsel (the storage dictionaries' sizes; ``None`` when it
        does not): a persistent code -> gid table then sends only codes
        it has not seen to the registry.  Spaces beyond ``_LUT_MAX``
        degrade to per-morsel registration — same bits, no cache.
        Either way the codes lie in ``[0, total)``, so their distinct
        values come from :func:`distinct_codes` / :func:`dense_codes`:
        a mark array, and a sort only when few codes meet a large space.
        """
        if stable is not None and total <= _LUT_MAX:
            if self._lut is None or self._lut_bases != stable:
                self._lut = np.full(total, -1, dtype=np.int64)
                self._lut_bases = stable
            gids = self._lut[codes]
            missing = gids < 0
            if missing.any():
                fresh = distinct_codes(codes[missing], total)
                self._lut[fresh] = self._register_columns(decode(fresh))
                gids = self._lut[codes]
            return gids
        dense, inverse = dense_codes(codes, total)
        return self._register_columns(decode(dense))[inverse]

    @staticmethod
    def _decode_columns(dense: np.ndarray, uniques: list,
                        bases: list[int]) -> list:
        """Split composite radix codes back into per-key distinct
        values."""
        key_cols = []
        radix = dense
        for uniq, base in zip(reversed(uniques[1:]), reversed(bases[1:])):
            key_cols.append(uniq[radix % base])
            radix = radix // base
        key_cols.append(uniques[0][radix])
        key_cols.reverse()
        return key_cols

    def _register_columns(self, key_columns) -> np.ndarray:
        """Gids of the key rows ``key_columns`` (one array per key
        column), registering the rows not seen before.

        The rows become one identity each (:func:`_identity` per
        column; a void view of the row when there are several) and are
        looked up in the sorted identity index with one
        ``np.searchsorted``.  The misses take the next gids in the order
        given (a key twice among them takes one), append their keys to
        the key columns and merge into the index.  No Python object is
        made per key, except for object columns' new values.
        """
        if not len(key_columns[0]):
            return np.empty(0, dtype=np.int64)
        if self._key_cols is None:
            dtypes = self._key_dtypes or [
                np.asarray(col).dtype for col in key_columns]
            self._key_cols = [np.empty(0, dtype=dt) for dt in dtypes]
            self._key_objects = [{} if np.dtype(dt).kind in "OUS" else None
                                 for dt in dtypes]
        columns = [np.asarray(col, dtype=stored.dtype)
                   for col, stored in zip(key_columns, self._key_cols)]
        parts = [_identity(col, objects)
                 for col, objects in zip(columns, self._key_objects)]
        if len(parts) == 1:
            idents = parts[0]
        else:
            idents = np.stack(parts, axis=1).view(
                np.dtype((np.void, 8 * len(parts)))).ravel()
        index, known = self._index, len(self._index_gids)
        if known:
            pos = np.searchsorted(index, idents)
            pos[pos == known] = 0
            gids = self._index_gids[pos]
            hit = index[pos] == idents
            if hit.all():
                return gids
            miss = np.flatnonzero(~hit)
        else:
            gids = np.empty(len(idents), dtype=np.int64)
            miss = np.arange(len(idents))
        fresh = idents[miss]
        if fresh.dtype.kind == "i" and bool((fresh[1:] > fresh[:-1]).all()):
            # sorted and distinct already (a batch decoded from
            # np.unique codes): the misses are their own index order
            new = np.arange(known, known + len(fresh), dtype=np.int64)
            gids[miss] = new
            rows = miss
        else:
            fresh, first, inverse = np.unique(
                fresh, return_index=True, return_inverse=True)
            arrival = np.argsort(first)
            new = np.empty(len(fresh), dtype=np.int64)
            new[arrival] = np.arange(known, known + len(fresh))
            gids[miss] = new[inverse]
            rows = miss[first[arrival]]
        self._key_cols = [
            np.concatenate((stored, _canonical_keys(col[rows])))
            for stored, col in zip(self._key_cols, columns)
        ]
        if known:
            at = np.searchsorted(index, fresh)
            self._index = np.insert(index, at, fresh)
            self._index_gids = np.insert(self._index_gids, at, new)
        else:
            self._index, self._index_gids = fresh, new
        return gids

    # -- exact merge -------------------------------------------------------
    def merge(self, other: "VectorizedGroupTable") -> None:
        """Fold another partial table in — a ``workers`` split's or a
        spill run's (exact for repro aggregates)."""
        if self._key_dtypes is None:
            self._key_dtypes = other._key_dtypes
        if not self.group_exprs:
            mapping = np.zeros(1, dtype=np.int64)  # the one global group
        else:
            self._to_registry()
            mapping = self._register_columns(other._key_columns())
        ngroups = self.ngroups
        for state, other_state in zip(self.states, other.states):
            state.merge(other_state, mapping, ngroups)
        self.ladder.merge(other.ladder)

    # -- finalisation ------------------------------------------------------
    def _canonical_order(self) -> np.ndarray | None:
        """:func:`canonical_key_order` of this table's groups (``None``
        when there is nothing to reorder)."""
        if not self.group_exprs or self.ngroups <= 1:
            return None
        return canonical_key_order(self._key_columns())

    def _key_columns(self) -> list[np.ndarray]:
        """Every group's key, one array per key column in gid order:
        the registry's own arrays (never written in place: a
        registration replaces them), or the build keys of the
        build-row groups."""
        if self._row_keys is not None:
            return self._row_keys.key_columns(self._gid_codes)
        if self._key_cols is not None:
            return self._key_cols
        dtypes = self._key_dtypes or [object] * len(self.group_exprs)
        return [np.empty(0, dtype=dt) for dt in dtypes]

    def finalize(self, ordered: bool = True):
        """Returns (key_arrays, result_arrays, ngroups), in canonical
        order — or, ``ordered=False``, in gid order, for a caller that
        sorts several tables' outputs as one."""
        ngroups = self.ngroups
        order = self._canonical_order() if ordered else None
        key_arrays = self._key_columns() if self.group_exprs else []
        if order is not None:
            key_arrays = [col[order] for col in key_arrays]
        finals: dict[int, object] = {}

        def final(state):
            key = id(state)
            if key not in finals:
                finals[key] = state.finalize(ngroups)
            return finals[key]

        results = [result(final) for result in self._spec_plan]
        if order is not None:
            results = [arr[order] for arr in results]
        return key_arrays, results, ngroups
