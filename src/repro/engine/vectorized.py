"""The group table of every aggregate — SELECT, view build and REFRESH.

:class:`VectorizedGroupTable` is the one aggregate runtime: the
in-memory pipeline, the external (spill) aggregation, the shard
executors and — built retractable, as :class:`~repro.engine.matview.
MaintenanceGroupTable` — materialized-view maintenance all construct
it, the query paths through :data:`repro.engine.pipeline.
make_group_table`.  One feeder: every morsel arrives through
:meth:`~VectorizedGroupTable.update`.  The table owns three things:

* the **key registry** — group keys get dense gids in first-arrival
  order, NaN keys collapse and ``-0.0`` joins ``0.0``; finalize emits
  groups in canonical (sorted-key) order, so output is independent of
  arrival order;
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
   no key tuple registered); otherwise dictionary-encoded key columns (see
   :meth:`repro.engine.table.Column.encoding`) combine with pure
   integer radix arithmetic through a persistent code -> gid table and
   other keys go through ``np.unique``;
3. hands every state the same morsel, carrying one lazy stable sort
   by group id (:class:`SortedMorsel`) that only MIN/MAX reads — its
   ``ufunc.reduceat`` segments; counts, sums and ladders never sort;
4. feeds the rsum ladders last, **one call per parameter set**: every
   ``LadderSum`` of equal ``(dtype, levels)`` — SUM, AVG's numerator,
   both moments of VARIANCE — queued its values in step 3 and they go
   through the blocked kernel (:func:`~repro.aggregation.grouped.
   add_blocked_multi`) together; it scatter-accumulates every row
   whose group sits on its table's prevailing ladder and hands the
   stragglers to the reference chunk update.  Batching is bit-neutral:
   each accumulator still consumes exactly its own value sequence, only
   the dispatch is shared.

Reproducibility is preserved *by construction*: the repro-mode states
are exact under any permutation and chunking of their input (the
paper's Algorithm 3 horizontal-merge property, which
``benchmarks/paper/rsum_simd.py`` demonstrates lane-wise), so
re-ordering a morsel by group id cannot change the final bits.  IEEE
sums accumulate unbuffered in physical row order, so even the
*non*-reproducible mode means the same thing under every split.  The
differential tests hold all of this against a row-order reference
table that lives under ``tests/``.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.grouped import LadderCounters
from ..aggregation.partition import stable_group_order
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
    BUILD_ROW,
    AggregateSpec,
    Batch,
    _object_sort_rank,
    canonical_float_bits,
    factorize_object,
)
from .sql import ast

__all__ = [
    "VectorizedGroupTable",
    "SortedMorsel",
    "canonical_key_order",
    "factorize_keys",
]

#: Composite-code spaces at most this large use a persistent
#: code -> gid lookup table instead of a per-morsel ``np.unique``.
_LUT_MAX = 1 << 20

#: Radix-combine guard: the product of the per-key dictionary sizes must
#: stay below this for the composite int64 codes to be collision-free.
_RADIX_MAX = 1 << 62

#: Rough per-group cost of one key-table entry (dict slot + tuple), and
#: per key member within the tuple — used by the memory-budget
#: accounting of the external aggregation (order of magnitude is all
#: the spill heuristics need).
_KEY_BYTES_BASE = 64
_KEY_BYTES_PER_COLUMN = 32


# ---------------------------------------------------------------------------
# Shared morsel sort
# ---------------------------------------------------------------------------

class SortedMorsel:
    """One stable sort of a morsel's group ids, shared by the states
    that read segments (MIN/MAX; counts, sums and ladders never sort).

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
        #: ``RsumParams -> ([LadderSum], [values])`` queued by
        #: :meth:`LadderSum.add`; the table feeds each slot with one
        #: :func:`update_ladders` call once every state has queued
        self.ladders: dict = {}
        self._ready = False
        self._identity = False
        self._order: np.ndarray | None = None
        self._starts: np.ndarray | None = None
        self._seg_gids: np.ndarray | None = None

    def _ensure(self) -> None:
        if self._ready:
            return
        gids = self.gids
        if gids.size == 0:
            self._identity = True
            self._starts = np.empty(0, dtype=np.int64)
            self._seg_gids = gids
        else:
            if bool((gids[1:] >= gids[:-1]).all()):
                self._identity = True
            else:
                self._order = stable_group_order(gids)
                gids = gids[self._order]
            self._starts = np.flatnonzero(
                np.concatenate(([True], gids[1:] != gids[:-1]))
            )
            self._seg_gids = gids[self._starts]
        self._ready = True

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


# ---------------------------------------------------------------------------
# The group table
# ---------------------------------------------------------------------------

#: Dict stand-in for NaN group keys: ``nan != nan``, so a raw NaN can
#: never be found again in the key table; ``np.unique`` collapses NaNs
#: within a morsel and the key dict must do the same across morsels.
_NAN_KEY = object()


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
    ``columns`` under the key identity :func:`_key_identity` applies
    (one NaN group, ``-0.0`` is ``0.0``; strings and ``None`` as
    themselves), and each code's key as the registry would output it
    — the first row holding it, NaN canonical and ``-0.0`` as ``0.0``.
    """
    parts = []
    for col in columns:
        if col.dtype == object:
            index: dict = {}
            codes = np.fromiter(
                (index.setdefault(value, len(index))
                 for value in _key_identity(col.tolist())),
                np.int64, len(col),
            )
        else:
            identity = canonical_float_bits(col) if col.dtype.kind == "f" \
                else col
            codes = np.unique(identity, return_inverse=True)[1]
            codes = codes.astype(np.int64, copy=False)
        parts.append((codes, int(codes.max(initial=0)) + 1))
    first, row_code = _distinct_rows(parts)
    key_columns = []
    for col in columns:
        col = col[first]
        if col.dtype == object:
            values = [np.nan if member is _NAN_KEY else member
                      for member in _key_identity(col.tolist())]
            col = np.empty(len(values), dtype=object)
            col[:] = values
        elif col.dtype.kind == "f":
            col[col == 0.0] = 0.0
            col[np.isnan(col)] = np.nan
        key_columns.append(col)
    return row_code, key_columns


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


def _variance(name: str, sums, squares, counts) -> np.ndarray:
    """VARIANCE / STDDEV (``_SAMP`` default, ``_POP``) from SUM(x),
    SUM(x*x) and COUNT — the paper's footnote-2 recipe."""
    counts = counts.astype(np.float64)
    ddof = 0.0 if name.endswith("_POP") else 1.0
    denominator = np.maximum(counts - ddof, 1.0)
    # A group that saw +inf has inf - inf = NaN here: the right answer,
    # not worth a RuntimeWarning.
    with np.errstate(invalid="ignore"):
        variance = squares - sums * sums / np.maximum(counts, 1.0)
    variance = np.maximum(variance, 0.0) / denominator
    return np.sqrt(variance) if name.startswith("STDDEV") else variance


class VectorizedGroupTable:
    """Worker-local GROUP BY state: a key registry plus the shared
    physical states of an aggregate list.

    ``retractable`` builds every state in its exactly invertible form
    (view maintenance; see :meth:`AggregateSpec.supports_retraction`).
    """

    def __init__(self, group_exprs, specs: list[AggregateSpec],
                 retractable: bool = False):
        self.group_exprs = tuple(group_exprs)
        self.specs = specs
        self.states, self._spec_plan = self._build_plan(specs, retractable)
        self._key_to_gid: dict = {}
        self._keys: list[tuple] = []
        self._key_dtypes: list | None = None
        #: ``(ngroups, columns)`` memo for :meth:`_key_columns`: every
        #: registration grows ``ngroups``, which retires it
        self._key_columns_memo = None
        if not self.group_exprs:
            # Aggregation without grouping: one global group, always
            # present (so zero-row inputs still produce one output row).
            self._key_to_gid[()] = 0
            self._keys.append(())
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
        #: reference); merged with the executors' and reported on
        #: :class:`~repro.engine.pipeline.PipelineStats`.
        self.ladder = LadderCounters()

    @property
    def ngroups(self) -> int:
        if self._row_keys is not None:
            return len(self._gid_codes)
        return len(self._keys)

    def approx_bytes(self) -> int:
        """Resident-memory estimate: key registry, code table and every
        aggregate state.  Used by the external aggregation's budget
        accounting (:mod:`repro.aggregation.external_agg`); a rough
        upper bound is all it needs."""
        if self._row_keys is not None:
            keys = self._gid_codes.nbytes + self._row_lut.nbytes
        else:
            keys = self.ngroups * (
                _KEY_BYTES_BASE + _KEY_BYTES_PER_COLUMN * len(self.group_exprs)
            )
        lut = 0 if self._lut is None else self._lut.nbytes
        return keys + lut + sum(state.approx_bytes() for state in self.states)

    # -- shared physical-state plan ---------------------------------------
    @staticmethod
    def _build_plan(specs: list[AggregateSpec], retractable: bool = False):
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
                lambda: SumState(arg, mode, levels, retractable),
            )

        plan = []
        for spec in specs:
            name = spec.call.name
            mode = spec.sum_config.mode
            arg = spec.call.args[0] if spec.call.args else None
            if name == "COUNT" and spec.call.distinct:
                state = DistinctState(arg, retractable)
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
            else:  # VARIANCE/STDDEV family
                moment = need(
                    ("moment2", arg.sql(), mode, spec.levels),
                    lambda: Moment2State(arg, mode, spec.levels, retractable),
                )
                plan.append(
                    lambda final, n=name, m=moment, c=need_count():
                    _variance(n, *final(m), final(c))
                )
                continue
            plan.append(lambda final, s=state: final(s))
        return states, plan

    # -- morsel consumption ------------------------------------------------
    def update(self, batch: Batch) -> None:
        args = self._prepare(batch)
        for state in self.states:
            state.update(batch, *args)
        _, gids, morsel, ngroups = args
        # One ladder call per parameter set, after every state has
        # queued its values: each accumulator still consumes exactly
        # its own value sequence, so batching cannot move a bit.
        for accs, rows in morsel.ladders.values():
            update_ladders(accs, rows, gids, morsel, ngroups)

    def _prepare(self, batch: Batch):
        """``(cache, gids, morsel, ngroups)`` — what every state's
        ``update`` / ``retract`` takes after the batch."""
        cache = ExprCache(batch.columns, batch.types)
        gids = self._group_ids(batch, cache)
        return cache, gids, SortedMorsel(gids, self.ladder), self.ngroups

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
        """Dictionary-encode one unencoded key column (codes, uniques)."""
        if arr.dtype == object:
            codes, uniques = factorize_object(arr)
        else:
            uniques, codes = np.unique(arr, return_inverse=True)
            codes = codes.astype(np.int64, copy=False)
        return codes, uniques

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
            return self._gids_past_radix(parts)
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

    def _gids_past_radix(self, parts) -> np.ndarray:
        """Key parts whose radix space would overflow int64: re-densify
        the running composite after every key, so it never exceeds
        rows x base, and read each distinct key off a representative
        row instead of decoding the composite."""
        first, inverse = _distinct_rows(
            [(codes, base) for codes, _, base in parts]
        )
        lut = self._register_columns(
            [uniques[codes[first]] for codes, uniques, _ in parts]
        )
        return lut[inverse]

    def _gids_from_rows(self, rows: np.ndarray, keys) -> np.ndarray:
        """Morsel gids from the build-row index a probe carried
        (:data:`~repro.engine.operators.BUILD_ROW`), when the planner
        found every group key to be a function of that build row.
        ``keys`` (a :class:`~repro.engine.join.BuildRowKeys`) factorised
        the build's keys once per build, so a row's key is its
        ``row_code``: no key column is gathered and no key tuple
        registered — key values are read at finalize.  The table keeps
        a build code -> gid array and each gid's code; codes not seen
        before get the next dense gids from one ``np.unique``.  A table
        that already holds groups named otherwise (by key value, or by
        another build's codes) registers these rows' keys by value.
        """
        codes = keys.row_code[rows]
        if keys is not self._row_keys:
            if self.ngroups:
                self._to_registry()
                dense, inverse = np.unique(codes, return_inverse=True)
                return self._register_columns(keys.key_columns(dense))[
                    inverse.astype(np.int64, copy=False)
                ]
            self._row_keys = keys
            self._key_dtypes = list(keys.dtypes)
            self._row_lut = np.full(len(keys.columns[0]), -1, dtype=np.int64)
            self._gid_codes = np.empty(0, dtype=np.int64)
        gids = self._row_lut[codes]
        missing = gids < 0
        if missing.any():
            fresh = np.unique(codes[missing])
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
        through :meth:`_bulk_register` like every other path.

        ``stable`` names a code space that means the same thing in
        every morsel (the storage dictionaries' sizes; ``None`` when it
        does not): a persistent code -> gid table then replaces the
        per-morsel ``np.unique`` entirely.  Spaces beyond ``_LUT_MAX``
        degrade to per-morsel registration — same bits, no cache.
        """
        if stable is not None and total <= _LUT_MAX:
            if self._lut is None or self._lut_bases != stable:
                self._lut = np.full(total, -1, dtype=np.int64)
                self._lut_bases = stable
            gids = self._lut[codes]
            missing = gids < 0
            if missing.any():
                fresh = np.unique(codes[missing])
                self._lut[fresh] = self._register_columns(decode(fresh))
                gids = self._lut[codes]
            return gids
        dense, inverse = np.unique(codes, return_inverse=True)
        lut = self._register_columns(decode(dense))
        return lut[inverse.astype(np.int64, copy=False)]

    def _register_columns(self, key_columns) -> np.ndarray:
        return self._bulk_register(
            list(zip(*[col.tolist() for col in key_columns]))
        )

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
                        # the canonical NaN, not the first arrival's
                        # payload: output keys must not depend on order
                        stored.append(tuple(
                            np.nan if member is _NAN_KEY else member
                            for member in idents[g]
                        ))
            mapping[g] = gid
        return mapping

    # -- exact merge -------------------------------------------------------
    def merge(self, other: "VectorizedGroupTable") -> None:
        """Fold a worker-local table in (exact for repro aggregates)."""
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
        """Every key column materialized in one transpose, memoized:
        finalisation reads each column twice (ordering + output), and
        the C-level ``np.array`` over a transposed tuple beats a
        Python assignment loop per group."""
        memo = self._key_columns_memo
        if memo is not None and memo[0] == self.ngroups:
            return memo[1]
        nkeys = len(self.group_exprs)
        dtypes = self._key_dtypes if self._key_dtypes else [object] * nkeys
        if self._row_keys is not None:
            columns = self._row_keys.key_columns(self._gid_codes)
        elif not self._keys:
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

    def finalize(self, ordered: bool = True):
        """Returns (key_arrays, result_arrays, ngroups), in canonical
        order — or, ``ordered=False``, in gid order, for a caller that
        sorts several tables' outputs as one."""
        ngroups = self.ngroups
        order = self._canonical_order() if ordered else None
        key_arrays = []
        if self.group_exprs:
            for i in range(len(self.group_exprs)):
                col = self._key_column(i)
                key_arrays.append(col if order is None else col[order])
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
