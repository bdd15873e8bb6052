"""Vectorized hash equi-join over dictionary-encoded keys.

The build side is materialized once into per-key dictionaries; probe
morsels stream through :meth:`HashJoin.probe`, which maps probe keys
into the build dictionaries with pure integer arithmetic and expands
matches into two index vectors — no Python-level row loop, and for an
inner join no column copied: the joined batch holds ``(probe column,
probe_take)`` and ``(build column, build_take)`` and gathers a column
when something first reads it (:class:`~repro.engine.operators.Batch`).
When the planner found that the matched build row determines the
GROUP BY key, ``build_take`` itself rides along as a hidden encoding,
and the group table names each group by the key code the join
assigned that build row once per build (:class:`BuildRowKeys`) — kept
across statements while the join is cached.

Key canonicalisation follows the engine's GROUP BY key registry
(:func:`repro.engine.operators.canonical_float_bits`): ``-0.0`` joins
with ``0.0`` and ``NaN`` joins with ``NaN``.  Float keys are normalised to
canonical bit patterns and matched as integers, which sidesteps every
NaN-comparison pitfall and makes the match a plain ``searchsorted``.

Reproducibility: the probe preserves probe-row order and emits build
matches in build-row order, so the join output is deterministic for a
given plan — and because the repro-mode aggregate states downstream
are *exact* under any permutation and chunking of their input, the
aggregated result bits are identical for **either** build side, any
morsel size, and any worker count.  That is what lets the optimizer
pick the build side on cost alone.

Known deviation from full SQL: the engine's storage layer has no NULL
type (``SqlType.coerce`` rejects NULLs), so a LEFT JOIN fills
unmatched preserved rows with *sentinels* — ``NaN`` for numeric
columns (integers/dates promote to float64), ``None`` for strings —
and downstream aggregates treat those sentinels as values.  In
particular ``COUNT(col)`` over a null-introduced column counts the
unmatched rows (like ``COUNT(*)``), matching the engine's existing
no-NULL aggregate semantics rather than SQL's NULL-skipping ones.
"""

from __future__ import annotations

import numpy as np

from .expr import evaluate
from .operators import (
    BUILD_ROW,
    Batch,
    canonical_float_bits,
    factorize_object,
)
from .sql import ast
from .types import DecimalSqlType, SqlType
from .vectorized import factorize_keys

__all__ = ["BuildRowKeys", "HashJoin", "canonical_key_codes"]


#: Integer-key dictionaries whose value span is at most this build a
#: dense value -> code lookup table (no binary search on the probe).
_VALUE_LUT_MAX = 1 << 22

#: Radix-combine guard (same bound as the vectorized GROUP BY's
#: ``_RADIX_MAX``): the product of the per-key dictionary sizes must
#: stay below this for composite int64 codes to be collision-free.
_RADIX_MAX = 1 << 62


class _NumericDict:
    """Sorted-unique dictionary over a numeric build-key column.

    The key space is fixed by the *build* side: float builds match in
    canonical float64 bit space (``-0.0 == 0.0``, ``NaN == NaN``, and
    float32 promotes exactly), integer/date/boolean builds match in
    int64 value space (float probe values join where they are exactly
    integral).  Dense integer key ranges get a value -> code LUT so the
    probe is a single gather instead of a binary search.
    """

    def __init__(self, build_values: np.ndarray):
        values = np.asarray(build_values)
        self.float_space = values.dtype.kind == "f"
        if self.float_space:
            values = canonical_float_bits(values)
        else:
            values = values.astype(np.int64)
        self.uniques, self.codes = np.unique(values, return_inverse=True)
        self.codes = self.codes.astype(np.int64, copy=False)
        self._value_lut: np.ndarray | None = None
        self._lut_base = 0
        if not self.float_space and len(self.uniques):
            span = int(self.uniques[-1]) - int(self.uniques[0]) + 1
            # A 16x over-allocation still beats per-probe binary search
            # (TPC-H orderkeys occupy 1/4 of their key space, and a
            # filtered build thins that further); _VALUE_LUT_MAX bounds
            # the absolute footprint at 32 MB of int64 slots.
            if span <= max(16 * len(self.uniques), 1024) \
                    and span <= _VALUE_LUT_MAX:
                lut = np.full(span, -1, dtype=np.int64)
                lut[self.uniques - int(self.uniques[0])] = np.arange(
                    len(self.uniques), dtype=np.int64
                )
                self._value_lut = lut
                self._lut_base = int(self.uniques[0])

    def __len__(self) -> int:
        return len(self.uniques)

    def encode_probe(self, values: np.ndarray) -> np.ndarray:
        """Probe values -> build codes; -1 where the key has no entry."""
        values = np.asarray(values)
        exact: np.ndarray | None = None
        if self.float_space:
            values = canonical_float_bits(values)
        elif values.dtype.kind == "f":
            # int-space build, float probe: only exactly-integral probe
            # values inside the int64 range can match (casting anything
            # else would wrap and could spuriously hit a build key).
            in_range = (
                np.isfinite(values)
                & (values >= np.float64(-(2 ** 63)))
                & (values < np.float64(2 ** 63))
            )
            exact = np.zeros(len(values), dtype=bool)
            exact[in_range] = values[in_range] == np.floor(values[in_range])
            values = np.where(exact, values, 0).astype(np.int64)
        else:
            values = values.astype(np.int64)
        if not len(self.uniques):
            return np.full(len(values), -1, dtype=np.int64)
        if self._value_lut is not None:
            offsets = values - self._lut_base
            in_range = (offsets >= 0) & (offsets < len(self._value_lut))
            codes = np.full(len(values), -1, dtype=np.int64)
            codes[in_range] = self._value_lut[offsets[in_range]]
        else:
            positions = np.searchsorted(self.uniques, values)
            positions = np.minimum(positions, len(self.uniques) - 1)
            codes = positions.astype(np.int64)
            codes[self.uniques[positions] != values] = -1
        if exact is not None:
            codes[~exact] = -1
        return codes


class _ObjectDict:
    """Insertion-order dictionary over an object (string) key column."""

    def __init__(self, build_values: np.ndarray):
        self.codes, uniques = factorize_object(build_values)
        self._table = {value: i for i, value in enumerate(uniques.tolist())}

    def __len__(self) -> int:
        return len(self._table)

    def encode_probe(self, values: np.ndarray) -> np.ndarray:
        get = self._table.get
        return np.fromiter(
            (get(value, -1) for value in values.tolist()),
            dtype=np.int64,
            count=len(values),
        )


def canonical_key_codes(build_arrays):
    """Encode the build side of a multi-key equi-join into one composite
    int64 code per row.

    Returns ``(build_codes, probe_encoder, code_space)`` where
    ``probe_encoder`` is a callable mapping a list of probe key arrays
    into the build code space (``-1`` for probe rows whose key has no
    build entry) and ``code_space`` is the size of that space (the
    product of the per-key dictionary sizes).
    """
    dictionaries = []
    for build_values in build_arrays:
        values = np.asarray(build_values)
        if values.dtype == object:
            dictionaries.append(_ObjectDict(values))
        else:
            dictionaries.append(_NumericDict(values))

    code_space = 1
    for dictionary in dictionaries:
        code_space *= max(len(dictionary), 1)
    if code_space >= _RADIX_MAX:
        # Composite radix codes would overflow int64 and silently
        # collide; refuse loudly rather than match wrong rows.
        raise NotImplementedError(
            "join key dictionary space too large for composite int64 "
            f"codes ({code_space} >= {_RADIX_MAX}); reduce the key "
            "cardinality or join on fewer columns"
        )

    def combine(code_parts):
        combined = code_parts[0].copy()
        invalid = combined < 0
        for part, dictionary in zip(code_parts[1:], dictionaries[1:]):
            base = max(len(dictionary), 1)
            combined = combined * base + part
            invalid |= part < 0
        combined[invalid] = -1
        return combined

    build_codes = combine([d.codes for d in dictionaries])

    def probe_encoder(probe_key_arrays):
        parts = [
            dictionary.encode_probe(np.asarray(values))
            for dictionary, values in zip(dictionaries, probe_key_arrays)
        ]
        return combine(parts)

    return build_codes, probe_encoder, code_space


def _null_fill(array: np.ndarray, take: np.ndarray, missing: np.ndarray,
               sql_type: SqlType | None):
    """Gather build rows with ``-1`` markers null-filled.

    Numeric build columns are promoted to float64 with NaN for the
    unmatched probe rows (pandas-style promotion; DECIMAL columns are
    rescaled on the way); object columns get ``None``.  Returns
    ``(values, out_type)`` — ``out_type`` is ``None`` whenever the
    storage representation changed.
    """
    safe = np.where(missing, 0, take)
    if array.dtype == object:
        out = array[safe].copy() if len(array) else np.empty(
            len(take), dtype=object
        )
        out[missing] = None
        return out, sql_type
    values = array[safe] if len(array) else np.zeros(len(take), array.dtype)
    out = values.astype(np.float64)
    if isinstance(sql_type, DecimalSqlType):
        out = out / 10.0 ** sql_type.scale
    out[missing] = np.nan
    return out, None


class BuildRowKeys:
    """Dictionary of the :data:`~repro.engine.operators.BUILD_ROW`
    encoding: the GROUP BY key of every build row of one built join,
    factorised once per build.  A cached join keeps it for every later
    statement; snapshot-less executions rebuild the join, so they
    factorise once per statement.

    ``specs`` is the planner's rule
    (:func:`repro.engine.physical._build_row_rule`), one ``(kind, key,
    dtype, scale)`` per group expression: ``("col", name, ...)`` is a
    build-side column, ``("key", i, ...)`` the ``i``-th evaluated build
    key (an integer probe key that the inner match made equal to it).
    ``dtype`` / ``scale`` are what evaluating the group expression over
    a morsel would have produced (DECIMAL columns rescale to float64),
    so a key has the same value either way.

    ``row_code[r]`` names build row ``r``'s distinct key tuple under
    the group table's key identity (:func:`~repro.engine.vectorized.
    factorize_keys`: one NaN group, ``-0.0`` is ``0.0``): two build
    rows holding one key share a code.  ``columns`` holds each code's
    key as the group table outputs it — a representative row's values
    read through :meth:`decode`, canonicalised.  The group table names
    its groups by these codes and materialises key values only at
    finalize (:meth:`key_columns`).
    """

    def __init__(self, join: "HashJoin", specs):
        self.join = join
        self.specs = specs
        self.dtypes = [dtype for _, _, dtype, _ in specs]
        self.row_code, self.columns = factorize_keys(self.decode())

    def decode(self) -> list:
        """Key value columns of every build row, exactly as evaluating
        the group expressions would produce them."""
        columns = []
        for kind, key, dtype, scale in self.specs:
            source = (self.join.build_batch.columns if kind == "col"
                      else self.join.build_key_values)
            arr = source[key]
            if scale is not None:
                arr = arr.astype(np.float64) / scale
            elif arr.dtype != dtype:
                arr = arr.astype(dtype)
            columns.append(arr)
        return columns

    def key_columns(self, codes: np.ndarray) -> list:
        """The output key columns of ``codes``, one gather each."""
        return [col[codes] for col in self.columns]


class HashJoin:
    """One built hash join, ready to stream probe morsels through."""

    def __init__(self, build_batch: Batch,
                 build_keys: tuple[ast.Expr, ...],
                 probe_keys: tuple[ast.Expr, ...],
                 kind: str = "inner",
                 probe_is_left: bool = True):
        if kind not in ("inner", "left"):
            raise ValueError(f"unsupported join kind {kind!r}")
        if kind == "left" and not probe_is_left:
            raise ValueError("LEFT joins must probe with the preserved side")
        if not build_keys:
            raise NotImplementedError(
                "joins without an equi-key condition (cross joins) are "
                "not supported; add an ON/WHERE equality"
            )
        self.kind = kind
        self.probe_is_left = probe_is_left
        self.probe_key_exprs = probe_keys
        self.build_batch = build_batch
        self.build_rows = build_batch.nrows

        build_key_arrays = []
        for expr in build_keys:
            values = np.asarray(
                evaluate(expr, build_batch.columns, build_batch.types)
            )
            if values.shape == ():
                values = np.full(build_batch.nrows, values)
            build_key_arrays.append(values)
        #: Evaluated build-key value arrays, one per key, in build-row
        #: order.  :class:`BuildRowKeys` reads these: an inner match
        #: makes the probe-side key value equal to the build-side value
        #: (exactly, in integer key space), so
        #: ``build_key_values[i][build_take]`` reproduces a grouped
        #: probe key without re-encoding it per morsel.
        self.build_key_values = build_key_arrays
        build_codes, self._probe_encoder, self._code_space = (
            canonical_key_codes(build_key_arrays)
        )

        # Group build rows by composite code: one stable sort, then
        # run-length segments (the same shape the vectorized GROUP BY
        # uses for its segment kernels).
        order = np.argsort(build_codes, kind="stable")
        sorted_codes = build_codes[order]
        starts = np.flatnonzero(
            np.concatenate((
                [True], sorted_codes[1:] != sorted_codes[:-1]
            ))
        ) if len(sorted_codes) else np.empty(0, dtype=np.int64)
        self._build_order = order
        self._segment_codes = sorted_codes[starts] if len(starts) else (
            np.empty(0, dtype=np.int64)
        )
        self._segment_starts = starts
        counts = np.diff(np.concatenate((starts, [len(sorted_codes)]))) \
            if len(starts) else np.empty(0, dtype=np.int64)
        self._segment_counts = counts.astype(np.int64)
        #: every build code holds at most one row (a key join such as
        #: lineitem -> orders): :meth:`expand_inner` then skips the
        #: per-match repeat/cumsum expansion
        self._unique_build = not len(counts) or int(counts.max()) <= 1
        #: ``group_keys`` rule -> its :class:`BuildRowKeys`, built on
        #: first use and kept as long as this (cached) join is
        self._row_keys: dict = {}
        #: how many :class:`BuildRowKeys` factorisations this join ran
        self.key_factorisations = 0
        # Dense code -> (count, start) lookup: probe codes land in the
        # composite code space (product of dictionary sizes), so for
        # normal key cardinalities the match is a plain gather.
        self._code_counts: np.ndarray | None = None
        self._code_starts: np.ndarray | None = None
        code_space = int(self._code_space)
        if 0 < code_space <= _VALUE_LUT_MAX:
            self._code_counts = np.zeros(code_space, dtype=np.int64)
            self._code_starts = np.zeros(code_space, dtype=np.int64)
            self._code_counts[self._segment_codes] = self._segment_counts
            self._code_starts[self._segment_codes] = self._segment_starts

    def row_keys(self, group_keys) -> BuildRowKeys:
        """The :class:`BuildRowKeys` of one build-row rule, factorised
        on first use and reused by every later probe and statement
        served by this join."""
        keys = self._row_keys.get(group_keys)
        if keys is None:
            keys = self._row_keys[group_keys] = BuildRowKeys(self, group_keys)
            self.key_factorisations += 1
        return keys

    # -- probe primitives --------------------------------------------------
    def encode_probe(self, key_arrays) -> np.ndarray:
        """Map per-row probe key arrays into the build code space
        (``-1`` where the key has no build entry): the composite-code
        / value-LUT encoder of :func:`canonical_key_codes`."""
        return self._probe_encoder([np.asarray(a) for a in key_arrays])

    def expand_inner(self, probe_codes: np.ndarray):
        """Inner-match expansion: ``(probe_take, build_take)`` gather
        indices for one probe morsel's matches.

        ``probe_take[j]`` is the probe row of output row ``j`` (probe
        rows repeat once per match, preserving probe-row order) and
        ``build_take[j]`` the matching build row (emitted in build-row
        order within each probe row).  :meth:`probe` hands the two to
        the batch as selection indices; no column moves here.  When no
        build code holds two rows (decided once, at build), each probe
        row matches at most once and the expansion is one
        ``flatnonzero`` and one gather.
        """
        counts, starts = self._match(probe_codes)
        if self._unique_build:
            probe_take = np.flatnonzero(counts)
            return probe_take, self._build_order[starts[probe_take]]
        total = int(counts.sum())
        probe_take = np.repeat(
            np.arange(len(probe_codes), dtype=np.int64), counts
        )
        bases = np.repeat(starts, counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        offsets = np.arange(total, dtype=np.int64) - first
        if len(self._build_order):
            build_take = self._build_order[bases + offsets]
        else:
            build_take = np.empty(0, dtype=np.int64)
        return probe_take, build_take

    # -- probe -------------------------------------------------------------
    def _match(self, probe_codes: np.ndarray):
        """Per-probe-row (count, segment_start) in the build order."""
        n = len(probe_codes)
        if self._code_counts is not None:
            safe = np.where(probe_codes >= 0, probe_codes, 0)
            counts = self._code_counts[safe]
            starts = self._code_starts[safe]
            counts = np.where(probe_codes >= 0, counts, 0)
            return counts, starts
        counts = np.zeros(n, dtype=np.int64)
        starts = np.zeros(n, dtype=np.int64)
        if len(self._segment_codes):
            positions = np.searchsorted(self._segment_codes, probe_codes)
            positions = np.minimum(positions, len(self._segment_codes) - 1)
            hit = (self._segment_codes[positions] == probe_codes) \
                & (probe_codes >= 0)
            counts[hit] = self._segment_counts[positions[hit]]
            starts[hit] = self._segment_starts[positions[hit]]
        return counts, starts

    def probe(self, batch: Batch, group_keys=None) -> Batch:
        """Join one probe morsel; probe-row order is preserved.

        An inner probe gathers nothing: the probe side is re-pointed
        through ``probe_take`` (:meth:`Batch.select`) and every build
        column rides as ``(build column, build_take)`` until something
        reads it.  ``group_keys`` is the planner's build-row rule for
        this probe (``PhysProbe.group_keys``): ``build_take`` then
        rides along as the hidden :data:`BUILD_ROW` encoding, which
        later filters and probes select like any column.  LEFT joins
        null-fill eagerly — the fill changes dtypes, so there is no
        base array to defer to.
        """
        probe_key_arrays = []
        for expr in self.probe_key_exprs:
            values = np.asarray(evaluate(expr, batch.columns, batch.types))
            if values.shape == ():
                values = np.full(batch.nrows, values)
            probe_key_arrays.append(values)
        probe_codes = self.encode_probe(probe_key_arrays)
        build = self.build_batch
        if self.kind == "inner":
            probe_take, build_take = self.expand_inner(probe_codes)
            out = batch.select(probe_take)
            out.extend(build, build_take)
            if group_keys is not None:
                out.encode(BUILD_ROW, build_take, self.row_keys(group_keys))
            return out

        # LEFT: preserved rows with no match survive once, null-filled.
        counts, starts = self._match(probe_codes)
        out_counts = np.maximum(counts, 1)
        total = int(out_counts.sum())
        probe_take = np.repeat(
            np.arange(batch.nrows, dtype=np.int64), out_counts
        )
        # Build-row index per output row: each probe row's matches are
        # the slice [start, start+count) of the build order.
        bases = np.repeat(starts, out_counts)
        first = np.repeat(
            np.cumsum(out_counts) - out_counts, out_counts
        )
        offsets = np.arange(total, dtype=np.int64) - first
        matched = np.repeat(counts > 0, out_counts)
        safe = np.where(matched, bases + offsets, 0)
        if len(self._build_order):
            build_take = np.where(matched, self._build_order[safe], -1)
        else:
            build_take = np.full(total, -1, dtype=np.int64)
        missing = build_take < 0

        # Build columns always promote (even when this particular
        # morsel has no unmatched row) so column dtypes are identical
        # across morsels and worker splits.
        out = batch.select(probe_take)
        filled: dict = {}
        filled_types: dict = {}
        for name, arr in build.columns.items():
            filled[name], out_type = _null_fill(
                arr, build_take, missing, build.types.get(name)
            )
            if out_type is not None:
                filled_types[name] = out_type
        out.extend(Batch(filled, filled_types))
        return out
