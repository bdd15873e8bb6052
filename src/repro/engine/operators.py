"""Shared vocabulary of the aggregate runtime.

The pieces every layer of the engine passes around: the columnar,
late-materialized :class:`Batch` (one morsel: filters and inner probes
re-point its columns through row indices, a column is gathered when
first read), the session's :class:`SumConfig`, the
validated :class:`AggregateSpec` of one aggregate call, and the
canonical float / object key encodings shared by GROUP BY keys,
COUNT(DISTINCT) and the hash join.  The partial aggregate *states* live in
:mod:`repro.engine.aggregates`; the group table that owns them in
:mod:`repro.engine.vectorized`.

``SumConfig.mode`` selects what a SQL ``SUM`` (and AVG, VARIANCE,
STDDEV, which are built from it) means:

* ``"ieee"`` — conventional accumulation in physical row order (what
  stock engines do).  Partial states are plain float sums, so the
  result *may* drift with the morsel size / worker count — exactly the
  effect the paper describes;
* ``"repro"`` — the reproducible aggregation of Sections IV/V.
  Partial states are :class:`~repro.aggregation.grouped.
  GroupedSummation` ladders whose merge is *exact*, so the result bits
  are identical for every input permutation, chunking, and parallel
  split.

Table IV's other reproducible baseline, sorting the pairs before an
IEEE sum, is not a mode: ``benchmarks/bench_tab04_tpch_q1.py`` times
it beside the engine.

``RSUM(expr [, L])`` is the paper's proposed "alternate aggregate
function ... which would give the user control on the desired
precision" (Section V-D): it is reproducible regardless of the session
sum mode.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping

import numpy as np

from ..errors import ConfigError
from .expr import ExprError
from .sql import ast
from .types import SqlType

__all__ = [
    "BUILD_ROW",
    "Batch",
    "LazyColumns",
    "SumConfig",
    "AggregateSpec",
    "canonical_float_bits",
    "dense_codes",
    "distinct_codes",
    "factorize_object",
]


#: Key of the hidden build-row encoding (a tuple cannot collide with a
#: column name): its codes are the build-row index a hash-join probe
#: matched each row to, its dictionary a
#: :class:`~repro.engine.join.BuildRowKeys`.
BUILD_ROW = ("build row",)


class LazyColumns(Mapping):
    """``name -> array`` over ``(base, index)`` sources: ``base`` itself
    when ``index`` is ``None``, else ``base.take(index)`` — gathered on
    first read and memoized by replacing the source, so a column nobody
    reads is never gathered.  Iterating (``items()``, ``dict(...)``)
    reads, i.e. materializes, every column."""

    __slots__ = ("sources",)

    def __init__(self, sources: dict):
        self.sources = sources

    def __getitem__(self, name):
        base, index = self.sources[name]
        if index is not None:
            base = base.take(index)
            self.sources[name] = (base, None)
        return base

    def __contains__(self, name) -> bool:
        return name in self.sources

    def __iter__(self):
        return iter(self.sources)

    def __len__(self) -> int:
        return len(self.sources)


class Batch:
    """One morsel: late-materialized columns + SQL types + row count.

    Filters and inner hash-join probes never copy a column: they only
    re-point every ``(base, index)`` source through the surviving rows
    (:meth:`select` composes each *distinct* index once), and a column
    is gathered when an expression first reads it.  ``columns`` holds
    the visible columns; whoever needs real arrays for all of them
    (``SELECT *``, a build side about to be cached, a spill payload)
    iterates it or takes ``dict(columns)``.

    ``codes`` / ``dictionaries`` are the dictionary encodings of key
    columns, selected along with the rows and never part of the visible
    columns: storage dictionaries of GROUP BY keys (``name -> uniques``,
    consumed by the group table) and, under :data:`BUILD_ROW`, the
    build-row index a probe carries when the planner found that it
    determines the group.  :meth:`encoding` reads one.
    """

    def __init__(self, columns: dict, types: dict[str, SqlType],
                 encodings: dict | None = None):
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValueError("ragged batch")
        self.nrows = lengths.pop() if lengths else 0
        self.columns = LazyColumns(
            {name: (arr, None) for name, arr in columns.items()}
        )
        self.types = types
        encodings = encodings or {}
        self.codes = LazyColumns(
            {name: (codes, None) for name, (codes, _) in encodings.items()}
        )
        self.dictionaries = {
            name: uniques for name, (_, uniques) in encodings.items()
        }

    @classmethod
    def _lazy(cls, columns: dict, types, codes: dict, dictionaries: dict,
              nrows: int) -> "Batch":
        batch = cls.__new__(cls)
        batch.columns = LazyColumns(columns)
        batch.types = types
        batch.codes = LazyColumns(codes)
        batch.dictionaries = dictionaries
        batch.nrows = nrows
        return batch

    def encoding(self, key):
        """``(codes, dictionary)`` of one encoded key, or ``None``."""
        dictionary = self.dictionaries.get(key)
        return None if dictionary is None else (self.codes[key], dictionary)

    def select(self, rows: np.ndarray) -> "Batch":
        """The batch whose row ``j`` is this one's row ``rows[j]``: no
        column is gathered, each distinct pending index is composed
        with ``rows`` once."""
        composed: dict = {}

        def compose(index):
            if index is None:
                return rows
            out = composed.get(id(index))
            if out is None:
                out = composed[id(index)] = index.take(rows)
            return out

        return Batch._lazy(
            {name: (base, compose(index))
             for name, (base, index) in self.columns.sources.items()},
            self.types,
            {name: (base, compose(index))
             for name, (base, index) in self.codes.sources.items()},
            self.dictionaries, len(rows),
        )

    def filter(self, mask: np.ndarray) -> "Batch":
        return self.select(np.flatnonzero(mask))

    def extend(self, other: "Batch", rows: np.ndarray | None = None) -> None:
        """Add ``other``'s columns and encodings, row ``j`` reading
        ``other``'s row ``rows[j]`` (its own row ``j`` when ``None``)
        once something asks for it.  A name bound on both sides reads
        ``other`` from now on."""
        for name in other.columns.sources:
            self.columns.sources[name] = (other.columns[name], rows)
        for key in other.codes.sources:
            self.codes.sources[key] = (other.codes[key], rows)
        self.types = {**self.types, **other.types}
        if other.dictionaries:
            self.dictionaries = {**self.dictionaries, **other.dictionaries}

    def encode(self, key, codes: np.ndarray, dictionary) -> None:
        """Attach one more encoding: row-aligned ``codes`` and the
        dictionary that decodes them."""
        self.codes.sources[key] = (codes, None)
        self.dictionaries = {**self.dictionaries, key: dictionary}


def valid_levels(levels) -> bool:
    """A ladder's level count — the session's ``levels`` or ``RSUM``'s
    second argument — is an integer >= 1 (not a boolean)."""
    return (isinstance(levels, numbers.Integral)
            and not isinstance(levels, bool) and levels >= 1)


class SumConfig:
    """Session-level configuration of the SUM implementation."""

    MODES = ("ieee", "repro")

    #: Names earlier versions accepted, and the mode that replaced each:
    #: ``repro_buffered`` (same bits — the engine never read its
    #: buffer) and ``sorted`` (reproducible too, other bits: it summed
    #: pairs sorted by value).  New sessions reject them; view and
    #: default records of durable directories written with them still
    #: open, through :meth:`stored`.
    RETIRED_MODES = {"repro_buffered": "repro", "sorted": "repro"}

    def __init__(self, mode: str = "ieee", levels: int = 2):
        if mode not in self.MODES:
            successor = self.RETIRED_MODES.get(mode)
            raise ConfigError(
                f"sum_mode must be one of {self.MODES}" + (
                    f"; {mode!r} is retired, use {successor!r}"
                    if successor else ""
                )
            )
        if not valid_levels(levels):
            raise ConfigError(
                f"levels must be an integer >= 1, got {levels!r}")
        self.mode = mode
        self.levels = int(levels)

    @classmethod
    def stored(cls, mode: str) -> str:
        """The mode a name recorded in a durable directory selects."""
        return cls.RETIRED_MODES.get(mode, mode)


def canonical_float_bits(values: np.ndarray) -> np.ndarray:
    """Float array -> uint64 bit patterns under the engine's canonical
    float identity: ``-0.0`` folds into ``0.0``, every NaN payload
    collapses to the canonical NaN, float32 promotes exactly.  This is
    the one definition of float-key equality shared by GROUP BY keys
    (the group table's key registry), COUNT(DISTINCT), and the hash
    join."""
    with np.errstate(invalid="ignore"):  # a signaling NaN promotes quiet
        out = values.astype(np.float64)
    if out is values:
        out = out.copy()
    out[out == 0.0] = 0.0
    out[np.isnan(out)] = np.nan
    return out.view(np.uint64)


_VAR_NAMES = ("VARIANCE", "VAR_SAMP", "VAR_POP", "STDDEV", "STDDEV_SAMP",
              "STDDEV_POP")


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


#: Bytes of scratch a bounded code space may take per code looked at
#: instead of sorting them: a mark array (:func:`distinct_codes`, one
#: byte per slot) up to 64 slots per code, a mark array and a slot ->
#: index array (:func:`dense_codes`, nine bytes) up to 8.  A bound on
#: memory first — a composite space past the LUT nears 2^62 — it also
#: keeps to the faster side: k random codes into 2^20 slots (2-core
#: Xeon, NumPy 2.4) are marked faster than ``np.unique`` finds them up
#: to 256 slots per code, and marked and indexed faster than it gives
#: their inverse up to 8 (up to 64 in 2^16 slots).
_SCRATCH_PER_CODE = 64


def distinct_codes(codes: np.ndarray, total: int) -> np.ndarray:
    """``np.unique(codes)`` of codes known to lie in ``[0, total)``:
    marked in a ``total``-slot array and read back in order — O(n +
    total), no sort — while the space is small next to the codes, else
    ``np.sort`` and the repeats dropped (a bare ``np.unique`` of int64
    hashes, about 40x slower on 2^18 codes under NumPy 2.4)."""
    if total > _SCRATCH_PER_CODE * len(codes):
        ordered = np.sort(codes)
        keep = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
        return ordered[keep]
    mark = np.zeros(total, dtype=bool)
    mark[codes] = True
    return np.flatnonzero(mark)


def dense_codes(codes: np.ndarray, total: int):
    """``(distinct, inverse)`` of codes in ``[0, total)``, as
    ``np.unique(codes, return_inverse=True)`` gives them: the
    :func:`distinct_codes` and each code's index among them."""
    if 8 * total > _SCRATCH_PER_CODE * len(codes):
        distinct, inverse = np.unique(codes, return_inverse=True)
        return distinct, inverse.astype(np.int64, copy=False)
    distinct = distinct_codes(codes, total)
    index = np.empty(total, dtype=np.int64)
    index[distinct] = np.arange(len(distinct))
    return distinct, index[codes]


def _object_sort_rank(col: np.ndarray) -> np.ndarray:
    """Sorted-rank codes of an object key column, with ``None`` (a LEFT
    JOIN's null) ordered before every real value."""
    ordered = sorted(set(col.tolist()), key=lambda v: (v is not None, v))
    rank = {value: j for j, value in enumerate(ordered)}
    return np.array([rank[value] for value in col.tolist()], dtype=np.int64)


class AggregateSpec:
    """One validated aggregate call plus the SUM configuration it was
    planned under (the group table turns a list of these into shared
    physical states)."""

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
        self.levels = sum_config.levels
        if name == "RSUM" and len(call.args) > 1:
            self.levels = call.args[1].value  # checked by the binder
        if name not in ("COUNT", "SUM", "RSUM", "AVG", "MIN", "MAX") + _VAR_NAMES:
            raise ExprError(f"unknown aggregate {name!r}")
