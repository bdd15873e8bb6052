"""Shared vocabulary of the aggregate runtime.

The pieces every layer of the engine passes around: the columnar,
late-materialized :class:`Batch` (one morsel: filters and inner probes
re-point its columns through row indices, a column is gathered when
first read), the session's :class:`SumConfig`, the
validated :class:`AggregateSpec` of one aggregate call, the
:class:`OperatorTimings` breakdown, and the canonical float / object
key encodings shared by GROUP BY keys, COUNT(DISTINCT) and the hash
join.  The partial aggregate *states* live in
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
    "OperatorTimings",
    "AggregateSpec",
    "canonical_float_bits",
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
    (``SELECT *``, a build side about to be cached or shipped, a
    spill or exchange payload) iterates it or takes ``dict(columns)``.

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


class OperatorTimings:
    """CPU time per operator class (Table IV's breakdown).

    In-process execution is serial, so these are the statement's own
    CPU seconds.  A ShardedAggregate (``workers > 1``) reports its
    executors' CPU time *summed across processes* as ``aggregation``,
    which can exceed the query's wall-clock; use
    :class:`~repro.engine.pipeline.PipelineStats` for wall-clock
    accounting.
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
        self.mode = mode
        self.levels = levels

    @classmethod
    def stored(cls, mode: str) -> str:
        """The mode a name recorded in a durable directory selects."""
        return cls.RETIRED_MODES.get(mode, mode)


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
            lv = call.args[1]
            if not isinstance(lv, ast.Literal) or not isinstance(lv.value, int):
                raise ExprError("RSUM level argument must be an integer literal")
            self.levels = lv.value
        if name not in ("COUNT", "SUM", "RSUM", "AVG", "MIN", "MAX") + _VAR_NAMES:
            raise ExprError(f"unknown aggregate {name!r}")

    def supports_retraction(self) -> bool:
        """True when the state a retractable group table builds for
        this call has a ``retract`` that is the *exact* inverse of
        ``update``.

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
        return self.sum_config.mode == "repro"
