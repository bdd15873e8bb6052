"""Morsel-driven query pipeline.

The engine executes SELECTs as a streaming pipeline over *morsels* —
columnar chunks of at most :data:`ExecutionContext.morsel_size` rows:

    morsel scan -> filter / probe -> project / partial-aggregate
                -> finalize

One feeder: every plan runs these operators — there is no generated
code and no second path to choose.  A morsel is a late-materialized
:class:`~repro.engine.operators.Batch`: :func:`apply_where` and the
inner :meth:`~repro.engine.join.HashJoin.probe` only compose row
indices, and a column is gathered when the projection or an aggregate
state first reads it.

One grouped driver: :func:`run_grouped_pipeline` feeds every morsel, in
scan order, into its sink — ``workers`` group tables, morsel ``i`` into
table ``i mod workers``, or under a memory budget the spilling one of
:mod:`repro.aggregation.external_agg` — and ends in
:func:`finish_grouped`, the one merge -> finalize -> stats epilogue.

Execution is in-process and serial; ``workers = N`` splits the input
of an in-memory aggregate into ``N`` partial tables that merge in index
order, the merge a spilled partition takes.  Because the repro
aggregate states merge *exactly*
(:meth:`~repro.aggregation.grouped.GroupedSummation.merge`), the
repro-mode result bits are identical for **every** ``(workers,
morsel_size)`` combination.  IEEE mode keeps plain float partials, so
its results may drift with the split — the engine-layer demonstration
of the paper's motivating problem.

Accounting: the session opens one :class:`PipelineStats` per statement
and every operator and driver here fills it — CPU seconds per operator
class, the driver's wall-clock, spill, ladder and cache counters.
"""

from __future__ import annotations

import contextlib
import itertools
import tempfile
import time
from collections import OrderedDict

import numpy as np

from ..aggregation import external_agg
from ..errors import ConfigError
from ..storage.spill import load_table_into
from .expr import evaluate
from .operators import AggregateSpec, Batch
from .sql import ast
from .vectorized import VectorizedGroupTable, canonical_key_order

__all__ = [
    "DEFAULT_MORSEL_SIZE",
    "BoundedLRU",
    "ExecutionContext",
    "PipelineStats",
    "finish_grouped",
    "make_group_table",
    "run_grouped_pipeline",
    "run_projection_pipeline",
]

#: THE constructor of per-morsel group tables —
#: ``make_group_table(group_exprs, specs)``.
#: The grouped driver and its spilling sink build their tables through
#: this one symbol (looked up on this module at call time), so no query
#: can select a different runtime; the differential tests substitute
#: their row-order reference table by patching it.
make_group_table = VectorizedGroupTable

#: Default morsel size: big enough to amortise NumPy dispatch, small
#: enough that a few morsels exist at TPC-H bench scales.
DEFAULT_MORSEL_SIZE = 1 << 16


class BoundedLRU(OrderedDict):
    """A dict of at most ``size`` entries that evicts the least recently
    used one first — the context's plan and join caches."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def get(self, key):
        """The entry under ``key``, now the most recent, or ``None``."""
        value = super().get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        if len(self) > self.size:
            self.popitem(last=False)


class ExecutionContext:
    """Execution knobs threaded from the session into the pipeline."""

    #: Bound on cached hash-join builds per context.  Entries hold the
    #: materialized build batch, so the bound is deliberately small;
    #: keys embed every build table's content version, making a stale
    #: hit impossible (DML on a build table is a new key, a write to
    #: any other table is not) — the LRU exists purely to bound memory.
    DEFAULT_JOIN_CACHE_SIZE = 8

    #: Bound on cached logical plans per context — one per distinct
    #: SELECT text at the current DDL epoch (entries from an older
    #: epoch go cold and ride out the LRU); the bound just caps how
    #: many linger.
    DEFAULT_PLAN_CACHE_SIZE = 32

    def __init__(self, workers: int = 1,
                 morsel_size: int = DEFAULT_MORSEL_SIZE,
                 memory_budget_bytes: int | None = None):
        #: How many partial group tables an in-memory aggregate splits
        #: its morsels over (morsel ``i`` feeds table ``i mod
        #: workers``); they merge exactly, in index order, before the
        #: finalize.  ``1`` is one table.  Repro-mode bits are
        #: invariant under this knob — the reproducibility CI sweeps it.
        self.workers = self._check_workers(workers)
        self.morsel_size = self._check_morsel_size(morsel_size)
        #: Aggregation memory budget in bytes; ``None`` (or 0 through
        #: the setters) means unbounded.  When set, the physical
        #: planner chooses the external (spill-to-disk) GROUP BY for
        #: plans whose estimated group state exceeds it, and the
        #: operator spills partitions once resident partial tables pass
        #: the budget.  In repro mode the result bits are
        #: invariant under this knob — the reproducibility CI sweeps it.
        self.memory_budget_bytes = self._check_budget(memory_budget_bytes)
        #: Build-chain signature -> materialized :class:`HashJoin`,
        #: filled by :func:`repro.engine.executor._build_join`.  Keys
        #: embed every build-side table's content version at the read
        #: snapshot, so entries can never serve stale rows.
        self._join_cache = BoundedLRU(self.DEFAULT_JOIN_CACHE_SIZE)
        #: ``(sql text, catalog ddl epoch)`` -> optimized logical plan,
        #: filled by the session's SELECT path.  A logical plan reads
        #: no rows and no knob — the DDL epoch pins the tables it bound
        #: — and every SELECT lowers it afresh at its own snapshot and
        #: the current knobs, so nothing ever invalidates an entry.
        self._plan_cache = BoundedLRU(self.DEFAULT_PLAN_CACHE_SIZE)
        #: Lifetime plan-cache counts, kept only for the end-to-end
        #: tracer (``benchmarks/e2e``), which diffs them; a statement's
        #: own hit is :attr:`PipelineStats.plan_cache_hit`.
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    #: Every knob ``SET <name> = <value>`` accepts, for error messages.
    PARAM_NAMES = ("memory_budget", "workers", "morsel_size")

    # -- knob validation: one validator per knob, for the constructor
    # -- and ``SET`` alike -------------------------------------------------
    @staticmethod
    def _as_int(value, name: str) -> int:
        """Coerce a knob value to int, rejecting fractional numbers
        (silently truncating ``SET memory_budget = 1.5e6`` to
        one byte would be a nasty surprise) and naming the knob for
        non-numeric values."""
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{name} expects an integer value, got {value!r}"
            ) from None

    @classmethod
    def _check_workers(cls, value) -> int:
        value = cls._as_int(value, "workers")
        if value < 1:
            raise ConfigError("workers must be >= 1")
        return value

    @classmethod
    def _check_morsel_size(cls, value) -> int:
        value = cls._as_int(value, "morsel_size")
        if value < 1:
            raise ConfigError("morsel_size must be >= 1")
        return value

    @classmethod
    def _check_budget(cls, value) -> int | None:
        if value is None:
            return None
        if isinstance(value, str):
            if value.lower() in ("unbounded", "none"):
                return None
        value = cls._as_int(value, "memory budget")
        if value < 0:
            raise ConfigError("memory budget must be >= 0 (0 = unbounded)")
        return None if value == 0 else value

    def set_param(self, name: str, value) -> None:
        """Session ``SET`` surface: validate and apply one knob.

        Accepted names: :attr:`PARAM_NAMES` (``memory_budget`` 0, NULL,
        or 'unbounded' clears it).

        Both caches survive it: a cached logical plan holds no knob
        (the next SELECT lowers it under the new value), and a cached
        join build's key (:func:`~repro.engine.executor.build_signature`,
        join shape) depends on none.
        """
        key = name.lower()
        if key == "memory_budget":
            self.memory_budget_bytes = self._check_budget(value)
        elif key == "workers":
            self.workers = self._check_workers(value)
        elif key == "morsel_size":
            self.morsel_size = self._check_morsel_size(value)
        elif key == "join_build":
            raise ConfigError(
                f"session parameter {name!r} is retired: the planner "
                "builds a hash join on its smaller estimated input, and "
                "repro bits are the same on either side"
            )
        elif key in ("shards", "shard_workers"):
            raise ConfigError(
                f"session parameter {name!r} is retired: workers counts "
                "the partial tables an aggregate splits over"
            )
        elif key == "memory_budget_bytes" or key.startswith("spill_"):
            raise ConfigError(
                f"session parameter {name!r} is retired: memory_budget (in "
                "bytes) is the one knob of the external aggregation, its "
                "spill shape is not configurable"
            )
        else:
            raise ConfigError(
                f"unknown session parameter {name!r}; valid parameters: "
                + ", ".join(self.PARAM_NAMES)
            )


class PipelineStats:
    """One statement's accounting record.

    The session opens one for each SELECT, INSERT ... SELECT, REFRESH
    and CREATE MATERIALIZED VIEW and hands it down; operators and
    drivers fill it, none builds its own (a caller that keeps no record
    — WAL replay's refreshes — hands down a throwaway one).

    ``seconds`` is CPU time per operator class (paper Table IV's
    breakdown): ``scan``, ``hash_build``, ``selection`` and
    ``aggregation``.  ``wall_seconds`` is the driver's wall-clock, from
    :meth:`start` to finalized output.
    """

    def __init__(self):
        self.start()
        self.seconds: dict[str, float] = {}
        self.morsel_count = 0
        self.merge_seconds = 0.0
        self.finalize_seconds = 0.0
        self.wall_seconds = 0.0
        #: True when the session took the logical plan from its cache.
        self.plan_cache_hit = False
        #: Hash-join builds taken from / added to the context's join
        #: cache by this statement.
        self.join_cache_hits = 0
        self.join_cache_misses = 0
        #: Rows this statement's table scans copied: 0 when every scan
        #: was a slice of the table's buffers, the visible rows of each
        #: scan whose snapshot saw a delete otherwise
        #: (:meth:`repro.engine.table.Table.read`).
        self.scan_rows_copied = 0
        #: The most partial-table state (``approx_bytes``) resident at
        #: once: the tables alive at the finish; for an external run
        #: also the sink's own peak while scanning.
        self.peak_resident_bytes = 0
        #: True when the external (spill-to-disk) aggregation ran
        #: (:mod:`repro.aggregation.external_agg`).
        self.external = False
        self.spilled_runs = 0
        self.spilled_bytes = 0
        #: Which update this query's reproducible sums took, in rows
        #: summed over tables (per query, not cumulative):
        #: scatter-accumulated on their table's prevailing ladder vs.
        #: handed to the reference, and why the first row
        #: that went there did (``off_ladder`` / ``non_finite`` /
        #: ``subnormal`` / ``format``; ``None`` when none did).  See
        #: :func:`repro.aggregation.grouped.add_blocked_multi`.
        self.ladder_rows_scatter = 0
        self.ladder_rows_reference = 0
        self.ladder_first_decline: str | None = None

    def start(self, workers: int = 1) -> None:
        """Stamp the driver's start; ``workers`` is how many partial
        group tables it feeds."""
        self.started = time.perf_counter()
        self.workers = workers

    def add_seconds(self, label: str, dt: float) -> None:
        self.seconds[label] = self.seconds.get(label, 0.0) + dt

    def record_ladder(self, ladder) -> None:
        """Report a group table's :class:`~repro.aggregation.grouped.
        LadderCounters`."""
        self.ladder_rows_scatter = ladder.scatter
        self.ladder_rows_reference = ladder.reference
        self.ladder_first_decline = ladder.first_decline

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PipelineStats({self.workers} workers, "
            f"{self.morsel_count} morsels, "
            f"wall={self.wall_seconds:.6f}s)"
        )


def apply_where(batch: Batch, where: ast.Expr | None) -> Batch:
    """Filter one morsel by the WHERE predicate."""
    if where is None:
        return batch
    mask = np.asarray(evaluate(where, batch.columns, batch.types))
    if mask.shape == ():
        mask = np.full(batch.nrows, bool(mask))
    return batch.filter(mask.astype(bool))


def _feed(morsels: list[Batch], transform, consume, stats: PipelineStats):
    """Run every morsel, in scan order, through ``transform`` into
    ``consume``.  Returns ``(selection, consumption)`` CPU seconds."""
    selection = consumption = 0.0
    for batch in morsels:
        t0 = time.thread_time()
        if transform is not None:
            batch = transform(batch)
        t1 = time.thread_time()
        consume(batch)
        t2 = time.thread_time()
        selection += t1 - t0
        consumption += t2 - t1
    stats.morsel_count = len(morsels)
    return selection, consumption


def finish_grouped(partitions, group_exprs, specs, ladder,
                   stats: PipelineStats, fed_seconds: float):
    """The epilogue of every grouped driver — in memory or spilling.

    ``partitions`` yields ``(held, sources)`` per key-disjoint unit of
    partial state: the ``workers`` split tables, for an in-memory run;
    one spill partition at a time for an external one.  ``sources``
    merge in order into the first of them; a callable one returns an
    unframed ``dump_table`` payload (a spill run), read and loaded only
    when its turn comes.  Each unit is finalized and
    dropped before the next is asked for, so only one is ever whole;
    ``held`` is the bytes of partial tables alive beside it.  Units
    finalize unordered; their outputs are put in canonical key order
    once, together.

    Returns ``(key_arrays, result_arrays, ngroups)``.
    """
    outputs = []
    for held, sources in partitions:
        started = time.thread_time()
        root = None
        for table in sources:
            if callable(table):
                payload = table()
                table = make_group_table(group_exprs, specs)
                load_table_into(payload, table)
            if root is None:
                root = table
            else:
                root.merge(table)
        merged = time.thread_time()
        stats.peak_resident_bytes = max(
            stats.peak_resident_bytes, held + root.approx_bytes()
        )
        outputs.append(root.finalize(ordered=False))
        root = table = None  # gone before the next unit is merged
        stats.merge_seconds += merged - started
        stats.finalize_seconds += time.thread_time() - merged
    started = time.thread_time()
    key_arrays, results, ngroups = outputs[0]
    if len(outputs) > 1:
        key_arrays, results = (
            [np.concatenate(parts) for parts in zip(*(o[i] for o in outputs))]
            for i in (0, 1)
        )
        ngroups = sum(o[2] for o in outputs)
    if key_arrays and ngroups > 1:
        # units are key-disjoint by routing alone: the sort checks
        order = canonical_key_order(key_arrays, distinct=len(outputs) > 1)
        key_arrays = [arr[order] for arr in key_arrays]
        results = [arr[order] for arr in results]
    stats.finalize_seconds += time.thread_time() - started

    stats.record_ladder(ladder)
    stats.wall_seconds = time.perf_counter() - stats.started
    stats.add_seconds(
        "aggregation",
        fed_seconds + stats.merge_seconds + stats.finalize_seconds,
    )
    return key_arrays, results, ngroups


def run_grouped_pipeline(
    group_exprs,
    specs: list[AggregateSpec],
    morsels: list[Batch],
    context: ExecutionContext,
    stats: PipelineStats,
    transform=None,
    external: bool = False,
):
    """In-process GROUP BY: every morsel into the sink, then finish.

    ``transform`` (optional) is a per-morsel operator chain — filters
    and hash-join probes composed by the physical planner.  The sink is
    ``context.workers`` group tables, morsel ``i`` feeding table ``i
    mod workers``, merged in index order at the finish.  ``external``
    (the planner's choice under a memory budget) makes it one spilling
    sink over ``context.memory_budget_bytes`` instead; in repro mode
    the returned bits are the same either way.

    Returns ``(key_arrays, result_arrays, ngroups)`` in canonical
    (sorted-key) group order.
    """
    workers = 1 if external else context.workers
    stats.start(workers)
    stats.external = external

    with (tempfile.TemporaryDirectory(prefix="repro-spill-") if external
          else contextlib.nullcontext()) as spill_dir:
        if external:
            sink = external_agg.ExternalGroupAggregator(
                group_exprs, specs, make_group_table,
                context.memory_budget_bytes, spill_dir,
            )
            tables = [sink]
        else:
            tables = [make_group_table(group_exprs, specs)
                      for _ in range(workers)]
        updates = itertools.cycle([table.update for table in tables])
        selection, aggregation = _feed(
            morsels, transform, lambda batch: next(updates)(batch), stats,
        )
        if external:
            partitions = external_agg.spilled_partitions(sink, stats)
        else:
            partitions = [
                (sum(table.approx_bytes() for table in tables[1:]), tables)
            ]
        stats.add_seconds("selection", selection)
        # the merge root (the first table) ends up with every table's
        # ladder counters
        return finish_grouped(
            partitions, group_exprs, specs, tables[0].ladder, stats,
            aggregation,
        )


def run_projection_pipeline(
    items,
    morsels: list[Batch],
    stats: PipelineStats,
    transform=None,
):
    """In-process filter + project, gathered in morsel order.

    ``transform`` is the physical planner's per-morsel operator chain,
    as in :func:`run_grouped_pipeline`.

    Returns ``(names, arrays)``.
    """
    stats.start()
    pieces = []

    def project_one(batch: Batch):
        names, arrays = [], []
        for i, item in enumerate(items):
            if isinstance(item.expr, ast.Star):
                for name, arr in batch.columns.items():
                    names.append(name)
                    arrays.append(arr)
                continue
            value = evaluate(item.expr, batch.columns, batch.types)
            arr = np.asarray(value)
            if arr.shape == ():
                arr = np.full(batch.nrows, value)
            names.append(item.output_name(i))
            arrays.append(arr)
        pieces.append((names, arrays))

    selection, _ = _feed(morsels, transform, project_one, stats)

    gather_started = time.thread_time()
    names = pieces[0][0]
    arrays = [
        parts[0] if len(parts) == 1 else np.concatenate(parts)
        for parts in zip(*(arrays for _, arrays in pieces))
    ]
    stats.finalize_seconds = time.thread_time() - gather_started

    stats.wall_seconds = time.perf_counter() - stats.started
    stats.add_seconds("selection", selection)
    return names, arrays
