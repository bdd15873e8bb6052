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
scan order, into one sink — a group table, or under a memory budget the
spilling one of :mod:`repro.aggregation.external_agg` — and ends in
:func:`finish_grouped`, the one merge -> finalize -> stats epilogue,
which the shard coordinator calls for its executors' partials too.

In-process execution is serial.  ``workers = N > 1`` is served by
executor *processes* (:mod:`repro.distributed`): the planner runs every
aggregate whose chain qualifies as a ``ShardedAggregate`` over ``N`` of
them, and everything else — projections, LEFT joins, external
aggregates — here.  Because the repro aggregate states merge *exactly*
(:meth:`~repro.aggregation.grouped.GroupedSummation.merge`), the
repro-mode result bits are identical for **every** ``(workers,
morsel_size)`` combination.  IEEE mode keeps plain float partials, so its results may
drift with the split — the engine-layer demonstration of the paper's
motivating problem.

Accounting: the session opens one :class:`PipelineStats` per statement
and every operator and driver here fills it — CPU seconds per operator
class, the driver's wall-clock, busy time per process that fed rows,
spill, exchange, ladder and cache counters.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
import weakref
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
#: The grouped driver, its spilling sink, the shard executors and the
#: shard coordinator all build their tables through this one symbol
#: (looked up on this module at call time), so no query can select a
#: different runtime; the differential tests substitute their
#: row-order reference table by patching it.
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

    JOIN_BUILD_SIDES = ("auto", "left", "right")

    #: Bound on cached hash-join builds per context.  Entries hold the
    #: materialized build batch, so the bound is deliberately small;
    #: keys embed every build table's content version, making a stale
    #: hit impossible (DML on a build table is a new key, a write to
    #: any other table is not) — the LRU exists purely to bound memory.
    DEFAULT_JOIN_CACHE_SIZE = 8

    #: Bound on cached physical plans per context.  Keys embed the read
    #: snapshot, so entries from superseded snapshots go cold and ride
    #: out the LRU; the bound just caps how many linger.
    DEFAULT_PLAN_CACHE_SIZE = 32

    def __init__(self, workers: int = 1,
                 morsel_size: int = DEFAULT_MORSEL_SIZE,
                 join_build: str = "auto",
                 memory_budget_bytes: int | None = None):
        #: Degree of parallelism: the number of executor *processes* a
        #: qualifying aggregate plan runs on as a ShardedAggregate —
        #: executor ``s`` of ``workers`` aggregates every
        #: ``workers``-th row from row ``s`` on and returns its partial
        #: group table over the spill wire format
        #: (:mod:`repro.distributed`).  ``1`` runs every plan
        #: in-process.  Repro-mode bits are invariant under this knob —
        #: the reproducibility CI sweeps it.
        self.workers = self._check_workers(workers)
        self.morsel_size = self._check_morsel_size(morsel_size)
        #: Force the hash-join build side for inner joins ('left' /
        #: 'right'); 'auto' lets the optimizer pick by estimated
        #: cardinality.  In repro mode the result bits are
        #: identical either way — the reproducibility CI sweeps this.
        self.join_build = self._check_join_build(join_build)
        #: Aggregation memory budget in bytes; ``None`` (or 0 through
        #: the setters) means unbounded.  When set, the physical
        #: planner chooses the external (spill-to-disk) GROUP BY for
        #: plans whose estimated group state exceeds it, and the
        #: operator spills partitions once resident partial tables pass
        #: the budget.  In repro mode the result bits are
        #: invariant under this knob — the reproducibility CI sweeps it.
        self.memory_budget_bytes = self._check_budget(memory_budget_bytes)
        self._shard_pool = None
        self._shard_finalizer = None
        #: Build-chain signature -> materialized :class:`HashJoin`,
        #: filled by :func:`repro.engine.executor._build_join`.  Keys
        #: embed every build-side table's content version at the read
        #: snapshot, so entries can never serve stale rows.
        self._join_cache = BoundedLRU(self.DEFAULT_JOIN_CACHE_SIZE)
        #: ``(sql text, snapshot, catalog ddl epoch)`` -> planned
        #: PhysicalQuery, filled by the session's SELECT path.  The
        #: snapshot pins row content, the DDL epoch pins schema
        #: identity, and any SET clears the cache — so a hit replays
        #: planning whose every input is provably unchanged.
        self._plan_cache = BoundedLRU(self.DEFAULT_PLAN_CACHE_SIZE)
        #: Lifetime plan-cache counts, kept only for the end-to-end
        #: tracer (``benchmarks/e2e``), which diffs them; a statement's
        #: own hit is :attr:`PipelineStats.plan_cache_hit`.
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    #: Every knob ``SET <name> = <value>`` accepts, for error messages.
    PARAM_NAMES = ("memory_budget", "workers", "morsel_size", "join_build")

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
    def _check_join_build(cls, value) -> str:
        side = str(value).lower()
        if side not in cls.JOIN_BUILD_SIDES:
            raise ConfigError(
                f"join_build must be one of {cls.JOIN_BUILD_SIDES}"
            )
        return side

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

        Every successful SET drops the cached plans.  Cached join
        builds stay: their key (:func:`~repro.engine.executor.build_signature`,
        join shape) depends on no knob.
        """
        key = name.lower()
        if key == "memory_budget":
            self.memory_budget_bytes = self._check_budget(value)
        elif key == "workers":
            workers = self._check_workers(value)
            if workers != self.workers:
                # The fleet is sized for the old count; a fresh one is
                # spawned lazily on the next sharded query.
                self._close_shard_pool()
            self.workers = workers
        elif key == "morsel_size":
            self.morsel_size = self._check_morsel_size(value)
        elif key == "join_build":
            self.join_build = self._check_join_build(value)
        elif key in ("shards", "shard_workers"):
            raise ConfigError(
                f"session parameter {name!r} is retired: workers counts "
                "the executor processes, one per shard"
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
        # Every knob can shape planning (operator choice, morsel/worker
        # configuration baked into the physical plan), so any successful
        # SET drops cached plans wholesale — SETs are rare, plans are
        # cheap to rebuild once.
        self._plan_cache.clear()

    def shard_pool(self):
        """The context's executor fleet — ``workers`` processes, one per
        shard — created lazily and reused across queries (shipped
        replicas only pay off if the processes survive between queries).
        A fleet with a dead executor is replaced; ``SET workers`` closes
        the old one; shut down by :meth:`close` or, failing that, a GC
        finalizer."""
        if self._shard_pool is not None and not self._shard_pool.alive():
            self._close_shard_pool()
        if self._shard_pool is None:
            from ..distributed.pool import ShardWorkerPool

            self._shard_pool = ShardWorkerPool(self.workers)
            self._shard_finalizer = weakref.finalize(
                self, self._shard_pool.close
            )
        return self._shard_pool

    def discard_shard_pool(self) -> None:
        """Tear down a poisoned executor fleet (a dead executor, a
        broken pipe): the next sharded query spawns a fresh one."""
        self._close_shard_pool()

    def _close_shard_pool(self) -> None:
        if self._shard_pool is not None:
            if self._shard_finalizer is not None:
                self._shard_finalizer.detach()
                self._shard_finalizer = None
            self._shard_pool.close()
            self._shard_pool = None

    def close(self) -> None:
        """Shut down any executor processes now (sessions call this on
        close; GC would get there eventually via the finalizer)."""
        self._close_shard_pool()


class PipelineStats:
    """One statement's accounting record.

    The session opens one for each SELECT and INSERT ... SELECT (a
    REFRESH or a WAL replay opens a throwaway one) and hands it down;
    operators and drivers fill it, none builds its own.

    ``seconds`` is CPU time per operator class (paper Table IV's
    breakdown): ``scan``, ``join_build``, ``selection``,
    ``aggregation`` and ``shard_exchange``.  A ShardedAggregate reports
    its executors' CPU time summed across processes as
    ``aggregation``, which can exceed the wall-clock.
    ``wall_seconds`` is the driver's wall-clock, from :meth:`start` to
    finalized output.  ``worker_busy[w]`` is the CPU time of process
    ``w`` that fed rows — the one in-process feeder, or each executor
    of a ShardedAggregate (``workers`` of them) — how the work was
    split, not how long anyone waited.
    """

    def __init__(self):
        self.start()
        self.seconds: dict[str, float] = {}
        self.morsel_count = 0
        self.merge_seconds = 0.0
        self.finalize_seconds = 0.0
        self.wall_seconds = 0.0
        #: True when the session served the plan from its plan cache.
        self.plan_cache_hit = False
        #: Hash-join builds taken from / added to the context's join
        #: cache by this statement.
        self.join_cache_hits = 0
        self.join_cache_misses = 0
        #: The most partial-table state (``approx_bytes``) resident at
        #: once: the tables alive at the finish; for an external run
        #: also the sink's own peak while scanning.
        self.peak_resident_bytes = 0
        #: True when the external (spill-to-disk) aggregation ran
        #: (:mod:`repro.aggregation.external_agg`).
        self.external = False
        self.spilled_runs = 0
        self.spilled_bytes = 0
        #: True when the plan ran as a ShardedAggregate across executor
        #: processes (:mod:`repro.distributed`); ``exchange_bytes``
        #: then counts framed bytes over the wire (shard replicas
        #: shipped + partial tables returned).
        self.sharded = False
        self.exchange_bytes = 0
        #: Which update this query's reproducible sums took, in rows
        #: summed over tables and executors (per query, not
        #: cumulative): scatter-accumulated on their table's prevailing
        #: ladder vs. handed to the reference, and why the first row
        #: that went there did (``off_ladder`` / ``non_finite`` /
        #: ``subnormal`` / ``window``; ``None`` when none did).  See
        #: :func:`repro.aggregation.grouped.add_blocked_multi`.
        self.ladder_rows_scatter = 0
        self.ladder_rows_reference = 0
        self.ladder_first_decline: str | None = None

    def start(self, workers: int = 1) -> None:
        """Stamp the driver's start; size the per-process lists."""
        self.started = time.perf_counter()
        self.workers = workers
        self.worker_busy = [0.0] * workers
        self.worker_morsels = [0] * workers

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
    stats.morsel_count = stats.worker_morsels[0] = len(morsels)
    stats.worker_busy[0] = selection + consumption
    return selection, consumption


def finish_grouped(partitions, group_exprs, specs, ladder,
                   stats: PipelineStats, fed_seconds: float):
    """The epilogue of every grouped driver — in-process, spilling,
    sharded.

    ``partitions`` yields ``(held, sources)`` per key-disjoint unit of
    partial state: everything, for an in-memory or sharded run; one
    spill partition at a time for an external one.  ``sources`` merge
    in order into the first of them; a callable one returns an unframed
    ``dump_table`` payload (a spill run, a shard's reply), read and
    loaded only when its turn comes.  Each unit is finalized and
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
    """In-process GROUP BY: every morsel into one sink, then finish.

    ``transform`` (optional) is a per-morsel operator chain — filters
    and hash-join probes composed by the physical planner.
    ``external`` (the planner's choice under a memory budget) makes the
    sink a spilling one over ``context.memory_budget_bytes`` instead of
    a plain table; in repro mode the returned bits are the
    same either way.

    Returns ``(key_arrays, result_arrays, ngroups)`` in canonical
    (sorted-key) group order.
    """
    stats.start()
    stats.external = external

    with (tempfile.TemporaryDirectory(prefix="repro-spill-") if external
          else contextlib.nullcontext()) as spill_dir:
        if external:
            sink = external_agg.ExternalGroupAggregator(
                group_exprs, specs, make_group_table,
                context.memory_budget_bytes, spill_dir,
            )
        else:
            sink = make_group_table(group_exprs, specs)
        selection, aggregation = _feed(morsels, transform, sink.update, stats)
        if external:
            partitions = external_agg.spilled_partitions(sink, stats)
        else:
            partitions = [(0, [sink])]
        stats.add_seconds("selection", selection)
        return finish_grouped(
            partitions, group_exprs, specs, sink.ladder, stats, aggregation,
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
