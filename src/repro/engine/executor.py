"""Query executor: drives a SELECT through the planner stack.

Execution is now planner-driven::

    SQL AST --bind--> logical plan --optimize--> logical plan
            --plan_physical--> physical query --run--> QueryResult

The binder (:mod:`repro.engine.plan`) resolves columns and types
against the catalog, the optimizer (:mod:`repro.engine.optimizer`)
rewrites the tree (constant folding, predicate/projection pushdown,
join-key extraction, build-side choice), and the physical planner
(:mod:`repro.engine.physical`) picks concrete operators per node.
This module only *runs* physical queries: it materializes scan
morsels, builds hash-join tables for the pipeline-breaker sides,
streams probe morsels through the operator chains of
:mod:`repro.engine.pipeline` (or hands a ``ShardedAggregate`` to the
executor processes of :mod:`repro.distributed`), and applies the
finishing stages (HAVING, output projection, ORDER BY, LIMIT) on the
gathered arrays.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from .expr import ExprError, evaluate
from .join import HashJoin
from .operators import Batch, SumConfig, _object_sort_rank
from .optimizer import optimize
from .physical import (
    PhysFilter,
    PhysicalQuery,
    PhysPipeline,
    PhysProbe,
    PhysScan,
    plan_physical,
    render_physical,
)
from .pipeline import (
    ExecutionContext,
    PipelineStats,
    apply_where,
    run_grouped_pipeline,
    run_projection_pipeline,
)
from .plan import bind_select, render_plan
from .sql import ast
from .types import SqlType

__all__ = [
    "QueryResult",
    "compute_grouped_arrays",
    "execute_select",
    "explain_select",
]


class QueryResult:
    """Columnar query result with row-oriented accessors."""

    def __init__(self, names: list[str], arrays: list[np.ndarray],
                 types: list[SqlType | None] | None = None):
        self.names = names
        self.arrays = [np.asarray(a) for a in arrays]
        self.types = types if types is not None else [None] * len(names)

    def __len__(self) -> int:
        return len(self.arrays[0]) if self.arrays else 0

    def column(self, name: str) -> np.ndarray:
        try:
            return self.arrays[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no output column {name!r}") from None

    def rows(self) -> list[tuple]:
        converted = []
        for arr, sql_type in zip(self.arrays, self.types):
            if sql_type is not None:
                converted.append([_to_python(sql_type.to_python(v)) for v in arr])
            else:
                converted.append([_to_python(v) for v in arr])
        return [tuple(col[i] for col in converted) for i in range(len(self))]

    def scalar(self):
        """The single value of a 1x1 result."""
        if len(self.arrays) != 1 or len(self) != 1:
            raise ValueError("result is not a single scalar")
        return _to_python(self.arrays[0][0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryResult({self.names}, {len(self)} rows)"


def _to_python(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# Planning entry points
# ---------------------------------------------------------------------------


def _plan(stmt: ast.Select, get_table, sum_config: SumConfig,
          context: ExecutionContext, views=None, snapshot=None):
    """Bind, optimize, and lower one SELECT.

    ``views`` (optional) is a ``table_name -> [MaterializedView]``
    lookup; when a matching view is fresh *as of the query's snapshot*
    the query is lowered onto a ``ViewScan`` instead of a base-table
    pipeline — the view's served state is captured at plan time, so a
    concurrent REFRESH cannot tear the result.
    """
    logical = optimize(bind_select(stmt, get_table))
    if views is not None:
        from .matview import match_view, plan_view_scan

        view = match_view(logical, views, sum_config, snapshot=snapshot)
        if view is not None:
            served = view.serve_as_of(snapshot)
            if served is not None:
                return logical, plan_view_scan(logical, view, context, served)
    physical = plan_physical(logical, context, sum_config)
    return logical, physical


def explain_select(stmt: ast.Select, get_table, sum_config: SumConfig,
                   context: ExecutionContext, views=None,
                   snapshot=None) -> str:
    """EXPLAIN text: optimized logical plan + chosen physical plan."""
    logical, physical = _plan(
        stmt, get_table, sum_config, context, views, snapshot
    )
    return (
        "== optimized logical plan ==\n"
        + render_plan(logical)
        + "\n\n== physical plan ==\n"
        + render_physical(physical)
    )


def plan_select(stmt: ast.Select, get_table, sum_config: SumConfig,
                context: ExecutionContext, views=None, snapshot=None):
    """Plan one SELECT and return the physical query, for callers that
    cache plans across executions (the session's plan cache).  The
    plan is a pure function of the statement, the catalog state pinned
    by ``snapshot``, and the context's knobs — re-running it via
    :func:`run_planned` under the same snapshot replays the original
    execution bit-identically."""
    _, physical = _plan(
        stmt, get_table, sum_config, context, views, snapshot
    )
    return physical


def run_planned(physical, context: ExecutionContext,
                stats: PipelineStats | None = None,
                snapshot=None) -> QueryResult:
    """Execute an already-planned physical query, filling ``stats``
    (``None``: the caller keeps no record, a throwaway one is filled)."""
    if stats is None:
        stats = PipelineStats()
    return _run_physical(physical, context, stats, snapshot)


def execute_select(
    stmt: ast.Select,
    get_table,
    sum_config: SumConfig,
    stats: PipelineStats | None = None,
    context: ExecutionContext | None = None,
    views=None,
    snapshot=None,
) -> QueryResult:
    """Run a SELECT against the catalog accessor ``get_table``.

    ``snapshot`` (a row-version watermark) pins every table scan at
    that version: the result bits are fixed at admission no matter what
    other sessions commit while the query runs.  ``None`` reads the
    latest committed state.
    """
    if context is None:
        context = ExecutionContext()
    _, physical = _plan(
        stmt, get_table, sum_config, context, views, snapshot
    )
    return run_planned(physical, context, stats, snapshot)


# ---------------------------------------------------------------------------
# Pipeline instantiation (scans + join builds)
# ---------------------------------------------------------------------------


def _scan_morsels(scan: PhysScan, morsel_size: int,
                  snapshot=None) -> list[Batch]:
    """Materialize one scan's morsel list (column views, renamed to the
    binder's resolved keys, with dictionary encodings riding along).

    ``snapshot`` pins row visibility at that version watermark; the
    table hands back consistent array copies, so the morsels stay
    valid while concurrent writers mutate the table.
    """
    if scan.table is None:
        batch = Batch({}, {})
        batch.nrows = 1  # SELECT 1 + 1
        return [batch]
    source_columns = list(scan.column_map.values())
    encodings = scan.table.key_encodings(
        [scan.column_map[key] for key in scan.encode_keys],
        snapshot=snapshot,
    )
    reverse = {source: key for key, source in scan.column_map.items()}
    morsels = []
    offset = 0
    for chunk in scan.table.morsels(morsel_size, source_columns,
                                    snapshot=snapshot):
        nrows = len(next(iter(chunk.values()))) if chunk else 0
        renamed = {
            reverse.get(name, name): arr for name, arr in chunk.items()
        }
        chunk_encodings = {
            reverse.get(name, name): (codes[offset:offset + nrows], uniques)
            for name, (codes, uniques) in encodings.items()
        } or None
        morsels.append(Batch(renamed, scan.types, chunk_encodings))
        offset += nrows
    return morsels


def _concat_batches(batches: list[Batch]) -> Batch:
    """One build-side Batch from a materialized pipeline's morsels —
    real arrays throughout: the hash join is cached and shipped to
    executor processes, so nothing in it may still be waiting to be
    gathered."""
    kept = [b for b in batches if b.nrows]
    batches = kept or batches[:1]
    first = batches[0]

    def whole(parts):
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    columns = {
        name: whole([b.columns[name] for b in batches])
        for name in first.columns
    }
    encodings = None
    if first.dictionaries and all(
        b.dictionaries.keys() == first.dictionaries.keys()
        and all(b.dictionaries[name] is uniques
                for name, uniques in first.dictionaries.items())
        for b in batches[1:]
    ):
        # Same dictionary object in every piece: codes concatenate.
        encodings = {
            name: (whole([b.codes[name] for b in batches]), uniques)
            for name, uniques in first.dictionaries.items()
        }
    return Batch(columns, first.types, encodings)


def _instantiate(chain: PhysPipeline, context: ExecutionContext,
                 stats: PipelineStats, snapshot=None):
    """Materialize scan morsels and build every hash join in the chain.

    Returns ``(morsels, transform)`` where ``transform`` applies the
    chain's filters and probes to one morsel.
    """
    started = time.perf_counter()
    morsels = _scan_morsels(chain.source, context.morsel_size, snapshot)
    stats.add_seconds("scan", time.perf_counter() - started)

    steps = []
    for op in chain.ops:
        if isinstance(op, PhysFilter):
            predicate = op.predicate
            steps.append(
                lambda batch, p=predicate: apply_where(batch, p)
            )
        elif isinstance(op, PhysProbe):
            join = _build_join(op, context, stats, snapshot)
            steps.append(partial(join.probe, group_keys=op.group_keys))
        else:  # pragma: no cover - planner emits only the two op kinds
            raise TypeError(f"unknown pipeline op {op!r}")
    if not steps:
        return morsels, None

    def transform(batch: Batch) -> Batch:
        for step in steps:
            batch = step(batch)
        return batch

    return morsels, transform


def _materialize_build(op: PhysProbe, context: ExecutionContext,
                       stats: PipelineStats,
                       snapshot=None) -> Batch:
    """Materialize one probe's build side (a pipeline breaker) into a
    single batch.  Shared by the in-process join build and the sharded
    coordinator, which broadcasts the batch to shard executors."""
    build_morsels, build_transform = _instantiate(
        op.build, context, stats, snapshot
    )
    started = time.perf_counter()
    built = []
    for batch in build_morsels:
        if build_transform is not None:
            batch = build_transform(batch)
        built.append(batch)
    result = _concat_batches(built)
    stats.add_seconds("join_build", time.perf_counter() - started)
    return result


def build_signature(chain: PhysPipeline, snapshot=None) -> tuple:
    """``(structure, content)`` of one build pipeline — the one
    description of it, behind the join cache key and the shard
    coordinator's broadcast token alike.

    ``structure``: scan shape (table, binding, projection, pushed
    filter, encodings) plus the op chain, recursing through nested
    probes; two pipelines of equal structure materialize byte-identical
    batches *for the same table content*.  ``content``: ``(table name,
    :meth:`~repro.engine.table.Table.content_version` at the
    snapshot)`` of every scan in the tree, so DML on any build table
    makes a new key instead of reusing a stale build, and a write to
    any other table leaves the key alone.
    """
    scan = chain.source
    name = version = None  # the one-row dual
    if scan.table is not None:
        name = scan.table.name
        version = scan.table.content_version(snapshot)
    structure: list[tuple] = [(
        "scan",
        name,
        scan.binding,
        tuple(scan.column_map.items()),
        None if scan.predicate is None else scan.predicate.sql(),
        tuple(scan.encode_keys),
    )]
    content = [(name, version)]
    for op in chain.ops:
        if isinstance(op, PhysProbe):
            nested, versions = build_signature(op.build, snapshot)
            structure.append((
                "probe", op.kind, op.probe_is_left,
                tuple(k.sql() for k in op.probe_keys),
                tuple(k.sql() for k in op.build_keys),
                nested,
            ))
            content.extend(versions)
        else:
            structure.append(("filter", op.predicate.sql()))
    return tuple(structure), tuple(content)


def _build_join(op: PhysProbe, context: ExecutionContext,
                stats: PipelineStats,
                snapshot=None) -> HashJoin:
    """Materialize the build side and construct the hash table.

    Builds are pipeline breakers whose cost is pure fixed overhead on
    repeated queries, so finished :class:`HashJoin` objects are kept in
    a small per-context LRU; ``stats`` counts this statement's hits
    and misses.  Caching requires a read snapshot (only a
    pinned read names content exactly): the cache key combines the build
    pipeline's :func:`build_signature` (structure + every build table's
    content version at the snapshot) and the join's own shape, so DML on
    a build table can never be served a stale build and a write to any
    other table keeps the hit.  Snapshot-less executions (internal
    replays, shard workers) always rebuild.
    """
    key = None
    if snapshot is not None:
        started = time.perf_counter()
        key = (
            build_signature(op.build, snapshot),
            op.kind, op.probe_is_left,
            tuple(k.sql() for k in op.probe_keys),
            tuple(k.sql() for k in op.build_keys),
        )
        cached = context._join_cache.get(key)
        if cached is not None:
            stats.join_cache_hits += 1
            stats.add_seconds("join_build", time.perf_counter() - started)
            return cached
        stats.join_cache_misses += 1
    build_batch = _materialize_build(op, context, stats, snapshot)
    started = time.perf_counter()
    join = HashJoin(
        build_batch, op.build_keys, op.probe_keys,
        op.kind, op.probe_is_left,
    )
    stats.add_seconds("join_build", time.perf_counter() - started)
    if key is not None:
        context._join_cache.put(key, join)
    return join


# ---------------------------------------------------------------------------
# Physical-query driver
# ---------------------------------------------------------------------------


def _run_physical(query: PhysicalQuery, context: ExecutionContext,
                  stats: PipelineStats,
                  snapshot=None) -> QueryResult:
    if query.view_scan is not None:
        # Serve from the matched materialized view's finalized state —
        # no base-table scan, no aggregation.  The state tuple was
        # captured at plan time: a REFRESH committed since then must
        # not bleed into this query's snapshot.
        _, key_arrays, agg_results, ngroups = query.view_scan.served
        names, arrays = _finish_grouped(
            query, key_arrays, dict(agg_results), ngroups
        )
    elif query.aggregate is not None:
        run = compute_grouped_arrays
        if query.aggregate.sharded:
            # No local scan at all: executor processes hold the shard
            # replicas and return framed partial group tables that
            # merge exactly (imported lazily — most sessions run
            # in-process).
            from ..distributed.coordinator import (
                run_sharded_grouped_pipeline as run,
            )
        key_arrays, results, ngroups = run(query, context, stats, snapshot)
        agg_env = {
            spec.sql: arr
            for spec, arr in zip(query.aggregate.specs, results)
        }
        names, arrays = _finish_grouped(query, key_arrays, agg_env, ngroups)
    else:
        morsels, transform = _instantiate(
            query.pipeline, context, stats, snapshot
        )
        names, arrays = run_projection_pipeline(
            query.items, morsels, stats, transform=transform,
        )

    out_types: list[SqlType | None] = [None] * len(names)
    for i, item in enumerate(query.items):
        if isinstance(item.expr, ast.ColumnRef):
            out_types[i] = query.column_types.get(item.expr.name)

    # --- order by ---------------------------------------------------------
    if query.order_by and arrays and len(arrays[0]):
        env = {name: arr for name, arr in zip(names, arrays)}
        sort_keys = []
        for order_item in reversed(query.order_by):
            sort_keys.append(_order_key(order_item, query.items, env))
        order = np.lexsort(sort_keys) if sort_keys else np.arange(
            len(arrays[0])
        )
        arrays = [arr[order] for arr in arrays]

    # --- limit ------------------------------------------------------------
    if query.limit is not None:
        arrays = [arr[: query.limit] for arr in arrays]

    return QueryResult(names, arrays, out_types)


def _order_key(order_item: ast.OrderItem, items, env: dict):
    expr = order_item.expr
    arr = None
    if isinstance(expr, ast.ColumnRef) and expr.name in env:
        arr = env[expr.name]
    else:
        wanted = expr.sql()
        for item, name in zip(items, env.keys()):
            if item.expr.sql() == wanted:
                arr = env[name]
                break
    if arr is None:
        try:
            arr = evaluate(expr, env)
        except ExprError:
            raise ExprError(f"cannot resolve ORDER BY expression {expr.sql()!r}")
    arr = np.asarray(arr)
    if order_item.descending:
        if arr.dtype.kind in "iu":
            # exact at any magnitude, INT64_MIN included: -x - 1
            return ~arr
        if arr.dtype.kind == "f":
            return -arr
        # Lexicographic descending for strings: invert rank.  The rank
        # orders NULL before every real value (np.unique cannot sort
        # ``None`` against strings).
        return -_object_sort_rank(arr)
    if arr.dtype.kind == "O":
        return _object_sort_rank(arr)
    return arr


def compute_grouped_arrays(query: PhysicalQuery, context: ExecutionContext,
                           stats: PipelineStats,
                           snapshot: int | None = None):
    """Drive one physical aggregate query in-process up to (but not
    through) the finishing stages: ``(key_arrays, result_arrays,
    ngroups)``.

    Also used by full-recompute materialized-view refresh
    (:mod:`repro.engine.matview`), which stores the raw aggregate
    state rather than the projected output — always in-process, so no
    refresh depends on ``workers``.  ``snapshot`` pins the base
    scan at a row-version watermark so a replayed REFRESH aggregates
    exactly the rows the original one saw.
    """
    morsels, transform = _instantiate(query.pipeline, context, stats,
                                      snapshot)
    aggregate = query.aggregate
    return run_grouped_pipeline(
        aggregate.group_exprs, aggregate.specs, morsels, context, stats,
        transform=transform, external=aggregate.external,
    )


def _finish_grouped(query: PhysicalQuery, key_arrays, agg_env: dict,
                    ngroups: int):
    """The grouped finishing stages: HAVING + output projection over
    the gathered per-group arrays (shared by the pipeline path and the
    ViewScan path)."""
    # Environment for select items / HAVING: group-key expressions by
    # their SQL text, aggregates via agg_env.
    key_env: dict[str, np.ndarray] = {}
    types = query.column_types
    for expr, arr in zip(query.group_exprs, key_arrays):
        key_env[expr.sql()] = arr
        if isinstance(expr, ast.ColumnRef):
            key_env[expr.name] = arr

    def eval_output(expr: ast.Expr) -> np.ndarray:
        text = expr.sql()
        if text in agg_env:
            return agg_env[text]
        if text in key_env:
            return key_env[text]
        if isinstance(expr, ast.ColumnRef) and expr.name in key_env:
            return key_env[expr.name]
        # Expression over aggregates and/or group keys.
        env = dict(key_env)
        value = evaluate(expr, env, types, agg_env)
        arr = np.asarray(value)
        if arr.shape == ():
            arr = np.full(ngroups, value)
        return arr

    # HAVING filter.
    keep = None
    if query.having is not None:
        keep = np.asarray(eval_output(query.having)).astype(bool)

    names, arrays = [], []
    for i, item in enumerate(query.items):
        if isinstance(item.expr, ast.Star):
            raise ExprError("'*' in grouped SELECT is only valid in COUNT(*)")
        arr = eval_output(item.expr)
        names.append(item.output_name(i))
        arrays.append(arr if keep is None else arr[keep])
    return names, arrays
