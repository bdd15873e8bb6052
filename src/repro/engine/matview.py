"""Incrementally-maintained reproducible materialized aggregate views.

The paper's exact-merge property has a corollary it highlights for
pre-aggregation: because partial aggregate states merge *exactly*,
they also subtract exactly, so a materialized ``GROUP BY`` can be kept
up to date by **merging** the partial states of inserted rows and
**retracting** those of deleted rows — and the refreshed view is
byte-identical to recomputing it from scratch, under any
``workers x morsel_size x memory_budget`` configuration.

The pieces:

* :class:`MaintenanceGroupTable` — the query group table
  (:class:`~repro.engine.vectorized.VectorizedGroupTable`: same key
  path, expression cache and state sharing as every SELECT) with its
  states built in retractable form (full-grid rsum ladders, int64
  counts/sums, refcounted DISTINCT sets) plus a per-group live-row
  count that drives *empty-group elimination*: a group whose COUNT(*)
  reaches zero disappears from the view, exactly as it would from a
  fresh query.
* :class:`MaterializedView` — the catalog object: the bound + optimized
  definition, the maintenance state, the consumed row-version
  watermark, and the finalized contents served to matching queries.
* :func:`match_view` / :func:`plan_view_scan` — the planner rewrite:
  an aggregate query whose (table, predicate, group keys) equal a
  *fresh* view's and whose aggregates are a subset of the view's is
  answered from the finalized view state, rendered in ``EXPLAIN`` as
  ``ViewScan``.  Stale views (or sessions whose SUM configuration
  changed) fall back to the base scan.

Views whose aggregates cannot retract exactly — MIN/MAX, or the
ieee/sorted SUM family, where float subtraction leaves residue — are
kept in ``full`` maintenance mode: ``REFRESH`` recomputes them through
the regular query pipeline instead of applying the delta.
"""

from __future__ import annotations

import numpy as np

from ..errors import BindError
from .aggregates import CountState
from .operators import Batch, SumConfig
from .optimizer import optimize
from .physical import (
    PhysicalQuery,
    PhysViewScan,
    _dedup_specs,
    plan_physical,
)
from .pipeline import ExecutionContext, PipelineStats, apply_where
from .plan import (
    Aggregate,
    Filter,
    Limit,
    LogicalNode,
    Project,
    Scan,
    Sort,
    bind_select,
    plan_column_types,
)
from .sql import ast
from .vectorized import VectorizedGroupTable

__all__ = [
    "ViewDefinitionError",
    "MaintenanceGroupTable",
    "MaterializedView",
    "match_view",
    "plan_view_scan",
]


class ViewDefinitionError(BindError):
    """The SELECT cannot define an incrementally-maintainable view."""


# ---------------------------------------------------------------------------
# Maintenance state
# ---------------------------------------------------------------------------


class MaintenanceGroupTable(VectorizedGroupTable):
    """The query group table built retractable, plus live-row counts.

    ``update`` consumes inserted-row batches, ``retract`` consumes
    deleted-row batches; both are exact, so any interleaving over the
    same live multiset lands on the same bytes.  ``finalize_live``
    additionally drops groups whose live-row count is zero, which is
    what makes the view contents byte-identical to a from-scratch
    recomputation (a fresh query never sees the vanished group).
    """

    def __init__(self, group_exprs, specs):
        super().__init__(group_exprs, specs, retractable=True)
        #: live rows per group (the empty-group elimination driver);
        #: riding ``states`` it is updated, retracted and merged with
        #: the aggregates
        self.row_counts = CountState()
        self.states.append(self.row_counts)

    def retract(self, batch: Batch) -> None:
        args = self._prepare(batch)
        for state in self.states:
            state.retract(batch, *args)

    def finalize_live(self):
        """``(key_arrays, result_arrays, ngroups)`` over *live* groups,
        canonical (sorted-key) order — the from-scratch result shape."""
        key_arrays, results, ngroups = self.finalize()
        if not self.group_exprs:
            # Global aggregate: the one group always exists, exactly as
            # it does for a fresh query over an empty table.
            return key_arrays, results, ngroups
        counts = self.row_counts.finalize(ngroups)
        order = self._canonical_order()
        if order is not None:
            counts = counts[order]
        live = counts > 0
        if live.all():
            return key_arrays, results, ngroups
        return (
            [arr[live] for arr in key_arrays],
            [arr[live] for arr in results],
            int(np.count_nonzero(live)),
        )


# ---------------------------------------------------------------------------
# Definition analysis
# ---------------------------------------------------------------------------


def _combined_sql(predicates) -> str | None:
    if not predicates:
        return None
    combined = predicates[0]
    for predicate in predicates[1:]:
        combined = ast.Binary("AND", combined, predicate)
    return combined.sql()


class _AggregateShape:
    """The (scan, predicate, group keys, aggregates) core of an
    optimized single-table aggregate plan, plus the finishing stages."""

    def __init__(self, root: LogicalNode):
        self.root = root
        node = root
        self.limit = None
        self.order_by = ()
        if isinstance(node, Limit):
            self.limit = node.count
            node = node.child
        if isinstance(node, Sort):
            self.order_by = node.order_by
            node = node.child
        if not isinstance(node, Project):
            raise ViewDefinitionError("unexpected plan shape")
        self.items = node.items
        node = node.child
        self.having = None
        if isinstance(node, Filter) and node.having:
            self.having = node.predicate
            node = node.child
        if not isinstance(node, Aggregate):
            raise ViewDefinitionError(
                "materialized views must aggregate (GROUP BY or "
                "aggregate functions)"
            )
        self.aggregate = node
        predicates = []
        child = node.child
        while isinstance(child, Filter):
            predicates.append(child.predicate)
            child = child.child
        if not isinstance(child, Scan):
            raise ViewDefinitionError(
                "materialized views must read exactly one base table"
            )
        if child.predicate is not None:
            predicates.append(child.predicate)
        self.scan = child
        self.predicate_sql = _combined_sql(predicates)
        self.predicates = tuple(predicates)
        self.group_sqls = tuple(e.sql() for e in node.group_exprs)
        self.agg_sqls = tuple(a.sql() for a in node.aggregates)


def _shape_of(root: LogicalNode) -> _AggregateShape | None:
    try:
        return _AggregateShape(root)
    except ViewDefinitionError:
        return None


# ---------------------------------------------------------------------------
# The view object
# ---------------------------------------------------------------------------


class MaterializedView:
    """One materialized aggregate view over a single base table."""

    def __init__(self, name: str, select: ast.Select, get_table,
                 sum_config: SumConfig):
        self.name = name.lower()
        self.select = select
        self.sum_config = sum_config
        if select.distinct:
            raise ViewDefinitionError(
                "materialized views do not support SELECT DISTINCT"
            )
        if select.order_by or select.limit is not None:
            raise ViewDefinitionError(
                "materialized views do not support ORDER BY / LIMIT"
            )
        if select.having is not None:
            raise ViewDefinitionError(
                "materialized views do not support HAVING"
            )
        if not isinstance(select.from_clause, ast.TableRef):
            raise ViewDefinitionError(
                "materialized views must read exactly one base table"
            )
        logical = optimize(bind_select(select, get_table))
        shape = _AggregateShape(logical)
        self.logical = logical
        self.table = shape.scan.table
        self.table_name = self.table.name
        self.predicate_sql = shape.predicate_sql
        self.predicates = shape.predicates
        self.group_exprs = shape.aggregate.group_exprs
        self.group_sqls = shape.group_sqls
        self.items = shape.items
        self.specs = _dedup_specs(shape.aggregate.aggregates, sum_config)
        self.agg_sqls = frozenset(spec.sql for spec in self.specs)
        #: 'incremental' when every aggregate state retracts exactly;
        #: 'full' otherwise (REFRESH recomputes through the pipeline).
        self.maintenance = (
            "incremental"
            if all(spec.supports_retraction() for spec in self.specs)
            else "full"
        )
        #: columns the delta scan needs (the optimizer's projection
        #: pushdown already narrowed the scan to them)
        projected = (
            shape.scan.projected if shape.scan.projected is not None
            else tuple(shape.scan.columns)
        )
        self.scan_columns = [
            shape.scan.columns[key][0] for key in projected
        ] or self.table.schema.names()[:1]
        self.scan_keys = list(projected) or self.scan_columns
        self.types = {
            key: shape.scan.columns[key][1]
            for key in (projected or self.scan_keys)
        }
        self._maintenance_table = (
            MaintenanceGroupTable(self.group_exprs, self.specs)
            if self.maintenance == "incremental" else None
        )
        #: base-table watermark the maintenance state has consumed
        self.watermark = 0
        self.key_arrays: list[np.ndarray] = []
        self.agg_results: dict[str, np.ndarray] = {}
        self.ngroups = 0
        #: atomically-swapped served state:
        #: ``(watermark, key_arrays, agg_results, ngroups)``.  Readers
        #: grab the whole tuple in one reference read, so a concurrent
        #: REFRESH can never hand them keys from one refresh and
        #: aggregates from another.
        self._served = None
        self._populated = False
        self.refresh_count = 0
        #: durable store logging REFRESHes (None = in-memory database)
        self._storage = None
        #: set by :meth:`restore_served` and by a failed refresh: the
        #: maintenance table must be rebuilt from the base table before
        #: the next incremental refresh (checkpoints persist served
        #: results, not the retractable states; a failed refresh may
        #: have applied part of its delta)
        self._needs_rebuild = False

    # -- freshness ---------------------------------------------------------
    def is_fresh(self) -> bool:
        """True when the view has consumed every base-table mutation."""
        return self._populated and self.watermark == self.table.version

    def serve_as_of(self, snapshot: int | None = None):
        """The served state tuple if this view can answer a query
        pinned at ``snapshot``, else ``None``.

        With a snapshot, the view is servable when no base-table
        mutation separates its consumed watermark from the snapshot —
        the view contents at its watermark are then byte-identical to
        aggregating the snapshot.  (The watermark may even be *ahead*
        of an older snapshot, as long as nothing changed in between.)
        Without a snapshot, it must be exactly current.
        """
        served = self._served
        if served is None:
            return None
        watermark = served[0]
        if snapshot is None:
            return served if watermark == self.table.version else None
        if self.table.changed_between(watermark, snapshot):
            return None
        return served

    def matches_config(self, sum_config: SumConfig) -> bool:
        return (
            sum_config.mode == self.sum_config.mode
            and sum_config.levels == self.sum_config.levels
        )

    # -- refresh -----------------------------------------------------------
    def refresh(self, context: ExecutionContext,
                to_version: int | None = None) -> int:
        """Bring the view up to the base table's watermark.

        Incremental mode merges the partial states of rows inserted
        since the consumed watermark and retracts those of rows deleted
        since; full mode recomputes through the regular query pipeline.
        Returns the number of delta rows consumed (incremental) or the
        number of rows scanned (full).

        ``to_version`` pins the refresh at an explicit row-version
        watermark instead of the table's current one.  WAL recovery
        uses this to replay a logged REFRESH at exactly the watermark
        it originally committed at, so the replayed view state is
        byte-identical even when later mutations follow in the log.
        """
        target = (
            self.table.version if to_version is None else int(to_version)
        )
        if self.maintenance == "incremental":
            try:
                consumed = self._refresh_incremental(context, target)
            except BaseException:
                # The maintenance table may hold part of the delta; the
                # next refresh rebuilds it at the unchanged watermark,
                # as recovery does.
                self._needs_rebuild = True
                raise
        else:
            consumed = self._refresh_full(context, target)
        self.watermark = target
        self._populated = True
        self._served = (
            self.watermark, self.key_arrays, self.agg_results, self.ngroups
        )
        self.refresh_count += 1
        if self._storage is not None:
            self._storage.log_view_refreshed(self, context)
        return consumed

    def _delta_batches(self, mask: np.ndarray, context: ExecutionContext,
                      keep_empty: bool):
        """Delta rows under ``mask`` as filtered morsel-sized batches."""
        data = self.table.masked_scan(mask, self.scan_columns)
        renamed = {
            key: data[source]
            for key, source in zip(self.scan_keys, self.scan_columns)
        }
        nrows = len(next(iter(renamed.values()))) if renamed else 0
        batches = []
        if nrows == 0:
            if keep_empty:
                batches.append(Batch(renamed, self.types))
        else:
            for start in range(0, nrows, context.morsel_size):
                batches.append(Batch(
                    {
                        key: arr[start : start + context.morsel_size]
                        for key, arr in renamed.items()
                    },
                    self.types,
                ))
        filtered = []
        for batch in batches:
            for predicate in self.predicates:
                batch = apply_where(batch, predicate)
            filtered.append(batch)
        return filtered, nrows

    def _ensure_maintenance(self, context: ExecutionContext) -> None:
        """Rebuild the retractable maintenance state after recovery or a
        failed refresh.

        A checkpoint persists the view's *served* arrays but not the
        maintenance group table; the first incremental refresh after a
        restore reconstructs it by replaying every row live at the
        consumed watermark through ``update``.  Exact merging makes the
        rebuilt states finalize to the same bytes the lost ones would
        have, so refreshes pick up exactly where the crashed process
        left off.  Deferred to refresh time (not restore time) because
        a fuzzy checkpoint's view watermark may be ahead of its table
        image — the missing rows arrive via WAL replay.
        """
        if not self._needs_rebuild:
            return
        table = MaintenanceGroupTable(self.group_exprs, self.specs)
        mask = self.table.snapshot_mask(self.watermark)
        batches, _ = self._delta_batches(mask, context, keep_empty=True)
        for batch in batches:
            table.update(batch)
        self._maintenance_table = table
        self._needs_rebuild = False

    def _refresh_incremental(self, context: ExecutionContext,
                             target: int) -> int:
        self._ensure_maintenance(context)
        inserted, deleted = self.table.delta_masks(
            self.watermark, upto=target
        )
        # The insert side always feeds at least one (possibly empty)
        # batch: state dtypes prime exactly as the pipeline's
        # one-empty-morsel scan primes them, so an empty table's view
        # bits match an empty table's query bits.
        ins_batches, ins_rows = self._delta_batches(
            inserted, context, keep_empty=not self._populated
        )
        del_batches, del_rows = self._delta_batches(
            deleted, context, keep_empty=False
        )
        table = self._maintenance_table
        for batch in ins_batches:
            table.update(batch)
        for batch in del_batches:
            table.retract(batch)
        key_arrays, results, ngroups = table.finalize_live()
        self._store(key_arrays, results, ngroups)
        return int(ins_rows + del_rows)

    def _refresh_full(self, context: ExecutionContext, target: int) -> int:
        from .executor import compute_grouped_arrays

        physical = plan_physical(self.logical, context, self.sum_config)
        # a throwaway record: a REFRESH (or its WAL replay) is not the
        # session's last SELECT
        key_arrays, results, ngroups = compute_grouped_arrays(
            physical, context, PipelineStats(), snapshot=target
        )
        self._store(key_arrays, results, ngroups)
        return int(np.count_nonzero(self.table.snapshot_mask(target)))

    def _store(self, key_arrays, results, ngroups: int) -> None:
        # Copy: finalize may hand back a state's internal array (e.g.
        # the single-group fast path skips the reorder), and the
        # maintenance state keeps mutating across refreshes — served
        # results must never change retroactively.
        self.key_arrays = [np.array(arr, copy=True) for arr in key_arrays]
        self.agg_results = {
            spec.sql: np.array(arr, copy=True)
            for spec, arr in zip(self.specs, results)
        }
        self.ngroups = int(ngroups)

    # -- durability --------------------------------------------------------
    def restore_served(self, watermark: int, key_arrays, agg_results,
                       ngroups: int, populated: bool,
                       refresh_count: int) -> None:
        """Install checkpointed served state (recovery path).

        The served arrays come back exactly as they were dumped — the
        checkpoint holds their raw bits.  The retractable maintenance
        state is *not* checkpointed; :attr:`_needs_rebuild` defers its
        reconstruction to the first incremental refresh, by which time
        WAL replay has delivered every base row up to ``watermark``.
        """
        self.watermark = int(watermark)
        self.key_arrays = [np.array(arr, copy=True) for arr in key_arrays]
        self.agg_results = {
            name: np.array(arr, copy=True)
            for name, arr in agg_results.items()
        }
        self.ngroups = int(ngroups)
        self._populated = bool(populated)
        self.refresh_count = int(refresh_count)
        if self._populated:
            self._served = (
                self.watermark, self.key_arrays, self.agg_results,
                self.ngroups,
            )
            if self.maintenance == "incremental":
                self._needs_rebuild = True

    def state_bytes(self) -> int:
        """Resident bytes of the maintenance state (0 in full mode)."""
        if self._maintenance_table is None:
            return 0
        return self._maintenance_table.approx_bytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fresh = "fresh" if self.is_fresh() else "stale"
        return (
            f"MaterializedView({self.name!r} ON {self.table_name}, "
            f"{self.maintenance}, {self.ngroups} groups, {fresh})"
        )


# ---------------------------------------------------------------------------
# View matching (the planner rewrite)
# ---------------------------------------------------------------------------


def match_view(logical: LogicalNode, views_for_table,
               sum_config: SumConfig,
               snapshot: int | None = None) -> MaterializedView | None:
    """A fresh view that can answer this optimized aggregate plan.

    The query must aggregate one base table with the same (optimized)
    predicate and the same group-key list, and every aggregate it
    computes must be one the view maintains.  Staleness — relative to
    ``snapshot`` when the query is pinned, else to the latest committed
    state — or a changed SUM configuration disqualify the view; the
    query falls back to the base scan.
    """
    shape = _shape_of(logical)
    if shape is None:
        return None
    for view in views_for_table(shape.scan.table.name):
        if view.table is not shape.scan.table:
            continue
        if view.serve_as_of(snapshot) is None:
            continue
        if not view.matches_config(sum_config):
            continue
        if shape.predicate_sql != view.predicate_sql:
            continue
        if shape.group_sqls != view.group_sqls:
            continue
        if not set(shape.agg_sqls) <= view.agg_sqls:
            continue
        return view
    return None


def plan_view_scan(logical: LogicalNode, view: MaterializedView,
                   context: ExecutionContext,
                   served: tuple) -> PhysicalQuery:
    """Lower a matched aggregate plan onto the view's finalized state.

    ``served`` is the state tuple captured by the planner at match
    time; baking it into the physical plan makes the ViewScan immune
    to REFRESHes that commit between planning and execution.
    """
    shape = _AggregateShape(logical)
    return PhysicalQuery(
        pipeline=None,
        aggregate=None,
        items=shape.items,
        group_exprs=shape.aggregate.group_exprs,
        having=shape.having,
        order_by=shape.order_by,
        limit=shape.limit,
        column_types=plan_column_types(logical),
        workers=context.workers,
        morsel_size=context.morsel_size,
        view_scan=PhysViewScan(view, served),
    )
