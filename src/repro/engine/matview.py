"""Incrementally-maintained reproducible materialized aggregate views.

The paper's exact-merge property has a corollary it highlights for
pre-aggregation: because partial aggregate states merge *exactly*, a
materialized ``GROUP BY`` can be kept up to date by **merging** the
partial states of inserted rows into it — and the refreshed view is
byte-identical to recomputing it from scratch.  No state subtracts: a
REFRESH whose delta deletes a row (DELETE, UPDATE) rebuilds the view
from the rows live at its target watermark.

The pieces:

* :class:`MaterializedView` — the catalog object: the bound + optimized
  definition, the maintenance state (the plain
  :class:`~repro.engine.vectorized.VectorizedGroupTable` a SELECT
  builds: same key path, expression cache, state sharing and ladder
  update), the consumed row-version watermark, and the finalized
  contents served to matching queries.  Without subtraction a group
  only ever empties through a rebuild, which never registers it.
  A REFRESH runs the definition's plan through the query pipeline
  into the kept table (:meth:`MaterializedView.refresh`).
* :func:`match_view` / :func:`plan_view_scan` — the planner rewrite:
  an aggregate query whose (table, predicate, group keys) equal a
  *fresh* view's and whose aggregates are a subset of the view's is
  answered from the finalized view state, rendered in ``EXPLAIN`` as
  ``ViewScan``.  Stale views (or sessions whose SUM configuration
  changed) fall back to the base scan.

Every view is maintained this one way, whatever it aggregates.  The
view feeds its rows in physical order into one table, so no REFRESH
depends on an execution knob (``workers`` and ``memory_budget`` do
not apply to it): the ladders, COUNT / DISTINCT and MIN / MAX
(:class:`~repro.engine.aggregates.MinMaxState` orders zero ties) are
order-free, and the ``ieee`` SUM family accumulates row by row, so an
ieee view carries the bits of an unbudgeted ``workers=1`` SELECT.  The
kept table is not bounded by ``memory_budget``: a REFRESH never spills.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.grouped import LadderCounters
from ..errors import BindError
from .executor import _instantiate
from .operators import SumConfig
from .optimizer import optimize
from .physical import (
    PhysicalQuery, PhysViewScan, _dedup_specs, plan_physical,
)
from .pipeline import ExecutionContext, PipelineStats, _feed, finish_grouped
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
    "MaterializedView",
    "match_view",
    "plan_view_scan",
]


class ViewDefinitionError(BindError):
    """The SELECT cannot define an incrementally-maintainable view."""


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
        #: the optimized logical plan every refresh lowers and runs
        self.plan = optimize(bind_select(select, get_table))
        shape = _AggregateShape(self.plan)
        self.table = shape.scan.table
        self.table_name = self.table.name
        self.predicate_sql = shape.predicate_sql
        self.group_exprs = shape.aggregate.group_exprs
        self.group_sqls = shape.group_sqls
        self.specs = _dedup_specs(shape.aggregate.aggregates, sum_config)
        self.agg_sqls = frozenset(spec.sql for spec in self.specs)
        #: the maintenance state: the group table over the rows live
        #: at :attr:`watermark`.  ``None`` until the next refresh
        #: rebuilds it — before the first, after :meth:`restore_served`
        #: (checkpoints persist served results, not states) and after
        #: a failed refresh (which may have fed part of its delta)
        self._group_table: VectorizedGroupTable | None = None
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
                to_version: int | None = None,
                stats: PipelineStats | None = None) -> int:
        """Bring the view up to the base table's watermark.

        A query run: the view's plan is lowered at the target
        watermark as a SELECT's is, and its scan morsels (dictionary
        encodings riding along) pass the plan's filters into the kept
        group table through the pipeline's feeder, filling ``stats``
        (``None``: a throwaway record).  An insert-only delta is the
        rows visible at the target from physical row
        :meth:`~repro.engine.table.Table.rows_at` the consumed
        watermark on — insert versions never decrease in physical
        order.  A delta that deletes a row feeds a fresh table every
        row live at the target instead, as do the first refresh, the
        first after recovery (a fuzzy checkpoint's view watermark may
        be ahead of its table image until WAL replay delivers the
        rows) and the first after a failed one.  Exact merging makes
        either finalize to a from-scratch query's bytes.  Returns the
        rows scanned, counted before the view's predicate.
        ``context`` only cuts them into morsels, which no aggregate's
        bits see; ``workers`` and ``memory_budget`` do not apply.

        ``to_version`` pins the refresh at an explicit row-version
        watermark instead of the table's current one.  WAL recovery
        uses this to replay a logged REFRESH at exactly the watermark
        it originally committed at, so the replayed view state is
        byte-identical even when later mutations follow in the log.
        """
        target = (
            self.table.version if to_version is None else int(to_version)
        )
        if stats is None:
            stats = PipelineStats()
        try:
            table = self._group_table
            start = self.table.rows_at(self.watermark)
            if table is None or self.table.deletes_between(
                    self.watermark, target):
                table = VectorizedGroupTable(self.group_exprs, self.specs)
                start = 0
            else:
                table.ladder = LadderCounters()  # this refresh's rows
            physical = plan_physical(self.plan, context, self.sum_config,
                                     target)
            morsels, transform = _instantiate(
                physical.pipeline, context, stats, target, start
            )
            stats.start()
            selection, aggregation = _feed(
                morsels, transform, table.update, stats
            )
            stats.add_seconds("selection", selection)
            self._store(*finish_grouped(
                [(0, [table])], self.group_exprs, self.specs, table.ladder,
                stats, aggregation,
            ))
            self._group_table = table
        except BaseException:
            # The group table may hold part of the delta; the next
            # refresh rebuilds it, as it does after recovery.
            self._group_table = None
            raise
        self.watermark = target
        self._populated = True
        self._served = (
            self.watermark, self.key_arrays, self.agg_results, self.ngroups
        )
        self.refresh_count += 1
        if self._storage is not None:
            self._storage.log_view_refreshed(self)
        return sum(batch.nrows for batch in morsels)

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
        checkpoint holds their raw bits.  The maintenance state is
        *not* checkpointed: the next refresh rebuilds it
        (:meth:`refresh`), by which time WAL replay has delivered
        every base row up to its target.
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
        self._group_table = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fresh = "fresh" if self.is_fresh() else "stale"
        return (
            f"MaterializedView({self.name!r} ON {self.table_name}, "
            f"{self.ngroups} groups, {fresh})"
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
