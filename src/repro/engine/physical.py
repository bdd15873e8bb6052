"""Physical planner: lowers a logical plan onto the morsel pipeline.

The logical tree (:mod:`repro.engine.plan`, rewritten by
:mod:`repro.engine.optimizer`) is translated into a *physical query*:

* one streaming **pipeline** — a morsel source (scan) plus a chain of
  per-morsel operators (filters and hash-join probes); pipeline
  breakers (join build sides) become nested pipelines that are
  materialized before the stream starts;
* an optional **aggregate sink** — always the group table of
  :mod:`repro.engine.vectorized`, fed by the chain's own operators
  (``context.workers`` of them, merged exactly at the finish).  The
  other per-plan decision about it is taken here, from the plan shape
  and the schema dtypes alone: whether one probe's build row
  determines the group (:func:`_build_row_rule`), in which case that
  probe carries its build-row index along and the table takes group
  ids from it;
* the **finishing** stages executed on the gathered result arrays:
  HAVING, output projection, ORDER BY, LIMIT.

Lowering is where a plan first reads data, at the query's snapshot:
join build sides and the external choice read
:func:`~repro.engine.optimizer.estimate_rows` there.  It never mutates
the logical plan, so a session caches that plan and lowers it per
SELECT.  The planner executes nothing, so ``EXPLAIN`` can render the
chosen operators without running the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..aggregation import external_agg
from .expr import ExprError, evaluate
from .operators import AggregateSpec, SumConfig
from .optimizer import estimate_rows
from .plan import (
    Aggregate,
    Dual,
    Filter,
    Join,
    Limit,
    LogicalNode,
    Project,
    Scan,
    Sort,
)
from .sql import ast
from .types import DecimalSqlType

__all__ = [
    "PhysScan",
    "PhysFilter",
    "PhysProbe",
    "PhysPipeline",
    "PhysAggregate",
    "PhysViewScan",
    "PhysicalQuery",
    "estimate_group_state_bytes",
    "plan_physical",
    "render_physical",
]


@dataclass
class PhysScan:
    """Morsel source over one base table (or the one-row dual)."""

    table: object | None  # engine Table; None = dual
    binding: str = ""
    #: resolved key -> source column name, in scan order
    column_map: dict[str, str] = field(default_factory=dict)
    #: resolved key -> SqlType for the scanned columns
    types: dict[str, object] = field(default_factory=dict)
    predicate: ast.Expr | None = None
    #: resolved keys whose storage dictionary encodings ride the batch
    encode_keys: tuple[str, ...] = ()
    #: row versions the scan can see (``Table.rows_at`` the snapshot)
    rows: int = 0

    def describe(self) -> str:
        if self.table is None:
            return "DualScan(1 row)"
        parts = [self.table.name]
        if self.binding and self.binding != self.table.name:
            parts[0] = f"{self.table.name} AS {self.binding}"
        parts.append(f"columns=[{', '.join(self.column_map)}]")
        if self.predicate is not None:
            parts.append(f"filter={self.predicate.sql()}")
        if self.encode_keys:
            parts.append(f"dict_keys=[{', '.join(self.encode_keys)}]")
        parts.append(f"~{self.rows} rows")
        return f"Scan({', '.join(parts)})"


@dataclass
class PhysFilter:
    predicate: ast.Expr
    #: True when this is the pushed-down scan filter (already shown on
    #: the Scan line; not rendered separately).
    at_scan: bool = False

    def describe(self) -> str:
        return f"Filter({self.predicate.sql()})"


@dataclass
class PhysProbe:
    """Probe stage of one hash join; ``build`` is a nested pipeline
    that is materialized (a pipeline breaker) before streaming."""

    build: "PhysPipeline"
    build_keys: tuple[ast.Expr, ...]
    probe_keys: tuple[ast.Expr, ...]
    kind: str  # 'inner' | 'left'
    probe_is_left: bool
    build_side: str  # which logical input builds ('left' | 'right')
    est_build_rows: int = 0
    #: The build-row rule (:func:`_build_row_rule`), set on at most one
    #: probe of an aggregate's chain: per group expression, how to read
    #: it off this probe's build row.  The probe then carries its
    #: build-row index along as a hidden column and the group table
    #: takes its group ids from it.
    group_keys: tuple | None = None

    def keys_sql(self) -> str:
        return ", ".join(
            f"{p.sql()} = {b.sql()}"
            for p, b in zip(self.probe_keys, self.build_keys)
        )

    def describe(self) -> str:
        return (
            f"HashJoinProbe({self.kind}, keys=[{self.keys_sql()}], "
            f"build={self.build_side}, ~{self.est_build_rows} build rows)"
        )


@dataclass
class PhysPipeline:
    """A streaming chain: source morsels -> ops (filters / probes)."""

    source: PhysScan
    ops: list = field(default_factory=list)


@dataclass
class PhysAggregate:
    group_exprs: tuple[ast.Expr, ...]
    specs: list[AggregateSpec]
    #: External (spill-to-disk) aggregation: chosen when the estimated
    #: group state exceeds the session memory budget.  Repro-mode bits
    #: are identical either way; this is purely an operator choice.
    external: bool = False
    memory_budget_bytes: int | None = None
    est_state_bytes: int = 0

    def describe(self, workers: int, morsel_size: int,
                 build_row_probe: PhysProbe | None = None) -> str:
        group = ", ".join(e.sql() for e in self.group_exprs)
        aggs = ", ".join(spec.sql for spec in self.specs)
        extra = ""
        if self.external:
            extra = (
                f", external(partitions={external_agg.SPILL_PARTITIONS}, "
                f"budget={self.memory_budget_bytes}B, "
                f"~{self.est_state_bytes}B state)"
            )
        else:
            if workers > 1:
                extra = f", workers={workers}"
            if build_row_probe is not None:
                extra += (
                    f", group_ids=build_row({build_row_probe.keys_sql()})"
                )
        return (
            f"Aggregate[morsel_size={morsel_size}{extra}]"
            f"(group=[{group}], aggs=[{aggs}])"
        )


@dataclass
class PhysViewScan:
    """Answer an aggregate query straight from a fresh materialized
    view's finalized state (no base-table scan at all)."""

    view: object  # engine MaterializedView
    #: served-state tuple ``(watermark, key_arrays, agg_results,
    #: ngroups)`` captured at plan time
    served: tuple

    def describe(self) -> str:
        view = self.view
        return (
            f"ViewScan({view.name}, table={view.table_name}, "
            f"~{view.ngroups} groups, watermark={view.watermark})"
        )


@dataclass
class PhysicalQuery:
    """Everything the executor needs to run one SELECT."""

    pipeline: PhysPipeline | None
    aggregate: PhysAggregate | None
    items: tuple[ast.SelectItem, ...]
    group_exprs: tuple[ast.Expr, ...]
    having: ast.Expr | None
    order_by: tuple[ast.OrderItem, ...]
    limit: int | None
    #: resolved key -> SqlType for output typing (left-join
    #: null-introduced columns are already stripped)
    column_types: dict[str, object]
    workers: int = 1
    morsel_size: int = 0
    #: set by the view-matching rewrite: serve from this view instead
    #: of running the pipeline (``pipeline``/``aggregate`` are None)
    view_scan: PhysViewScan | None = None


class _PlannerState:
    def __init__(self, context, sum_config: SumConfig, snapshot):
        self.context = context
        self.sum_config = sum_config
        self.snapshot = snapshot
        #: group-key resolved names that want dictionary encodings
        self.encode_wanted: set[str] = set()
        #: resolved keys nulled by a LEFT join (types no longer apply)
        self.null_introduced: set[str] = set()


def _build_pipeline(node: LogicalNode, state: _PlannerState) -> PhysPipeline:
    if isinstance(node, Scan):
        projected = (
            node.projected if node.projected is not None
            else tuple(node.columns)
        )
        column_map = {key: node.columns[key][0] for key in projected}
        types = {key: node.columns[key][1] for key in projected}
        encode = tuple(
            key for key in projected
            if key in state.encode_wanted
            and types[key].numpy_dtype == np.dtype(object)
        )
        scan = PhysScan(
            node.table, node.binding, column_map, types,
            node.predicate, encode, node.table.rows_at(state.snapshot),
        )
        chain = PhysPipeline(scan)
        if node.predicate is not None:
            chain.ops.append(PhysFilter(node.predicate, at_scan=True))
        return chain
    if isinstance(node, Dual):
        return PhysPipeline(PhysScan(None))
    if isinstance(node, Filter):
        chain = _build_pipeline(node.child, state)
        chain.ops.append(PhysFilter(node.predicate))
        return chain
    if isinstance(node, Join):
        left_rows = estimate_rows(node.left, state.snapshot)
        right_rows = estimate_rows(node.right, state.snapshot)
        if node.kind == "left":
            # The preserved (left) side must stream as the probe input.
            build_side = "right"
        else:
            # The smaller estimated input builds the hash table.
            build_side = "left" if left_rows <= right_rows else "right"
        if build_side == "left":
            build_node, probe_node = node.left, node.right
            build_keys, probe_keys = node.left_keys, node.right_keys
            probe_is_left = False
        else:
            build_node, probe_node = node.right, node.left
            build_keys, probe_keys = node.right_keys, node.left_keys
            probe_is_left = True
        if node.kind == "left":
            nulled = set(node.right.output_columns())
            state.null_introduced |= nulled
        chain = _build_pipeline(probe_node, state)
        chain.ops.append(
            PhysProbe(
                _build_pipeline(build_node, state),
                build_keys, probe_keys, node.kind, probe_is_left,
                build_side, left_rows if build_side == "left" else right_rows,
            )
        )
        if node.residual is not None:
            chain.ops.append(PhysFilter(node.residual))
        return chain
    raise TypeError(f"cannot lower {node!r} into a pipeline")


def plan_physical(root: LogicalNode, context, sum_config: SumConfig,
                  snapshot: int | None = None) -> PhysicalQuery:
    """Lower an optimized logical plan into a physical query, reading
    row counts at ``snapshot`` (``None``: every row version)."""
    limit = None
    order_by: tuple[ast.OrderItem, ...] = ()
    having = None
    node = root
    if isinstance(node, Limit):
        limit = node.count
        node = node.child
    if isinstance(node, Sort):
        order_by = node.order_by
        node = node.child
    if not isinstance(node, Project):
        raise TypeError(f"expected Project at the top of the plan, {node!r}")
    items = node.items
    node = node.child
    if isinstance(node, Filter) and node.having:
        having = node.predicate
        node = node.child

    state = _PlannerState(context, sum_config, snapshot)
    aggregate = None
    if isinstance(node, Aggregate):
        specs = _dedup_specs(node.aggregates, sum_config)
        aggregate = PhysAggregate(node.group_exprs, specs)
        budget = getattr(context, "memory_budget_bytes", None)
        if budget is not None and node.group_exprs:
            # External vs in-memory: the group-state estimate at the
            # group-count bound against the budget.  Over-estimating
            # costs the router and the per-partition updates, nothing
            # else — an external operator that never spills is a
            # partitioned in-memory aggregation.
            # Global aggregates (no GROUP BY) never go external: with a
            # single group there is no key partitioning to spill along,
            # and the one state that grows with input cardinality —
            # COUNT(DISTINCT) — would need value-partitioned spilling,
            # which the operator does not implement; the budget is
            # documented as covering grouped aggregation only.
            est_bytes = estimate_group_state_bytes(
                _group_count_bound(node, snapshot), len(node.group_exprs),
                specs,
            )
            if est_bytes > budget:
                aggregate.external = True
                aggregate.memory_budget_bytes = budget
                aggregate.est_state_bytes = est_bytes
        state.encode_wanted = {
            expr.name for expr in node.group_exprs
            if isinstance(expr, ast.ColumnRef)
        }
        group_exprs = node.group_exprs
        node = node.child
    else:
        group_exprs = ()

    chain = _build_pipeline(node, state)
    if aggregate is not None and not aggregate.external:
        _build_row_rule(chain, aggregate.group_exprs)

    from .plan import plan_column_types

    column_types = plan_column_types(root)
    for key in state.null_introduced:
        column_types[key] = None

    return PhysicalQuery(
        pipeline=chain,
        aggregate=aggregate,
        items=items,
        group_exprs=group_exprs,
        having=having,
        order_by=order_by,
        limit=limit,
        column_types=column_types,
        workers=context.workers,
        morsel_size=context.morsel_size,
    )


def _pipeline_types(chain: PhysPipeline) -> dict:
    """``name -> SqlType`` of everything one chain's morsels carry: its
    scan's columns plus, recursively, every build side's."""
    types = dict(chain.source.types)
    for op in chain.ops:
        if isinstance(op, PhysProbe):
            types.update(_pipeline_types(op.build))
    return types


def _all_inner(chain: PhysPipeline) -> bool:
    """Is every probe of this chain, and of every build pipeline nested
    under it, an inner join?"""
    return all(
        op.kind == "inner" and _all_inner(op.build)
        for op in chain.ops if isinstance(op, PhysProbe)
    )


def _build_row_rule(chain: PhysPipeline, group_exprs) -> None:
    """Decide, from the plan shape and the schema dtypes alone, whether
    one probe's build row determines the group — and if so record on
    that probe (``group_keys``) how to read each group key off it.

    Two group-key shapes qualify.  A build-side column of probe ``p``
    *is* ``build column[build row]`` by construction.  A probe key of
    ``p`` over *integer* key space equals the matched build key exactly
    (integer-space matching is exact-value), so the evaluated build key
    reproduces it.  Float and string probe keys do not qualify: the
    generic path registers the *probe* value while the build row holds
    the *build* value, and ``-0.0`` / ``NaN`` keys make those distinct
    bit patterns.  Only plans whose every probe is inner are considered
    — nested build pipelines included: a LEFT join null-fills, so a
    column that went through one, even inside a build side, is float64
    with NaN and already descaled, not the schema dtype the rule reads
    — and only one probe's rows: a single row index always fits the
    group table's persistent code -> gid table, a multi-probe composite
    would need an overflow guard for no workload we have.
    """
    probes = [op for op in chain.ops if isinstance(op, PhysProbe)]
    if not group_exprs or not probes or not _all_inner(chain):
        return
    types = _pipeline_types(chain)
    empty = {
        name: np.empty(0, sql_type.numpy_dtype)
        for name, sql_type in types.items()
    }

    def dtype_of(expr) -> np.dtype:
        # value-independent promotion makes a zero-length probe exact
        return np.asarray(evaluate(expr, empty, types)).dtype

    #: which probe binds each build-side name (the last one wins, as in
    #: :meth:`HashJoin.probe`)
    origin = {
        name: op for op in probes for name in _pipeline_types(op.build)
    }
    for op in probes:
        probe_keys = [key.sql() for key in op.probe_keys]
        specs = []
        try:
            for expr in group_exprs:
                if isinstance(expr, ast.ColumnRef) \
                        and origin.get(expr.name.lower()) is op:
                    sql_type = types[expr.name.lower()]
                    scale = (10.0 ** sql_type.scale
                             if isinstance(sql_type, DecimalSqlType) else None)
                    specs.append(
                        ("col", expr.name.lower(), dtype_of(expr), scale)
                    )
                elif expr.sql() in probe_keys:
                    i = probe_keys.index(expr.sql())
                    dtype = dtype_of(expr)
                    if dtype.kind not in "iub" \
                            or dtype_of(op.build_keys[i]).kind not in "iub":
                        break
                    specs.append(("key", i, dtype, None))
                else:
                    break
        except (ExprError, TypeError):
            return  # the query fails at execution, with its own message
        if len(specs) == len(group_exprs):
            op.group_keys = tuple(specs)
            return


def _group_count_bound(node: Aggregate, snapshot) -> int:
    """Upper estimate of an aggregate's group count: its input row
    estimate at ``snapshot``, or the product of the per-key bounds
    where that is smaller.  A key that is a dictionary-encoded base
    column has at most as many values as its storage dictionary — which
    covers every physical row, so the bound holds at any snapshot (and
    only grows) — plus the NULL a LEFT join may add; any other key is
    bounded by the rows alone.
    """
    rows = max(1, estimate_rows(node.child, snapshot))
    bound = 1
    for expr in node.group_exprs:
        scan = isinstance(expr, ast.ColumnRef) and _scan_of(node.child, expr)
        if not scan or scan.columns[expr.name][1].numpy_dtype != object:
            return rows
        bound *= scan.table.dictionary_size(scan.columns[expr.name][0]) + 1
    return min(rows, bound)


def _scan_of(node: LogicalNode, column: ast.ColumnRef) -> Scan | None:
    """The Scan under ``node`` that produces a resolved column."""
    if isinstance(node, Scan):
        return node if column.name in node.columns else None
    for child in node.children():
        scan = _scan_of(child, column)
        if scan is not None:
            return scan
    return None


#: Per-group state-size model for the external-aggregation decision
#: (rough, deliberately pessimistic — see plan_physical).  The key
#: costs are what the runtime spill accounting
#: (:meth:`~repro.engine.vectorized.VectorizedGroupTable.approx_bytes`)
#: reads off the key registry: per group one gid in the identity index,
#: per key column the key and its identity (8 bytes each; an object
#: key counts its reference).
_DISTINCT_GROUP_BYTES = 96
_KEY_BYTES_BASE = 8
_KEY_BYTES_PER_COLUMN = 16


def _spec_state_bytes(spec: AggregateSpec) -> int:
    """Worst-case resident bytes one group costs for one aggregate."""
    name = spec.call.name
    mode = spec.sum_config.mode
    if name == "COUNT":
        return _DISTINCT_GROUP_BYTES if spec.call.distinct else 8
    repro = mode == "repro"
    # One rsum ladder: e0 + (s, c) per level + the three specials.
    rsum_bytes = 8 + 16 * spec.levels + 24
    if name in ("SUM", "RSUM"):
        return rsum_bytes if (repro or name == "RSUM") else 8
    if name == "AVG":
        return (rsum_bytes if repro else 8) + 8
    if name in ("MIN", "MAX"):
        return 9
    # VARIANCE/STDDEV family: two sums + a count.
    return 2 * (rsum_bytes if repro else 8) + 8


def estimate_group_state_bytes(est_groups: int, nkeys: int,
                               specs: list[AggregateSpec]) -> int:
    """Estimated resident bytes of a group table with ``est_groups``
    groups — the quantity the planner holds against the session memory
    budget when choosing external vs in-memory aggregation."""
    per_group = _KEY_BYTES_BASE + _KEY_BYTES_PER_COLUMN * nkeys
    per_group += sum(_spec_state_bytes(spec) for spec in specs)
    return est_groups * per_group


def _dedup_specs(aggregates, sum_config: SumConfig) -> list[AggregateSpec]:
    seen: dict[str, AggregateSpec] = {}
    for call in aggregates:
        key = call.sql()
        if key not in seen:
            seen[key] = AggregateSpec(call, sum_config)
    return list(seen.values())


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------


def _render_pipeline(chain: PhysPipeline, indent: int,
                     lines: list[str]) -> None:
    pad = "  " * indent
    for op in reversed(chain.ops):
        if isinstance(op, PhysFilter) and op.at_scan:
            continue
        lines.append(pad + op.describe())
        if isinstance(op, PhysProbe):
            lines.append(pad + "  [build side]")
            _render_pipeline(op.build, indent + 2, lines)
            lines.append(pad + "  [probe side]")
            indent += 2
            pad = "  " * indent
    lines.append(pad + chain.source.describe())


def render_physical(query: PhysicalQuery) -> str:
    """Indented physical-plan text (EXPLAIN's second half)."""
    lines: list[str] = []
    indent = 0
    if query.limit is not None:
        lines.append("  " * indent + f"Limit({query.limit})")
        indent += 1
    if query.order_by:
        keys = ", ".join(
            item.expr.sql() + (" DESC" if item.descending else "")
            for item in query.order_by
        )
        lines.append("  " * indent + f"Sort({keys})")
        indent += 1
    names = ", ".join(
        item.output_name(i) for i, item in enumerate(query.items)
    )
    lines.append("  " * indent + f"Project({names})")
    indent += 1
    if query.having is not None:
        lines.append("  " * indent + f"Filter(having={query.having.sql()})")
        indent += 1
    if query.view_scan is not None:
        lines.append("  " * indent + query.view_scan.describe())
        return "\n".join(lines)
    if query.aggregate is not None:
        build_row_probe = next(
            (op for op in query.pipeline.ops
             if isinstance(op, PhysProbe) and op.group_keys is not None),
            None,
        )
        lines.append(
            "  " * indent
            + query.aggregate.describe(query.workers, query.morsel_size,
                                       build_row_probe)
        )
        indent += 1
    _render_pipeline(query.pipeline, indent, lines)
    return "\n".join(lines)
