"""Logical query plan IR and the SQL-to-plan binder.

The SQL front end no longer executes the AST directly.  A SELECT is
*bound* against the catalog into a tree of logical operators::

    Limit
      Sort
        Project
          Filter(HAVING)          -- group scope
            Aggregate
              Filter(WHERE)       -- row scope
                Join / Scan ...

and the optimizer (:mod:`repro.engine.optimizer`) then rewrites the
tree — constant folding, equi-join key extraction, predicate and
projection pushdown — before the physical planner
(:mod:`repro.engine.physical`) lowers it onto the morsel pipeline.
A logical plan holds only what the SQL text and the schema decide: it
reads no rows, so one bound plan serves every snapshot.

Binding resolves every :class:`~repro.engine.sql.ast.ColumnRef` to a
*resolved key*: the bare column name when it is unique across the FROM
scope, else ``alias.column``.  Resolved keys are what batches, types
and expressions use from here on, so multi-table scopes need no
namespace machinery downstream — a joined batch is just a wider batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import ExprError, expression_columns, find_aggregates
from .operators import valid_levels
from .sql import ast
from .table import Table
from .types import SqlType

__all__ = [
    "LogicalNode",
    "Scan",
    "Dual",
    "Filter",
    "Join",
    "Aggregate",
    "Project",
    "Sort",
    "Limit",
    "BindError",
    "bind_select",
    "plan_column_types",
    "render_plan",
]


class BindError(ExprError):
    """Name-resolution failure (unknown/ambiguous column or table)."""


# ---------------------------------------------------------------------------
# Logical operator nodes
# ---------------------------------------------------------------------------


class LogicalNode:
    """Base class: every node knows its children and output columns."""

    def children(self) -> tuple["LogicalNode", ...]:
        return ()

    def output_columns(self) -> dict[str, SqlType | None]:
        """Resolved key -> SQL type of the columns this node produces."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass
class Scan(LogicalNode):
    """Base-table scan.

    ``columns`` maps resolved keys to ``(source_column, type)``;
    ``projected`` (set by projection pushdown) restricts the scan,
    ``predicate`` (set by predicate pushdown) filters at the scan.
    """

    table: Table
    binding: str  # alias the table is addressable by
    columns: dict[str, tuple[str, SqlType]]
    projected: tuple[str, ...] | None = None
    predicate: ast.Expr | None = None

    def output_columns(self):
        return {key: sql_type for key, (_, sql_type) in self.columns.items()}

    def describe(self) -> str:
        parts = [self.table.name]
        if self.binding != self.table.name:
            parts[0] = f"{self.table.name} AS {self.binding}"
        if self.projected is not None:
            parts.append(f"columns=[{', '.join(self.projected)}]")
        if self.predicate is not None:
            parts.append(f"filter={self.predicate.sql()}")
        return f"Scan({', '.join(parts)})"


@dataclass
class Dual(LogicalNode):
    """One-row, zero-column source for table-less SELECTs."""

    def output_columns(self):
        return {}

    def describe(self) -> str:
        return "Dual"


@dataclass
class Filter(LogicalNode):
    child: LogicalNode
    predicate: ast.Expr
    having: bool = False  # group-scope filters are never pushed down

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def describe(self) -> str:
        scope = "having" if self.having else "predicate"
        return f"Filter({scope}={self.predicate.sql()})"


@dataclass
class Join(LogicalNode):
    """Equi-join.  ``left_keys[i] = right_keys[i]`` are the join keys
    (filled in by the optimizer); ``residual`` holds non-equi ON/WHERE
    conjuncts that still reference both sides (inner joins only)."""

    left: LogicalNode
    right: LogicalNode
    kind: str = "inner"  # 'inner' | 'left'
    left_keys: tuple[ast.Expr, ...] = ()
    right_keys: tuple[ast.Expr, ...] = ()
    residual: ast.Expr | None = None

    def children(self):
        return (self.left, self.right)

    def output_columns(self):
        merged = dict(self.left.output_columns())
        merged.update(self.right.output_columns())
        return merged

    def describe(self) -> str:
        keys = ", ".join(
            f"{l.sql()} = {r.sql()}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        parts = [self.kind]
        parts.append(f"keys=[{keys}]" if keys else "keys=[]")
        if self.residual is not None:
            parts.append(f"residual={self.residual.sql()}")
        return f"Join({', '.join(parts)})"


@dataclass
class Aggregate(LogicalNode):
    child: LogicalNode
    group_exprs: tuple[ast.Expr, ...]
    aggregates: tuple[ast.FuncCall, ...]

    def children(self):
        return (self.child,)

    def output_columns(self):
        # Aggregate outputs are addressed by SQL text, not resolved
        # keys; pushdown never descends through an Aggregate, so the
        # child's columns are what matter below this node.
        return self.child.output_columns()

    def describe(self) -> str:
        group = ", ".join(e.sql() for e in self.group_exprs)
        aggs = ", ".join(a.sql() for a in self.aggregates)
        return f"Aggregate(group=[{group}], aggs=[{aggs}])"


@dataclass
class Project(LogicalNode):
    child: LogicalNode
    items: tuple[ast.SelectItem, ...]

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def describe(self) -> str:
        names = ", ".join(
            item.output_name(i) for i, item in enumerate(self.items)
        )
        return f"Project({names})"


@dataclass
class Sort(LogicalNode):
    child: LogicalNode
    order_by: tuple[ast.OrderItem, ...]

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def describe(self) -> str:
        keys = ", ".join(
            item.expr.sql() + (" DESC" if item.descending else "")
            for item in self.order_by
        )
        return f"Sort({keys})"


@dataclass
class Limit(LogicalNode):
    child: LogicalNode
    count: int

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def describe(self) -> str:
        return f"Limit({self.count})"


# ---------------------------------------------------------------------------
# Binder
# ---------------------------------------------------------------------------


class _Scope:
    """Column resolution scope of one FROM clause."""

    def __init__(self):
        #: binding -> Table
        self.tables: dict[str, Table] = {}
        #: column name -> list of (binding, column, type)
        self.by_name: dict[str, list[tuple[str, str, SqlType]]] = {}
        #: (binding, column) -> resolved key
        self.resolved: dict[tuple[str, str], str] = {}
        #: resolved keys in FROM/schema order (drives ``SELECT *``)
        self.ordered: list[str] = []

    def add_table(self, binding: str, table: Table) -> None:
        if binding in self.tables:
            raise BindError(f"duplicate table binding {binding!r} in FROM")
        self.tables[binding] = table
        for column in table.schema.names():
            sql_type = table.schema.type_of(column)
            self.by_name.setdefault(column, []).append(
                (binding, column, sql_type)
            )

    def seal(self) -> None:
        """Assign resolved keys once every table is in scope."""
        for binding, table in self.tables.items():
            for column in table.schema.names():
                if len(self.by_name[column]) == 1:
                    key = column
                else:
                    key = f"{binding}.{column}"
                self.resolved[(binding, column)] = key
                self.ordered.append(key)

    def resolve(self, ref: ast.ColumnRef) -> str:
        name = ref.name.lower()
        if ref.table is not None:
            binding = ref.table.lower()
            table = self.tables.get(binding)
            if table is None:
                raise BindError(f"unknown table {ref.table!r} in {ref.sql()!r}")
            if name not in table.schema:
                raise BindError(f"unknown column {ref.sql()!r}")
            return self.resolved[(binding, name)]
        hits = self.by_name.get(name, [])
        if not hits:
            raise BindError(f"unknown column {ref.sql()!r}")
        if len(hits) > 1:
            options = ", ".join(f"{b}.{c}" for b, c, _ in hits)
            raise BindError(f"ambiguous column {name!r} (could be {options})")
        binding, column, _ = hits[0]
        return self.resolved[(binding, column)]


def _bind_expr(expr: ast.Expr, scope: _Scope) -> ast.Expr:
    """Rewrite every ColumnRef in ``expr`` to its resolved key."""
    if isinstance(expr, ast.ColumnRef):
        return ast.ColumnRef(scope.resolve(expr))
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _bind_expr(expr.operand, scope))
    if isinstance(expr, ast.Binary):
        return ast.Binary(
            expr.op, _bind_expr(expr.left, scope), _bind_expr(expr.right, scope)
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            _bind_expr(expr.operand, scope),
            _bind_expr(expr.low, scope),
            _bind_expr(expr.high, scope),
        )
    if isinstance(expr, ast.FuncCall):
        return ast.FuncCall(
            expr.name,
            tuple(
                arg if isinstance(arg, ast.Star) else _bind_expr(arg, scope)
                for arg in expr.args
            ),
            expr.distinct,
        )
    return expr  # literals, Star


def _bind_from(item, scope: _Scope) -> LogicalNode:
    """Recursively bind a FROM item into Scan/Join nodes.

    ON conditions land in ``Join.residual``; the optimizer extracts the
    equi-keys and pushes single-side conjuncts further down.
    """
    if isinstance(item, ast.TableRef):
        binding = item.binding.lower()
        table = scope.tables[binding]
        columns = {
            scope.resolved[(binding, column)]: (
                column, table.schema.type_of(column)
            )
            for column in table.schema.names()
        }
        return Scan(table, binding, columns)
    # ast.Join
    left = _bind_from(item.left, scope)
    right = _bind_from(item.right, scope)
    kind = "inner" if item.kind == "cross" else item.kind
    residual = (
        _bind_expr(item.condition, scope) if item.condition is not None
        else None
    )
    return Join(left, right, kind, residual=residual)


def _collect_tables(item, get_table, scope: _Scope) -> None:
    if isinstance(item, ast.TableRef):
        scope.add_table(item.binding.lower(), get_table(item.name))
        return
    _collect_tables(item.left, get_table, scope)
    _collect_tables(item.right, get_table, scope)


def bind_select(stmt: ast.Select, get_table) -> LogicalNode:
    """Bind one SELECT AST into a logical plan rooted at the output."""
    scope = _Scope()
    if stmt.from_clause is not None:
        _collect_tables(stmt.from_clause, get_table, scope)
        scope.seal()
        node: LogicalNode = _bind_from(stmt.from_clause, scope)
    else:
        node = Dual()

    if stmt.where is not None:
        node = Filter(node, _bind_expr(stmt.where, scope))

    # Expand `SELECT *` (non-grouped) into explicit resolved columns so
    # projection pushdown sees real references.  In grouped selects a
    # bare `*` is invalid outside COUNT(*); it is kept as-is and the
    # executor raises the usual error.
    grouped_hint = bool(stmt.group_by) or any(
        find_aggregates(item.expr) for item in stmt.items
    ) or (stmt.having is not None and find_aggregates(stmt.having))
    items: list[ast.SelectItem] = []
    for item in stmt.items:
        if isinstance(item.expr, ast.Star) and not grouped_hint \
                and scope.ordered:
            for key in scope.ordered:
                items.append(ast.SelectItem(ast.ColumnRef(key), None))
            continue
        items.append(
            ast.SelectItem(_bind_expr(item.expr, scope), item.alias)
        )

    having = _bind_expr(stmt.having, scope) if stmt.having is not None else None

    aggregates: list[ast.FuncCall] = []
    for item in items:
        aggregates.extend(find_aggregates(item.expr))
    if having is not None:
        aggregates.extend(find_aggregates(having))
    for call in aggregates:
        _check_rsum_levels(call)
    grouped = bool(stmt.group_by) or bool(aggregates)

    if stmt.distinct:
        # SELECT DISTINCT lowers to a zero-aggregate GROUP BY over the
        # select list: the grouped machinery already deduplicates keys
        # exactly (canonical NaN/-0.0 identity included) and emits
        # groups in canonical order, so DISTINCT costs no new operator.
        if grouped:
            raise NotImplementedError(
                "SELECT DISTINCT with aggregates or GROUP BY is not "
                "supported"
            )
        if any(isinstance(item.expr, ast.Star) for item in items):
            raise BindError("SELECT DISTINCT * needs a FROM table")
        node = Aggregate(node, tuple(item.expr for item in items), ())
        grouped = True
    elif grouped:
        group_exprs = tuple(_bind_expr(e, scope) for e in stmt.group_by)
        node = Aggregate(node, group_exprs, tuple(aggregates))
        if having is not None:
            node = Filter(node, having, having=True)

    node = Project(node, tuple(items))

    if stmt.order_by:
        order_items = []
        for order_item in stmt.order_by:
            expr = order_item.expr
            if not expression_columns(expr) and not find_aggregates(expr):
                bound = _output_position(expr, items)
            else:
                try:
                    bound = _bind_expr(expr, scope)
                except BindError:
                    # Output aliases (ORDER BY revenue) resolve against
                    # the result columns at execution time, not the scope.
                    bound = expr
            order_items.append(ast.OrderItem(bound, order_item.descending))
        node = Sort(node, tuple(order_items))

    if stmt.limit is not None:
        node = Limit(node, stmt.limit)
    return node


def _check_rsum_levels(call: ast.FuncCall) -> None:
    """``RSUM(expr, L)``: ``L`` is an integer literal >= 1, so a plan
    (and its EXPLAIN) never carries a ladder that cannot be built."""
    if call.name != "RSUM" or len(call.args) < 2:
        return
    levels = call.args[1]
    if not (isinstance(levels, ast.Literal) and valid_levels(levels.value)):
        raise BindError(
            "RSUM level argument must be an integer literal >= 1, got "
            f"{levels.sql()}"
        )


def _output_position(expr: ast.Expr, items) -> ast.Expr:
    """``ORDER BY 2``: a positive integer literal names the output
    column at that 1-based position and sorts by its expression.  Any
    other constant orders nothing (evaluated, it would be one scalar
    standing in for the whole sort key), so it is rejected here."""
    position = expr.value if isinstance(expr, ast.Literal) else None
    if isinstance(position, bool) or not isinstance(position, int):
        raise BindError(
            f"ORDER BY key {expr.sql()} is a constant; order by a column, "
            "an output name, or a 1-based output position"
        )
    if not 1 <= position <= len(items):
        raise BindError(
            f"ORDER BY position {position} is not in the select list "
            f"(1..{len(items)})"
        )
    return items[position - 1].expr


# ---------------------------------------------------------------------------
# Plan-wide helpers
# ---------------------------------------------------------------------------


def plan_column_types(node: LogicalNode) -> dict[str, SqlType | None]:
    """Resolved key -> type over every Scan in the plan."""
    types: dict[str, SqlType | None] = {}
    if isinstance(node, Scan):
        types.update(node.output_columns())
    for child in node.children():
        types.update(plan_column_types(child))
    return types


def render_plan(node: LogicalNode, indent: int = 0) -> str:
    """Indented one-node-per-line plan text (EXPLAIN's logical half)."""
    lines = ["  " * indent + node.describe()]
    for child in node.children():
        lines.append(render_plan(child, indent + 1))
    return "\n".join(lines)


def predicate_columns(expr: ast.Expr) -> set[str]:
    """Resolved keys referenced by a bound expression."""
    return expression_columns(expr)
