"""Rule-based logical-plan optimizer.

Three passes run in order over the bound plan
(:mod:`repro.engine.plan`):

1. **constant folding** — literal-only subexpressions collapse to one
   literal (``DATE '1998-12-01' - INTERVAL '90' DAY`` becomes the
   ordinal it compares as), so every later pass and the morsel loop see
   pre-computed constants;
2. **predicate pushdown** — WHERE and inner-ON conjuncts move to the
   lowest node whose columns cover them, equality conjuncts spanning a
   join's two sides become the join's equi-keys, and everything that
   lands on a base table is evaluated inside the scan.  A LEFT join's
   null-introducing (right) side is a pushdown barrier: a filter above
   the join may not move below it, and ON conjuncts of an outer join
   must be pure equi-keys (anything else would change which rows are
   *preserved* rather than which rows *match*);
3. **projection pushdown** — each scan is restricted to the columns
   some ancestor actually consumes (subsuming the ad-hoc restriction
   the vectorized path used to do in the executor).

The passes read no rows: the optimized plan is a function of the SQL
text and the schema, which is what lets a session cache it across
snapshots.  The one choice that reads data — each join's build side,
the input with the smaller :func:`estimate_rows` at the query's
snapshot — is made while lowering (:mod:`repro.engine.physical`).

None of these choices may change result *values* — and in the repro sum
modes they cannot change result *bits* either, because the aggregate
states are exact under any re-ordering or re-chunking of their input.
That is the paper's point applied to planning: plan choice becomes a
pure performance decision.
"""

from __future__ import annotations

import numpy as np

from .expr import evaluate, expression_columns
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

__all__ = [
    "optimize",
    "fold_expr",
    "split_conjuncts",
    "estimate_rows",
]


def optimize(node: LogicalNode) -> LogicalNode:
    """Run every rule pass; returns the rewritten plan root."""
    node = _fold_node(node)
    node = _push_predicates(node)
    _push_projections(node, needed=None)
    return node


# ---------------------------------------------------------------------------
# Pass 1: constant folding
# ---------------------------------------------------------------------------

_LITERAL_NODES = (ast.Literal, ast.DateLiteral, ast.IntervalLiteral)


def _is_literal(expr: ast.Expr) -> bool:
    return isinstance(expr, _LITERAL_NODES)


def _to_scalar(value):
    if isinstance(value, np.generic):
        return value.item()
    return value


def fold_expr(expr: ast.Expr) -> ast.Expr:
    """Collapse literal-only subtrees into single literals (bottom-up).

    Folding is attempted by evaluating the subtree over an empty batch;
    anything that cannot evaluate to a scalar (e.g. a MONTH interval in
    arithmetic) is left untouched rather than guessed at.
    """
    if isinstance(expr, ast.Unary):
        expr = ast.Unary(expr.op, fold_expr(expr.operand))
        ready = _is_literal(expr.operand)
    elif isinstance(expr, ast.Binary):
        expr = ast.Binary(expr.op, fold_expr(expr.left), fold_expr(expr.right))
        ready = _is_literal(expr.left) and _is_literal(expr.right)
    elif isinstance(expr, ast.Between):
        expr = ast.Between(
            fold_expr(expr.operand), fold_expr(expr.low), fold_expr(expr.high)
        )
        ready = all(
            _is_literal(e) for e in (expr.operand, expr.low, expr.high)
        )
    elif isinstance(expr, ast.FuncCall):
        args = tuple(
            arg if isinstance(arg, ast.Star) else fold_expr(arg)
            for arg in expr.args
        )
        expr = ast.FuncCall(expr.name, args, expr.distinct)
        ready = (
            not expr.is_aggregate
            and not expr.distinct
            and bool(args)
            and all(_is_literal(arg) for arg in args)
        )
    elif isinstance(expr, (ast.DateLiteral, ast.IntervalLiteral)):
        ready = True
    else:
        return expr
    if not ready:
        return expr
    try:
        value = _to_scalar(evaluate(expr, {}, {}))
    except Exception:
        return expr
    if isinstance(value, (bool, int, float, str)):
        return ast.Literal(value)
    return expr


def _map_exprs(node: LogicalNode, fn) -> None:
    """Apply ``fn`` to every expression stored on one node (in place)."""
    if isinstance(node, Scan) and node.predicate is not None:
        node.predicate = fn(node.predicate)
    elif isinstance(node, Filter):
        node.predicate = fn(node.predicate)
    elif isinstance(node, Join):
        node.left_keys = tuple(fn(e) for e in node.left_keys)
        node.right_keys = tuple(fn(e) for e in node.right_keys)
        if node.residual is not None:
            node.residual = fn(node.residual)
    elif isinstance(node, Aggregate):
        node.group_exprs = tuple(fn(e) for e in node.group_exprs)
        node.aggregates = tuple(fn(a) for a in node.aggregates)
    elif isinstance(node, Project):
        node.items = tuple(
            ast.SelectItem(
                item.expr if isinstance(item.expr, ast.Star)
                else fn(item.expr),
                item.alias,
            )
            for item in node.items
        )
    elif isinstance(node, Sort):
        node.order_by = tuple(
            ast.OrderItem(fn(item.expr), item.descending)
            for item in node.order_by
        )


def _fold_node(node: LogicalNode) -> LogicalNode:
    _map_exprs(node, fold_expr)
    for child in node.children():
        _fold_node(child)
    return node


# ---------------------------------------------------------------------------
# Pass 2: predicate pushdown + equi-join key extraction
# ---------------------------------------------------------------------------


def split_conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if isinstance(expr, ast.Binary) and expr.op.upper() == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def _and_join(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = ast.Binary("AND", combined, conjunct)
    return combined


def _equi_key(conjunct: ast.Expr, left_cols: set[str],
              right_cols: set[str]):
    """``(left_key, right_key)`` if the conjunct is ``l = r`` across the
    two sides, else ``None``."""
    if not (isinstance(conjunct, ast.Binary) and conjunct.op == "="):
        return None
    a_cols = expression_columns(conjunct.left)
    b_cols = expression_columns(conjunct.right)
    if not a_cols or not b_cols:
        return None  # needs a column from each side
    if a_cols <= left_cols and b_cols <= right_cols:
        return conjunct.left, conjunct.right
    if a_cols <= right_cols and b_cols <= left_cols:
        return conjunct.right, conjunct.left
    return None


def _sink(node: LogicalNode, conjunct: ast.Expr) -> LogicalNode:
    """Place one conjunct as deep as legal inside ``node`` (whose
    columns are known to cover it)."""
    cols = expression_columns(conjunct)
    if isinstance(node, Scan):
        node.predicate = (
            conjunct if node.predicate is None
            else ast.Binary("AND", node.predicate, conjunct)
        )
        return node
    if isinstance(node, Filter) and not node.having:
        node.child = _sink(node.child, conjunct)
        return node
    if isinstance(node, Join):
        left_cols = set(node.left.output_columns())
        right_cols = set(node.right.output_columns())
        if cols <= left_cols:
            node.left = _sink(node.left, conjunct)
            return node
        if cols <= right_cols and node.kind == "inner":
            node.right = _sink(node.right, conjunct)
            return node
        if node.kind == "inner":
            key = _equi_key(conjunct, left_cols, right_cols)
            if key is not None:
                node.left_keys += (key[0],)
                node.right_keys += (key[1],)
                return node
            node.residual = (
                conjunct if node.residual is None
                else ast.Binary("AND", node.residual, conjunct)
            )
            return node
        # LEFT join: the right side is null-introducing — a predicate
        # from above must not cross it (it would filter preserved rows
        # before their match status is known).  It stays as a Filter
        # directly above the join.
        return Filter(node, conjunct)
    # Aggregate / Project / anything else: stop here.
    return Filter(node, conjunct)


def _extract_on_keys(join: Join) -> None:
    """Split a bound ON condition into keys / pushed filters / residual."""
    if join.residual is None:
        return
    left_cols = set(join.left.output_columns())
    right_cols = set(join.right.output_columns())
    keep: list[ast.Expr] = []
    for conjunct in split_conjuncts(join.residual):
        key = _equi_key(conjunct, left_cols, right_cols)
        if key is not None:
            join.left_keys += (key[0],)
            join.right_keys += (key[1],)
            continue
        if join.kind == "inner":
            cols = expression_columns(conjunct)
            if cols <= left_cols:
                join.left = _sink(join.left, conjunct)
                continue
            if cols <= right_cols:
                join.right = _sink(join.right, conjunct)
                continue
            keep.append(conjunct)
            continue
        raise NotImplementedError(
            "LEFT JOIN ON supports only equi-join conjuncts; got "
            f"{conjunct.sql()!r}"
        )
    join.residual = _and_join(keep)


def _push_predicates(node: LogicalNode) -> LogicalNode:
    # Children first, so ON-extractions see fully-pushed subtrees.
    if isinstance(node, Join):
        node.left = _push_predicates(node.left)
        node.right = _push_predicates(node.right)
        _extract_on_keys(node)
        return node
    if isinstance(node, Filter) and not node.having:
        node.child = _push_predicates(node.child)
        result: LogicalNode = node.child
        for conjunct in split_conjuncts(node.predicate):
            cols = expression_columns(conjunct)
            if cols <= set(result.output_columns()) and not isinstance(
                result, (Aggregate, Project, Dual)
            ):
                result = _sink(result, conjunct)
            else:
                result = Filter(result, conjunct)
        return result
    for attribute in ("child",):
        child = getattr(node, attribute, None)
        if child is not None:
            setattr(node, attribute, _push_predicates(child))
    return node


# ---------------------------------------------------------------------------
# Cardinality estimates (read while lowering, at the query's snapshot)
# ---------------------------------------------------------------------------

#: Textbook selectivity guesses per predicate shape.
_SEL_EQ = 0.1
_SEL_BETWEEN = 0.25
_SEL_RANGE = 0.3
_SEL_DEFAULT = 0.5


def _selectivity(expr: ast.Expr) -> float:
    if isinstance(expr, ast.Binary):
        op = expr.op.upper()
        if op == "AND":
            return _selectivity(expr.left) * _selectivity(expr.right)
        if op == "OR":
            return min(
                1.0, _selectivity(expr.left) + _selectivity(expr.right)
            )
        if op == "=":
            return _SEL_EQ
        if op in ("<", "<=", ">", ">="):
            return _SEL_RANGE
        if op == "<>":
            return 1.0 - _SEL_EQ
    if isinstance(expr, ast.Between):
        return _SEL_BETWEEN
    if isinstance(expr, ast.Unary) and expr.op.upper() == "NOT":
        return 1.0 - _selectivity(expr.operand)
    return _SEL_DEFAULT


def estimate_rows(node: LogicalNode, snapshot: int | None = None) -> int:
    """Crude cardinality estimate at ``snapshot`` (``None``: every row
    version) — textbook selectivity guesses over
    :meth:`~repro.engine.table.Table.rows_at`, used to order join
    inputs and to bound group counts."""
    if isinstance(node, Scan):
        rows = float(max(node.table.rows_at(snapshot), 1))
        if node.predicate is not None:
            rows *= _selectivity(node.predicate)
        return max(1, int(rows))
    if isinstance(node, Dual):
        return 1
    if isinstance(node, Filter):
        rows = estimate_rows(node.child, snapshot)
        return max(1, int(rows * _selectivity(node.predicate)))
    if isinstance(node, Join):
        left = estimate_rows(node.left, snapshot)
        right = estimate_rows(node.right, snapshot)
        # FK-join assumption: output about as large as the bigger input.
        return max(left, right)
    if isinstance(node, Aggregate):
        return max(1, estimate_rows(node.child, snapshot) // 10)
    if isinstance(node, Limit):
        return min(node.count, estimate_rows(node.child, snapshot))
    children = node.children()
    return estimate_rows(children[0], snapshot) if children else 1


# ---------------------------------------------------------------------------
# Pass 3: projection pushdown
# ---------------------------------------------------------------------------


def _push_projections(node: LogicalNode, needed: set[str] | None) -> None:
    """Restrict every Scan to the columns consumed above it.

    ``needed = None`` means "everything" (an unknown consumer).
    """
    if isinstance(node, Scan):
        if needed is None:
            node.projected = None
            return
        wanted = set(needed)
        if node.predicate is not None:
            wanted |= expression_columns(node.predicate)
        node.projected = tuple(
            key for key in node.columns if key in wanted
        )
        return
    if isinstance(node, Dual):
        return
    if isinstance(node, Project):
        cols: set[str] = set()
        for item in node.items:
            if isinstance(item.expr, ast.Star):
                _push_projections(node.child, None)
                return
            cols |= expression_columns(item.expr)
        _push_projections(node.child, cols)
        return
    if isinstance(node, Aggregate):
        cols = set()
        for expr in node.group_exprs:
            cols |= expression_columns(expr)
        for call in node.aggregates:
            cols |= expression_columns(call)
        _push_projections(node.child, cols)
        return
    if isinstance(node, Filter):
        if node.having:
            # HAVING references outputs of the child Aggregate, not scan
            # columns; pass the requirement straight through.
            _push_projections(node.child, needed)
            return
        below = None if needed is None else (
            set(needed) | expression_columns(node.predicate)
        )
        _push_projections(node.child, below)
        return
    if isinstance(node, Join):
        extra: set[str] = set()
        for expr in node.left_keys + node.right_keys:
            extra |= expression_columns(expr)
        if node.residual is not None:
            extra |= expression_columns(node.residual)
        if needed is None:
            _push_projections(node.left, None)
            _push_projections(node.right, None)
            return
        wanted = set(needed) | extra
        left_cols = set(node.left.output_columns())
        right_cols = set(node.right.output_columns())
        _push_projections(node.left, wanted & left_cols)
        _push_projections(node.right, wanted & right_cols)
        return
    # Sort / Limit: Sort keys are resolved against the output env, so
    # only pass the requirement through.
    for child in node.children():
        _push_projections(child, needed)
