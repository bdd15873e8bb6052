"""Columnar expression evaluation.

Expressions evaluate over a *batch* — a mapping from column name to
NumPy array — and return an array (or scalar, which the operators
broadcast).  An optional *aggregate environment* maps the canonical SQL
text of aggregate calls (``SUM((a * b))``) to their per-group result
arrays, which is how HAVING clauses and select items over aggregates
are evaluated after grouping.

DECIMAL columns are stored unscaled; the evaluator rescales them to
float64 when they enter arithmetic, while ``SUM`` over a *bare* DECIMAL
column is handled exactly by the group-by operator (integer adds).
"""

from __future__ import annotations

import numpy as np

from .sql import ast
from ..errors import BindError as WireBindError
from .types import DecimalSqlType, SqlType, parse_date

__all__ = [
    "evaluate",
    "ExprCache",
    "ExprError",
    "expression_columns",
    "find_aggregates",
]


class ExprError(WireBindError):
    """Evaluation or binding error.

    Derives from the wire-level :class:`repro.errors.BindError`, so the
    serving layer serializes expression failures as typed bind errors
    (and still from ``ValueError``, which callers historically caught).
    """


def evaluate(
    expr: ast.Expr,
    batch: dict,
    types: dict[str, SqlType] | None = None,
    agg_env: dict[str, np.ndarray] | None = None,
):
    """Evaluate ``expr`` over ``batch``; see module docstring."""
    if agg_env is not None:
        key = expr.sql()
        if key in agg_env:
            return agg_env[key]
    return _apply(
        expr, batch, types, lambda e: evaluate(e, batch, types, agg_env)
    )


def _apply(expr: ast.Expr, batch, types, operand):
    """THE node dispatch: one operator applied to operands obtained
    through ``operand(sub_expression)`` — plain recursion for
    :func:`evaluate`, the memo for :class:`ExprCache`."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.DateLiteral):
        return parse_date(expr.text)
    if isinstance(expr, ast.IntervalLiteral):
        if expr.unit != "DAY":
            raise ExprError("only DAY intervals are supported in arithmetic")
        return expr.amount
    if isinstance(expr, ast.ColumnRef):
        name = expr.name.lower()
        if name not in batch:
            raise ExprError(f"unknown column {expr.sql()!r}")
        arr = batch[name]
        if types is not None and isinstance(types.get(name), DecimalSqlType):
            scale = types[name].scale
            return arr.astype(np.float64) / 10.0**scale
        return arr
    if isinstance(expr, ast.Unary):
        return apply_unary(expr.op, operand(expr.operand))
    if isinstance(expr, ast.Between):
        return apply_between(
            operand(expr.operand), operand(expr.low), operand(expr.high)
        )
    if isinstance(expr, ast.Binary):
        return apply_binary(expr.op, operand(expr.left), operand(expr.right))
    if isinstance(expr, ast.FuncCall):
        if expr.is_aggregate:
            raise ExprError(
                f"aggregate {expr.name} outside GROUP BY context: {expr.sql()}"
            )
        if expr.distinct:
            raise ExprError(
                f"DISTINCT is not valid in a scalar call: {expr.sql()}"
            )
        func = SCALAR_FUNCTIONS.get(expr.name)
        if func is not None:
            return func(operand(expr.args[0]))
        raise ExprError(f"unknown function {expr.name!r}")
    if isinstance(expr, ast.Star):
        raise ExprError("'*' is only valid inside COUNT(*)")
    raise ExprError(f"cannot evaluate {expr!r}")


#: Non-aggregate SQL functions, shared by cached and uncached evaluation.
SCALAR_FUNCTIONS = {"ABS": np.abs}


def apply_unary(op: str, operand):
    """One unary operator over whole-morsel operands."""
    if op.upper() == "NOT":
        return np.logical_not(operand)
    return np.negative(operand)


def apply_between(operand, low, high):
    """SQL BETWEEN over whole-morsel operands (bounds inclusive)."""
    return np.logical_and(operand >= low, operand <= high)


def apply_binary(op: str, left, right):
    """One binary operator over whole-morsel operands."""
    op = op.upper()
    if op == "AND":
        return np.logical_and(left, right)
    if op == "OR":
        return np.logical_or(left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return np.divide(left, right)
    if op == "=":
        return _compare(left, right, "eq")
    if op == "<>":
        return _compare(left, right, "ne")
    if op == "<":
        return _compare(left, right, "lt")
    if op == "<=":
        return _compare(left, right, "le")
    if op == ">":
        return _compare(left, right, "gt")
    if op == ">=":
        return _compare(left, right, "ge")
    raise ExprError(f"unknown operator {op!r}")


def _compare(left, right, op: str):
    ops = {
        "eq": np.equal, "ne": np.not_equal,
        "lt": np.less, "le": np.less_equal,
        "gt": np.greater, "ge": np.greater_equal,
    }
    # Object (string) arrays compare element-wise with Python semantics.
    return ops[op](left, right)


class ExprCache:
    """Memoized whole-morsel expression evaluator.

    One instance lives for one morsel: sub-expressions are keyed by
    their canonical SQL text, so common sub-expressions — the same
    column referenced by several aggregates, or the shared
    ``l_extendedprice * (1 - l_discount)`` prefix of TPC-H Q1's
    ``sum_disc_price`` / ``sum_charge`` — are computed once.  It is a
    memoizing front of :func:`evaluate`'s own node dispatch
    (:func:`_apply`), so every cached array is bit-identical to an
    uncached evaluation.
    """

    def __init__(self, columns: dict, types: dict[str, SqlType] | None = None):
        self.columns = columns
        self.types = types
        self._memo: dict[str, object] = {}
        self._broadcast: dict[str, np.ndarray] = {}

    def eval(self, expr: ast.Expr):
        """Evaluate with sub-expression memoization (array or scalar)."""
        key = expr.sql()
        if key not in self._memo:
            self._memo[key] = _apply(expr, self.columns, self.types, self.eval)
        return self._memo[key]

    def values(self, expr: ast.Expr, nrows: int) -> np.ndarray:
        """Evaluate and broadcast to one array per row (cached)."""
        key = expr.sql()
        arr = self._broadcast.get(key)
        if arr is None:
            value = self.eval(expr)
            arr = np.asarray(value)
            if arr.shape == ():
                arr = np.full(nrows, value)
            self._broadcast[key] = arr
        return arr


def expression_columns(expr: ast.Expr) -> set[str]:
    """All column names referenced by an expression."""
    cols: set[str] = set()

    def walk(e: ast.Expr) -> None:
        if isinstance(e, ast.ColumnRef):
            cols.add(e.name.lower())
        elif isinstance(e, ast.Unary):
            walk(e.operand)
        elif isinstance(e, ast.Binary):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, ast.Between):
            walk(e.operand)
            walk(e.low)
            walk(e.high)
        elif isinstance(e, ast.FuncCall):
            for arg in e.args:
                walk(arg)

    walk(expr)
    return cols


def find_aggregates(expr: ast.Expr) -> list[ast.FuncCall]:
    """All aggregate calls inside an expression (outermost first)."""
    found: list[ast.FuncCall] = []

    def walk(e: ast.Expr) -> None:
        if isinstance(e, ast.FuncCall) and e.is_aggregate:
            found.append(e)
            return  # nested aggregates are invalid; don't descend
        if isinstance(e, ast.Unary):
            walk(e.operand)
        elif isinstance(e, ast.Binary):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, ast.Between):
            walk(e.operand)
            walk(e.low)
            walk(e.high)
        elif isinstance(e, ast.FuncCall):
            for arg in e.args:
                walk(arg)

    walk(expr)
    return found
