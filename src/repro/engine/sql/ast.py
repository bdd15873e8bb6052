"""Abstract syntax tree for the SQL subset.

Expressions render back to canonical text via ``sql()``, which the
binder uses to match SELECT items against GROUP BY expressions (the
usual textbook approach for a small engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Expr",
    "Literal",
    "ColumnRef",
    "Star",
    "Unary",
    "Binary",
    "Between",
    "FuncCall",
    "DateLiteral",
    "IntervalLiteral",
    "SelectItem",
    "OrderItem",
    "TableRef",
    "Join",
    "Select",
    "Explain",
    "CreateTable",
    "ColumnDef",
    "Insert",
    "LiteralRows",
    "Update",
    "Delete",
    "DropTable",
    "SetParam",
    "CreateMaterializedView",
    "RefreshMaterializedView",
    "DropMaterializedView",
]


class Expr:
    def sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expr):
    value: object

    def sql(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True)
class DateLiteral(Expr):
    text: str  # 'YYYY-MM-DD'

    def sql(self) -> str:
        return f"DATE '{self.text}'"


@dataclass(frozen=True)
class IntervalLiteral(Expr):
    amount: int
    unit: str  # DAY | MONTH | YEAR

    def sql(self) -> str:
        return f"INTERVAL '{self.amount}' {self.unit}"


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    table: str | None = None

    def sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    def sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # '-' | 'NOT'
    operand: Expr

    def sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand.sql()})"
        return f"{self.op}({self.operand.sql()})"


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # + - * / = <> < <= > >= AND OR
    left: Expr
    right: Expr

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr

    def sql(self) -> str:
        return f"({self.operand.sql()} BETWEEN {self.low.sql()} AND {self.high.sql()})"


@dataclass(frozen=True)
class FuncCall(Expr):
    name: str  # upper-cased
    args: tuple[Expr, ...]
    distinct: bool = False

    def sql(self) -> str:
        inner = ", ".join(arg.sql() for arg in self.args)
        if self.distinct:
            return f"{self.name}(DISTINCT {inner})"
        return f"{self.name}({inner})"

    AGGREGATE_NAMES = (
        "SUM", "RSUM", "COUNT", "AVG", "MIN", "MAX",
        # Paper §I footnote 2: "VARIANCE, STDDEV, and some statistical
        # functions, all of which can be computed using SUM".
        "VARIANCE", "VAR_SAMP", "VAR_POP", "STDDEV", "STDDEV_SAMP",
        "STDDEV_POP",
    )

    @property
    def is_aggregate(self) -> bool:
        return self.name in self.AGGREGATE_NAMES


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None

    def output_name(self, index: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return f"col{index}"

    def sql(self) -> str:
        text = self.expr.sql()
        return f"{text} AS {self.alias}" if self.alias else text


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False

    def sql(self) -> str:
        return f"{self.expr.sql()} DESC" if self.descending else self.expr.sql()


@dataclass(frozen=True)
class TableRef:
    """One base-table reference in a FROM clause."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this table is addressable by in the query scope."""
        return self.alias or self.name

    def sql(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class Join:
    """A join between two FROM items (left-deep nesting).

    ``kind`` is ``'inner'``, ``'left'`` or ``'cross'``; ``condition`` is
    the ON expression (``None`` for comma/cross joins, whose predicates
    arrive through WHERE and are recovered by the optimizer).
    """

    left: "TableRef | Join"
    right: TableRef
    kind: str = "inner"
    condition: Expr | None = None

    def sql(self) -> str:
        word = {"inner": "JOIN", "left": "LEFT JOIN", "cross": "CROSS JOIN"}
        text = f"{self.left.sql()} {word[self.kind]} {self.right.sql()}"
        if self.condition is not None:
            text += f" ON {self.condition.sql()}"
        return text


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    from_clause: "TableRef | Join | None"
    where: Expr | None = None
    group_by: tuple[Expr, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    #: SELECT DISTINCT — lowered by the binder into a zero-aggregate
    #: GROUP BY over the select list.
    distinct: bool = False

    @property
    def table(self) -> str | None:
        """Single-table FROM name (legacy accessor; ``None`` for joins)."""
        if isinstance(self.from_clause, TableRef):
            return self.from_clause.name
        return None

    def sql(self) -> str:
        """Reparsable SQL text of this SELECT.

        Round-trips through :func:`repro.engine.sql.parser.parse` to an
        equivalent tree — the durable catalog persists materialized-view
        definitions as this text and rebinds them at recovery.
        """
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.sql() for item in self.items))
        if self.from_clause is not None:
            parts.append("FROM " + self.from_clause.sql())
        if self.where is not None:
            parts.append("WHERE " + self.where.sql())
        if self.group_by:
            parts.append(
                "GROUP BY " + ", ".join(e.sql() for e in self.group_by)
            )
        if self.having is not None:
            parts.append("HAVING " + self.having.sql())
        if self.order_by:
            parts.append(
                "ORDER BY " + ", ".join(o.sql() for o in self.order_by)
            )
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class Explain:
    """EXPLAIN <select>: request the plan text instead of the rows."""

    query: Select


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    type_args: tuple[int, ...] = ()


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class LiteralRows:
    """A run of ``VALUES`` rows holding only bare literals, column-major:
    one list of Python values per position (the scanner builds it
    without a token, an expression or a :class:`Literal` per value)."""

    columns: tuple[list, ...]

    def __len__(self) -> int:
        return len(self.columns[0])


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]  # empty: schema order
    #: the VALUES list in statement order: each entry a
    #: :class:`LiteralRows` run or one row of expressions
    values: "tuple[LiteralRows | tuple[Expr, ...], ...]"
    #: INSERT INTO t SELECT ... (``values`` is empty when set)
    select: "Select | None" = None

    @property
    def rows(self) -> tuple[tuple[Expr, ...], ...]:
        """Every VALUES row as expressions — what the grammar alone
        would have built."""
        rows: list[tuple] = []
        for entry in self.values:
            if isinstance(entry, LiteralRows):
                rows.extend(
                    tuple(map(Literal, row)) for row in zip(*entry.columns)
                )
            else:
                rows.append(entry)
        return tuple(rows)


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Expr | None = None


@dataclass(frozen=True)
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class CreateMaterializedView:
    """``CREATE MATERIALIZED VIEW name AS <select>``."""

    name: str
    query: Select


@dataclass(frozen=True)
class RefreshMaterializedView:
    """``REFRESH MATERIALIZED VIEW name``."""

    name: str


@dataclass(frozen=True)
class DropMaterializedView:
    """``DROP MATERIALIZED VIEW [IF EXISTS] name``."""

    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class SetParam:
    """``SET <name> = <value>`` — session execution-knob pragma.

    ``value`` is a Python literal (int, float, str, bool, or None);
    validation happens in
    :meth:`repro.engine.pipeline.ExecutionContext.set_param`.
    """

    name: str
    value: object
