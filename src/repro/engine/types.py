"""SQL type system for the mini column-store engine.

Only what the paper's workloads need: integers, floats/doubles,
DECIMAL(p,s), fixed/variable strings, dates, and booleans.  Each SQL
type knows its NumPy storage dtype and how to coerce Python literals.

Dates are stored as int32 proleptic-Gregorian ordinals (days), which
makes date comparison and DATE - INTERVAL arithmetic plain integer
math — the same trick real column stores use.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..fp.decimal_fixed import DecimalType

__all__ = [
    "SqlType",
    "IntType",
    "FloatType",
    "DecimalSqlType",
    "VarcharType",
    "DateType",
    "BooleanType",
    "INT",
    "BIGINT",
    "FLOAT",
    "DOUBLE",
    "DATE",
    "BOOLEAN",
    "parse_date",
    "type_from_name",
]


def _fit_int(value, bits: int, type_name: str) -> int:
    """``int(value)``, refused when a ``bits``-wide column cannot hold
    it (stored unchecked it would poison every later read)."""
    try:
        value = int(value)
    except OverflowError as exc:  # int(inf)
        raise DataError(f"{value!r} out of range for {type_name}") from exc
    if not -(1 << (bits - 1)) <= value < 1 << (bits - 1):
        raise DataError(f"{value} out of range for {type_name}")
    return value


def _plain_numbers(values) -> np.ndarray | None:
    """``values`` as one array when they are plain numbers of one kind —
    a numeric array, or a list of nothing but Python ints (and bools)
    or nothing but floats — else ``None``: the per-value path decides."""
    if isinstance(values, np.ndarray):
        return values if values.dtype.kind in "biuf" else None
    kinds = set(map(type, values))
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds and kinds <= {int, bool}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:  # past 64 bits
            return None
    return None


class SqlType:
    """Base class for SQL column types."""

    name: str = "?"
    numpy_dtype: np.dtype = np.dtype(object)

    def coerce(self, value):
        """Convert a Python literal into the storage representation."""
        raise NotImplementedError

    def coerce_column(self, values) -> np.ndarray:
        """A whole column — a list of Python literals, or an array of
        values — as one storage array: :meth:`coerce` of every value.
        The numeric types override it with the same conversion done
        once per column and come back here for whatever that cannot
        take, so this loop is also what names a refused value."""
        if isinstance(values, np.ndarray):
            values = values.tolist()
        coerce = self.coerce
        return np.array([coerce(v) for v in values], dtype=self.numpy_dtype)

    def to_python(self, stored):
        """Convert a stored value back to a natural Python value."""
        return stored

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(sorted(self.__dict__.items()))))


def _cast_column(sql_type: SqlType, values) -> np.ndarray:
    """``coerce_column`` of the types whose ``coerce`` is what a NumPy
    cast does (``float(value)``, ``bool(value)``): plain numbers are
    cast as one array."""
    numbers = _plain_numbers(values)
    if numbers is None:
        return SqlType.coerce_column(sql_type, values)
    return numbers.astype(sql_type.numpy_dtype, copy=False)


@dataclass(frozen=True, eq=False)
class IntType(SqlType):
    bits: int = 32

    def __post_init__(self):
        if self.bits not in (8, 16, 32, 64):
            raise ValueError("integer width must be 8/16/32/64")

    @property
    def name(self) -> str:
        return {8: "TINYINT", 16: "SMALLINT", 32: "INT", 64: "BIGINT"}[self.bits]

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(f"int{self.bits}")

    def coerce(self, value):
        if value is None:
            raise ValueError("NULLs are not supported")
        return _fit_int(value, self.bits, self.name)

    def coerce_column(self, values) -> np.ndarray:
        numbers = _plain_numbers(values)
        if numbers is not None and numbers.size:
            if numbers.dtype.kind == "f":
                numbers = np.trunc(numbers)  # int(value)
            bound = 1 << (self.bits - 1)
            # NaN fails both comparisons
            if -bound <= numbers.min().item() and numbers.max().item() < bound:
                return numbers.astype(self.numpy_dtype, copy=False)
        return super().coerce_column(values)


@dataclass(frozen=True, eq=False)
class FloatType(SqlType):
    double: bool = True

    @property
    def name(self) -> str:
        return "DOUBLE" if self.double else "FLOAT"

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.double else np.float32)

    def coerce(self, value):
        return float(value)

    coerce_column = _cast_column


@dataclass(frozen=True, eq=False)
class DecimalSqlType(SqlType):
    precision: int = 18
    scale: int = 2

    @property
    def decimal(self) -> DecimalType:
        return DecimalType(self.precision, self.scale)

    @property
    def name(self) -> str:
        return f"DECIMAL({self.precision},{self.scale})"

    @property
    def numpy_dtype(self) -> np.dtype:
        # Stored unscaled; the engine tracks the scale in the schema.
        return np.dtype(np.int64 if self.precision <= 18 else object)

    def coerce(self, value):
        try:
            return self.decimal.unscaled_from_real(value)
        except OverflowError as exc:  # past the storage width, or inf
            raise DataError(str(exc)) from exc

    def to_python(self, stored):
        return float(stored) / 10**self.scale


@dataclass(frozen=True, eq=False)
class VarcharType(SqlType):
    length: int = 255

    @property
    def name(self) -> str:
        return f"VARCHAR({self.length})"

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(object)

    def coerce(self, value):
        if value is None:  # NULL: a LEFT JOIN's fill, kept as such
            return None
        s = str(value)
        if len(s) > self.length:
            raise DataError(f"string too long for {self.name}: {s!r}")
        return s


@dataclass(frozen=True, eq=False)
class DateType(SqlType):
    name = "DATE"
    numpy_dtype = np.dtype(np.int32)

    def coerce(self, value):
        if isinstance(value, datetime.date):
            return value.toordinal()
        if isinstance(value, str):
            return parse_date(value)
        return _fit_int(value, 32, self.name)

    def to_python(self, stored):
        return datetime.date.fromordinal(int(stored))


@dataclass(frozen=True, eq=False)
class BooleanType(SqlType):
    name = "BOOLEAN"
    numpy_dtype = np.dtype(bool)

    def coerce(self, value):
        return bool(value)

    coerce_column = _cast_column


INT = IntType(32)
BIGINT = IntType(64)
FLOAT = FloatType(double=False)
DOUBLE = FloatType(double=True)
DATE = DateType()
BOOLEAN = BooleanType()


def parse_date(text: str) -> int:
    """'YYYY-MM-DD' -> ordinal day number."""
    year, month, day = (int(part) for part in text.strip().split("-"))
    return datetime.date(year, month, day).toordinal()


def type_from_name(name: str, args: tuple = ()) -> SqlType:
    """Resolve a SQL type name (as parsed) to a :class:`SqlType`."""
    upper = name.upper()
    if upper in ("INT", "INTEGER"):
        return INT
    if upper == "SMALLINT":
        return IntType(16)
    if upper == "TINYINT":
        return IntType(8)
    if upper == "BIGINT":
        return BIGINT
    if upper in ("FLOAT", "REAL"):
        return FLOAT
    if upper in ("DOUBLE", "DOUBLE PRECISION"):
        return DOUBLE
    if upper in ("DECIMAL", "NUMERIC"):
        precision = args[0] if args else 18
        scale = args[1] if len(args) > 1 else 0
        return DecimalSqlType(precision, scale)
    if upper in ("VARCHAR", "CHAR", "TEXT"):
        return VarcharType(args[0] if args else 255)
    if upper == "DATE":
        return DATE
    if upper in ("BOOLEAN", "BOOL"):
        return BOOLEAN
    raise ValueError(f"unknown SQL type {name!r}")
