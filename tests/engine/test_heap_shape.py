"""Heap-shape gate: no Python container grows with the row count.

A column that keeps a boxed value per row in a ``list`` (or a table
that keeps per-row versions in one) costs the cyclic collector a
traversal step per row on every gen-2 collection — 45 ms against 6 ms
on the TPC-H Q3 tables — and shows up as a served p90 several times the
median.  This test counts instead of timing: the total length of every
collector-tracked container reachable from a loaded ``Database`` must
be the same at N and at 4 N rows.
"""

from __future__ import annotations

import gc
import types

import numpy as np

from repro.engine import Database
from repro.engine.table import Schema, Table
from repro.engine.types import DOUBLE, INT, DecimalSqlType, VarcharType

_OPAQUE = (
    type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
    types.MethodType, types.CodeType, types.FrameType,
)


def _container_slots(root) -> int:
    """Total ``len`` of the list/dict/tuple/set objects reachable from
    ``root`` (not descending into classes, modules or code)."""
    seen = {id(root)}
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, dict, tuple, set, frozenset)):
            total += len(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _OPAQUE):
                seen.add(id(ref))
                stack.append(ref)
    return total


def _loaded(nrows: int) -> Database:
    rng = np.random.default_rng(5)
    db = Database(sum_mode="repro")
    db.execute(
        "CREATE TABLE t (k INT, v DOUBLE, name VARCHAR(8), "
        "price DECIMAL(12, 2), big DECIMAL(30, 2))"
    )
    db.execute(
        "CREATE MATERIALIZED VIEW by_k AS "
        "SELECT k, SUM(v) AS sv, COUNT(*) AS n FROM t GROUP BY k"
    )
    names = np.empty(nrows, dtype=object)
    names[:] = [f"n{j % 5}" for j in range(nrows)]
    big = np.empty(nrows, dtype=object)
    big[:] = [(1 << 70) + j for j in range(nrows)]
    db.table("t").bulk_load({
        "k": np.arange(nrows) % 8, "v": rng.normal(size=nrows),
        "name": names, "price": np.arange(nrows) * 25, "big": big,
    })
    # a pre-populated table joining the catalog, like the benchmark's
    attached = Table("u", Schema([
        ("k", INT), ("v", DOUBLE), ("s", VarcharType(4)),
        ("d", DecimalSqlType(9, 2)),
    ]))
    attached.bulk_load({
        "k": np.arange(nrows), "v": np.ones(nrows), "s": names,
        "d": np.arange(nrows),
    })
    db.catalog.add(attached)
    db.execute("INSERT INTO t VALUES (1, 0.5, 'x', 1.25, 7), "
               "(2, 1.5, 'y', 2.5, 8)")
    db.execute("UPDATE t SET v = v * 2.0 WHERE k = 3")
    db.execute("DELETE FROM t WHERE k = 5")
    db.execute("REFRESH MATERIALIZED VIEW by_k")
    db.execute("SELECT name, SUM(v), SUM(price) FROM t GROUP BY name")
    db.execute("SELECT k, SUM(v) AS sv, COUNT(*) AS n FROM t GROUP BY k")
    db.execute("SELECT COUNT(*) FROM u WHERE s = 'n1'")
    return db


def test_no_python_container_grows_with_the_row_count():
    small, large = _loaded(3000), _loaded(12000)
    try:
        assert large.table("t").physical_rows > 3 * small.table("t").physical_rows
        gc.collect()
        assert _container_slots(large) == _container_slots(small)
    finally:
        small.close()
        large.close()
