"""A statement that fails stores nothing — through every door.

Two bugs reproduced at the commit before the array-backed table:

* a multi-row INSERT that failed on a later value left *torn rows* (the
  columns before the failing one had already taken the row, so every
  later row was misaligned), and
* an integer past its column's width was acknowledged and then poisoned
  the table: every later statement raised ``OverflowError`` out of the
  scan.

Each scenario runs embedded, against a durable directory (which must
also reopen to the same state, with nothing of the failed statement in
the log) and through ``repro.connect``.
"""

from __future__ import annotations

import functools
import importlib.util
import pathlib

import pytest

import repro
from repro.errors import BindError, DataError, ReproError


@functools.lru_cache(maxsize=None)
def _server_thread_class():
    """``ServerThread`` of the serving suite (tests/server/test_server.py)."""
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "server" / "test_server.py"
    )
    spec = importlib.util.spec_from_file_location("_server_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ServerThread


class Door:
    """One way of reaching a database: ``execute`` goes through it,
    ``db`` is the in-process object behind it."""

    def __init__(self, kind, tmp_path):
        self.kind = kind
        self.path = None if kind == "embedded" else str(tmp_path)
        self.server = self.client = None
        self._open()

    def _open(self):
        self.db = repro.open(
            self.path, sum_mode="repro", checkpoint_interval=None
        )
        if self.kind == "served":
            self.server = _server_thread_class()(self.db)
            self.client = repro.connect(self.server.address)

    def execute(self, sql):
        return (self.client or self.db).execute(sql)

    def state(self):
        """Everything a failed statement must leave alone."""
        out = {}
        for name in self.db.catalog.names():
            table = self.db.table(name)
            physical = table.physical_state()
            out[name] = (
                physical["version"], table.physical_rows, len(table),
                {k: v.tolist() for k, v in physical["columns"].items()},
                physical["inserted"].tolist(), physical["deleted"].tolist(),
            )
        storage = self.db.catalog.storage
        out["<wal>"] = None if storage is None else storage.wal.tail_bytes()
        out["<clock>"] = self.db.catalog.clock.value
        return out

    def close(self):
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.stop()
        self.db.close()

    def reopen(self):
        """Close and come back (a no-op state-wise unless durable)."""
        if self.kind == "embedded":
            return
        self.close()
        self._open()


@pytest.fixture(params=["embedded", "durable", "served"])
def door(request, tmp_path):
    door = Door(request.param, tmp_path)
    yield door
    door.close()


def _fails_whole(door, sql, error=DataError, match=None):
    before = door.state()
    with pytest.raises(error, match=match) as info:
        door.execute(sql)
    # typed, and still a ValueError like its siblings in errors.py
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, ValueError)
    after = door.state()
    # a failed statement may burn a clock tick, nothing else
    before.pop("<clock>"), after.pop("<clock>")
    assert after == before


def test_failed_multi_row_insert_leaves_no_torn_rows(door):
    door.execute("CREATE TABLE t (k INT, name VARCHAR(3))")
    door.execute("INSERT INTO t VALUES (1, 'a')")
    _fails_whole(door, "INSERT INTO t VALUES (2, 'bb'), (3, 'toolong')")
    assert door.execute("SELECT COUNT(*) FROM t").scalar() == 1
    door.execute("INSERT INTO t VALUES (4, 'd')")
    query = "SELECT k, name FROM t ORDER BY k"
    assert door.execute(query).rows() == [(1, "a"), (4, "d")]
    door.reopen()
    assert door.execute(query).rows() == [(1, "a"), (4, "d")]


def test_failed_update_masks_nothing(door):
    door.execute("CREATE TABLE t (k INT, name VARCHAR(3))")
    door.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    _fails_whole(door, "UPDATE t SET name = 'toolong' WHERE k >= 2")
    _fails_whole(door, "UPDATE t SET k = 3000000000 WHERE k >= 2")
    door.execute("UPDATE t SET name = 'ok' WHERE k = 2")
    query = "SELECT k, name FROM t ORDER BY k"
    expected = [(1, "a"), (2, "ok"), (3, "c")]
    assert door.execute(query).rows() == expected
    door.reopen()
    assert door.execute(query).rows() == expected


@pytest.mark.parametrize("sql_type,bits", [
    ("TINYINT", 8), ("SMALLINT", 16), ("INT", 32), ("BIGINT", 64),
])
def test_out_of_range_integer_is_refused_not_stored(door, sql_type, bits):
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    door.execute(f"CREATE TABLE t (k {sql_type}, v DOUBLE)")
    door.execute(f"INSERT INTO t VALUES ({high}, 1.0), ({low}, 2.0)")
    _fails_whole(door, f"INSERT INTO t VALUES (0, 0.5), ({high + 1}, 2.0)")
    _fails_whole(door, f"INSERT INTO t VALUES ({low - 1}, 2.0)")
    # the table is not poisoned: reads and writes go on
    door.execute("INSERT INTO t VALUES (7, 4.0)")
    query = "SELECT k, v FROM t ORDER BY v"
    expected = [(high, 1.0), (low, 2.0), (7, 4.0)]
    assert door.execute(query).rows() == expected
    door.reopen()
    assert door.execute(query).rows() == expected


def test_issue_reproduction_int_column_takes_no_2_to_the_40(door):
    door.execute("CREATE TABLE t (k INT, v DOUBLE)")
    _fails_whole(door, "INSERT INTO t VALUES (1099511627776, 2.0)")
    assert door.execute("SELECT COUNT(*) FROM t").scalar() == 0
    assert door.execute("INSERT INTO t VALUES (1, 2.0)") == 1


def test_decimal_and_date_past_their_storage_are_refused(door):
    door.execute("CREATE TABLE t (d DECIMAL(18, 2), dt DATE)")
    door.execute("INSERT INTO t VALUES (12.5, '1998-09-02')")
    _fails_whole(door, "INSERT INTO t VALUES (100000000000000000.0, 5)")
    _fails_whole(door, "INSERT INTO t VALUES (1.0, 99999999999)")
    assert door.execute("SELECT COUNT(*) FROM t").scalar() == 1


# Reproduced at the commit before the columnar append: each of these
# raised a bare ``ValueError`` (wire code ``error``).  A row of bare
# literals reaches the table as columns straight from the scanner; a
# row holding an expression (``1 + 0``) goes through the grammar — both
# must fail the same way.

@pytest.mark.parametrize("one", ["1", "1 + 0"], ids=["literal", "grammar"])
def test_wrong_arity_is_a_bind_error_naming_the_row(door, one):
    door.execute("CREATE TABLE t (k INT, v DOUBLE, s VARCHAR(4))")
    door.execute("INSERT INTO t VALUES (0, 0.5, 'z')")
    _fails_whole(
        door, f"INSERT INTO t VALUES ({one}, 2.0)", BindError,
        "row 1 has 2 values for 3 target columns",
    )
    _fails_whole(
        door,
        f"INSERT INTO t VALUES ({one}, 2.0, 'a'), (2, 3.0, 'b'), (3, 4.0)",
        BindError, "row 3 has 2 values for 3 target columns",
    )
    _fails_whole(
        door, f"INSERT INTO t (v, k) VALUES (2.0, {one}), (1.0, 2, 'c', 4)",
        BindError, "row 2 has 4 values for 2 target columns",
    )
    assert door.execute("SELECT COUNT(*) FROM t").scalar() == 1
    door.reopen()
    assert door.execute("SELECT k, v, s FROM t").rows() == [(0, 0.5, "z")]


@pytest.mark.parametrize("one", ["1", "1 + 0"], ids=["literal", "grammar"])
def test_a_value_the_column_cannot_take_is_a_data_error_naming_it(door, one):
    door.execute("CREATE TABLE t (k INT, v DOUBLE, s VARCHAR(4))")
    door.execute("INSERT INTO t VALUES (0, 0.5, 'z')")
    _fails_whole(
        door, f"INSERT INTO t VALUES ({one}, 'x', 'a')", match="column 'v'"
    )
    _fails_whole(
        door, f"INSERT INTO t VALUES ({one}, 2.0, 'a'), (2, 3.0, 'toolong')",
        match="column 's'",
    )
    _fails_whole(
        door, f"INSERT INTO t VALUES ({one}, 2.0, 'a'), ('k', 3.0, 'b')",
        match="column 'k'",
    )
    _fails_whole(door, "UPDATE t SET k = 'k'", match="column 'k'")
    _fails_whole(door, "INSERT INTO t (k, nope, v, s) VALUES (1, 2, 3.0, 'a')",
                 BindError, "no column 'nope'")
    assert door.execute("SELECT COUNT(*) FROM t").scalar() == 1
    door.reopen()
    assert door.execute("SELECT k, v, s FROM t").rows() == [(0, 0.5, "z")]
