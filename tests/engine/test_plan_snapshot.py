"""Plans read row counts at the query's snapshot.

Lowering picks build sides (and the external and shard choices) from
:meth:`~repro.engine.table.Table.rows_at` the snapshot, never from the
latest version: a ``Session.snapshot()`` block keeps its plan — and in
IEEE mode its bits — while other sessions write.  ``rows_at`` is one
binary search over the insert versions, so they must stay
non-decreasing in physical order through every way rows arrive.
"""

from __future__ import annotations

import numpy as np

from repro.engine import Database

JOIN = (
    "SELECT bk, SUM(v * w) AS s, COUNT(*) AS c FROM big, small "
    "WHERE bk = sk GROUP BY bk"
)


def _bits(result) -> tuple:
    return tuple(np.asarray(arr).tobytes() for arr in result.arrays)


def _physical(text: str) -> str:
    return text.split("== physical plan ==")[1]


def test_snapshot_block_keeps_its_plan_and_bits():
    db = Database()
    db.execute("CREATE TABLE big (bk INT, v DOUBLE)")
    db.execute("CREATE TABLE small (sk INT, w DOUBLE)")
    db.execute("INSERT INTO big VALUES " + ", ".join(
        f"({i % 5}, {v!r})"
        for i, v in enumerate([1e16, 1.0, -1e16, 0.1, 3.5] * 8)
    ))
    db.execute("INSERT INTO small VALUES (0, 1.0), (1, 0.5), (2, 3.0)")
    reader = db.session(sum_mode="ieee")
    writer = db.session(sum_mode="ieee")
    with reader.snapshot():
        plan = reader.explain(JOIN)
        assert "build=right, ~3 build rows" in plan
        bits = _bits(reader.execute(JOIN))
        # enough rows into the smaller input that, at the latest
        # version, it is the larger one
        writer.execute("INSERT INTO small VALUES " + ", ".join(
            f"({i % 7}, 0.25)" for i in range(60)
        ))
        assert "build=left" in _physical(writer.explain(JOIN))
        assert reader.explain(JOIN) == plan
        assert _bits(reader.execute(JOIN)) == bits
        assert reader.last_pipeline_stats.plan_cache_hit
    # out of the block the reader lowers the same cached plan at the
    # latest version
    assert reader.explain(JOIN) != plan
    reader.execute(JOIN)
    assert reader.last_pipeline_stats.plan_cache_hit


def test_rows_at_counts_versions_up_to_the_snapshot():
    db = Database()
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    table = db.table("t")
    snapshots = [db.clock.stable]
    for statement in (
        "INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)",
        "INSERT INTO t VALUES (4, 4.0), (5, 5.0)",
        "DELETE FROM t WHERE k = 2",
        "UPDATE t SET v = 0.5 WHERE k = 4",
        "INSERT INTO t VALUES (6, 6.0)",
    ):
        db.execute(statement)
        snapshots.append(db.clock.stable)
    # a masked version still counts: DELETE adds none, UPDATE one
    assert [table.rows_at(s) for s in snapshots] == [0, 3, 5, 5, 6, 7]
    inserted = table.physical_state()["inserted"]
    for snapshot in range(snapshots[-1] + 2):
        assert table.rows_at(snapshot) == np.count_nonzero(
            inserted <= snapshot
        )
    assert table.rows_at() == table.physical_rows == 7
    assert len(table) == 5


def _non_decreasing(table) -> bool:
    return bool(np.all(np.diff(table.physical_state()["inserted"]) >= 0))


def test_insert_versions_stay_non_decreasing(tmp_path):
    path = str(tmp_path / "dir")
    db = Database(path=path)
    try:
        db.execute("CREATE TABLE t (k INT, s VARCHAR(3), v DOUBLE)")
        db.execute("CREATE TABLE u (k INT)")
        for i in range(4):
            db.execute(f"INSERT INTO t VALUES ({i}, 'a{i}', {i}.5), "
                       f"({i + 10}, 'b', 1.0)")
            db.execute(f"INSERT INTO u VALUES ({i})")  # another table's
            db.execute(f"UPDATE t SET v = v * 2 WHERE k = {i}")
            if i == 1:
                db.checkpoint()
        assert _non_decreasing(db.table("t"))
        counts = [db.table("t").rows_at(s) for s in range(db.clock.stable + 1)]
    finally:
        db.close()
    reopened = Database(path=path)
    try:
        table = reopened.table("t")
        assert _non_decreasing(table)
        assert [table.rows_at(s) for s in range(len(counts))] == counts
        reopened.execute("UPDATE t SET v = 0.0 WHERE k = 10")
        reopened.execute("INSERT INTO t VALUES (99, 'z', 9.0)")
        assert _non_decreasing(table)
    finally:
        reopened.close()
