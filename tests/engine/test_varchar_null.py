"""VARCHAR NULL: a LEFT JOIN's fill stored through INSERT ... SELECT.

The engine has no NULL literal, but VARCHAR storage holds NULL: a LEFT
JOIN fills an unmatched row's string columns with ``None``, and
dictionaries sort it first.  Stored into a VARCHAR column it stays
``None`` — not the four-character string ``'None'``, which no
``VARCHAR(3)`` can hold and which ``WHERE s = 'None'`` would match —
through a checkpoint and through WAL replay alike.
"""

import pytest

import repro

COPY = "INSERT INTO c SELECT a.k, b.s FROM a LEFT JOIN b ON a.k = b.k"
GROUPS = "SELECT s, COUNT(*) AS n FROM c GROUP BY s ORDER BY s"


def _fill(db):
    db.execute("CREATE TABLE a (k INT)")
    db.execute("CREATE TABLE b (k INT, s VARCHAR(3))")
    db.execute("CREATE TABLE c (k INT, s VARCHAR(3))")
    db.execute("INSERT INTO a VALUES (1), (2), (3)")
    db.execute("INSERT INTO b VALUES (1, 'x'), (3, 'y')")
    assert db.execute(COPY) == 3


def _assert_nulls(db):
    assert db.execute("SELECT k, s FROM c ORDER BY k").rows() == [
        (1, "x"), (2, None), (3, "y"), (4, None)]
    assert db.execute(
        "SELECT COUNT(*) FROM c WHERE s = 'None'").scalar() == 0
    # NULL is one group, sorted first
    assert db.execute(GROUPS).rows() == [(None, 2), ("x", 1), ("y", 1)]


def test_left_join_fill_is_stored_as_null():
    with repro.open() as db:
        _fill(db)
        db.table("c").insert_rows([{"k": 4, "s": None}])
        _assert_nulls(db)


@pytest.mark.parametrize("close", ["checkpoint", "crash"])
def test_null_survives_reopen(tmp_path, close):
    """Through the checkpoint image, or replayed from the WAL alone."""
    path = str(tmp_path / "d")
    db = repro.open(path, checkpoint_interval=None)
    _fill(db)
    db.table("c").insert_rows([{"k": 4, "s": None}])
    if close == "checkpoint":
        db.checkpoint()
        db.close()
    else:
        db.simulate_crash()
    with repro.open(path, checkpoint_interval=None) as db:
        _assert_nulls(db)
        db.execute("INSERT INTO c VALUES (5, 'z')")
        assert db.execute(GROUPS).rows()[0] == (None, 2)
