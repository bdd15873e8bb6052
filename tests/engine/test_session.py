"""End-to-end SQL session tests."""

import datetime
import math

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.expr import ExprError
from repro.engine.operators import SumConfig


@pytest.fixture
def db():
    database = Database(sum_mode="ieee")
    database.execute("CREATE TABLE t (k INT, name VARCHAR(10), v DOUBLE)")
    database.execute(
        "INSERT INTO t VALUES (1,'a',1.5),(2,'b',2.5),(1,'a',0.5),"
        "(2,'b',-1.0),(3,'c',9.0)"
    )
    return database


class TestDDLDML:
    def test_create_insert_counts(self):
        db = Database()
        assert db.execute("CREATE TABLE r (x INT)") == 0
        assert db.execute("INSERT INTO r VALUES (1), (2), (3)") == 3

    def test_duplicate_create_rejected(self, db):
        with pytest.raises(ValueError):
            db.execute("CREATE TABLE t (x INT)")

    def test_drop(self, db):
        db.execute("DROP TABLE t")
        with pytest.raises(KeyError):
            db.execute("SELECT * FROM t")
        db.execute("DROP TABLE IF EXISTS t")  # no error

    def test_insert_with_columns_reordered(self):
        db = Database()
        db.execute("CREATE TABLE r (a INT, b DOUBLE)")
        db.execute("INSERT INTO r (b, a) VALUES (0.5, 7)")
        assert db.execute("SELECT a, b FROM r").rows() == [(7, 0.5)]

    def test_update_returns_count(self, db):
        assert db.execute("UPDATE t SET v = v + 1 WHERE k = 1") == 2

    def test_update_physically_reorders(self, db):
        db.execute("UPDATE t SET k = k WHERE k = 2")
        ks = db.execute("SELECT k FROM t").column("k").tolist()
        assert ks == [1, 1, 3, 2, 2]  # updated rows moved to the tail

    def test_delete(self, db):
        assert db.execute("DELETE FROM t WHERE v < 0") == 1
        assert len(db.execute("SELECT * FROM t")) == 4

    def test_delete_all(self, db):
        assert db.execute("DELETE FROM t") == 5


class TestQueries:
    def test_projection_and_filter(self, db):
        res = db.execute("SELECT k, v * 2 AS d FROM t WHERE v > 0 ORDER BY d")
        assert res.names == ["k", "d"]
        assert res.rows() == [(1, 1.0), (1, 3.0), (2, 5.0), (3, 18.0)]

    def test_select_star(self, db):
        res = db.execute("SELECT * FROM t")
        assert res.names == ["k", "name", "v"]
        assert len(res) == 5

    def test_group_by_aggregates(self, db):
        res = db.execute(
            "SELECT k, SUM(v) AS s, COUNT(*) AS c, AVG(v) AS a, "
            "MIN(v), MAX(v) FROM t GROUP BY k ORDER BY k"
        )
        assert res.rows() == [
            (1, 2.0, 2, 1.0, 0.5, 1.5),
            (2, 1.5, 2, 0.75, -1.0, 2.5),
            (3, 9.0, 1, 9.0, 9.0, 9.0),
        ]

    def test_group_by_string_key(self, db):
        res = db.execute("SELECT name, COUNT(*) FROM t GROUP BY name ORDER BY name")
        assert res.rows() == [("a", 2), ("b", 2), ("c", 1)]

    def test_multi_key_group_by(self, db):
        res = db.execute(
            "SELECT k, name, SUM(v) FROM t GROUP BY k, name ORDER BY k, name"
        )
        assert len(res) == 3

    def test_having(self, db):
        res = db.execute(
            "SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING SUM(v) > 1.6 ORDER BY k"
        )
        assert [r[0] for r in res.rows()] == [1, 3]

    def test_having_misclassification_scenario(self):
        """The paper's HAVING SUM(f) >= 1 example: whether a group
        appears depends on rounding, hence on physical order — unless
        the SUM is reproducible."""
        for mode, expect_change in (("ieee", True), ("repro", False)):
            db = Database(sum_mode=mode)
            db.execute("CREATE TABLE r (i INT, f DOUBLE)")
            db.execute("INSERT INTO r VALUES (1, 2.5e-16)")
            db.execute("INSERT INTO r VALUES (2, 0.999999999999999)")
            db.execute("INSERT INTO r VALUES (3, 2.5e-16)")
            sql = "SELECT COUNT(*) FROM r GROUP BY i HAVING SUM(f) >= 0"
            db.execute(sql)  # smoke: HAVING over aggregates works
            before = db.execute("SELECT SUM(f) FROM r").scalar()
            db.execute("UPDATE r SET i = i + 1 WHERE i = 2")
            after = db.execute("SELECT SUM(f) FROM r").scalar()
            assert (before != after) == expect_change, mode

    def test_aggregate_expression_output(self, db):
        res = db.execute("SELECT SUM(v) / COUNT(*) AS mean FROM t")
        assert res.rows() == [(2.5,)]

    def test_aggregate_no_group_by(self, db):
        assert db.execute("SELECT SUM(v) FROM t").scalar() == 12.5

    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 5

    def test_order_by_desc_string(self, db):
        res = db.execute("SELECT name, SUM(v) FROM t GROUP BY name ORDER BY name DESC")
        assert [r[0] for r in res.rows()] == ["c", "b", "a"]

    def test_limit(self, db):
        res = db.execute("SELECT v FROM t ORDER BY v LIMIT 2")
        assert res.rows() == [(-1.0,), (0.5,)]

    def test_select_without_from(self):
        db = Database()
        assert db.execute("SELECT 1 + 2 AS x").scalar() == 3

    def test_between(self, db):
        res = db.execute("SELECT COUNT(*) FROM t WHERE v BETWEEN 0 AND 2")
        assert res.scalar() == 2

    def test_scalar_on_multirow_raises(self, db):
        with pytest.raises(ValueError):
            db.execute("SELECT k FROM t").scalar()

    def test_unknown_column(self, db):
        with pytest.raises(ExprError):
            db.execute("SELECT nope FROM t")

    def test_aggregate_outside_group_context(self, db):
        with pytest.raises(ExprError):
            db.execute("SELECT v FROM t WHERE SUM(v) > 1")


class TestDateHandling:
    def test_date_filter_with_interval(self):
        db = Database()
        db.execute("CREATE TABLE d (dt DATE, x DOUBLE)")
        db.execute("INSERT INTO d VALUES ('1998-09-01', 1.0), ('1998-12-01', 2.0)")
        res = db.execute(
            "SELECT SUM(x) FROM d WHERE dt <= DATE '1998-12-01' - INTERVAL '90' DAY"
        )
        assert res.scalar() == 1.0

    def test_date_output_type(self):
        db = Database()
        db.execute("CREATE TABLE d (dt DATE)")
        db.execute("INSERT INTO d VALUES ('2020-02-29')")
        assert db.execute("SELECT dt FROM d").rows() == [
            (datetime.date(2020, 2, 29),)
        ]


class TestSumModes:
    def test_all_modes_agree_on_exact_sums(self):
        for mode in SumConfig.MODES:
            db = Database(sum_mode=mode)
            db.execute("CREATE TABLE r (k INT, v DOUBLE)")
            db.execute("INSERT INTO r VALUES (1, 0.5), (1, 0.25), (2, 4.0)")
            res = db.execute("SELECT k, SUM(v) FROM r GROUP BY k ORDER BY k")
            assert res.rows() == [(1, 0.75), (2, 4.0)], mode

    def test_rsum_function_levels(self):
        db = Database(sum_mode="ieee")
        db.execute("CREATE TABLE r (v DOUBLE)")
        db.execute("INSERT INTO r VALUES (1.0), (2.5e-16), (-1.0)")
        # L=4 spans 160 bits below the ladder top: the cancelled tiny
        # value is recovered *exactly*, unlike the IEEE sum (which
        # returns 2.22e-16 here) — the paper's "higher accuracy than
        # IEEE numbers at essentially the same price".
        assert db.execute("SELECT RSUM(v, 4) FROM r").scalar() == 2.5e-16
        assert db.execute("SELECT SUM(v) FROM r").scalar() != 2.5e-16

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            Database(sum_mode="fast")

    @pytest.mark.parametrize("levels", (2, 3))
    def test_repro_mode_reproducible(self, levels):
        """Loaded in another row order, the table sums to the same bits."""
        rng = np.random.default_rng(3)
        values = (rng.uniform(1e14, 1e15, size=500)
                  * rng.choice([-1.0, 1.0], size=500))
        sums = []
        for order in (np.arange(500), rng.permutation(500)):
            db = Database(sum_mode="repro", levels=levels)
            db.execute("CREATE TABLE r (k INT, v DOUBLE)")
            db.table("r").bulk_load(
                {"k": np.zeros(500, dtype=np.int64), "v": values[order]}
            )
            sums.append(db.execute("SELECT SUM(v) FROM r").scalar())
        assert sums[0] == sums[1]

    def test_session_levels_deepen_sum(self):
        """The session's ``levels`` is the ladder depth of a plain SUM:
        at four levels it recovers the cancelled tiny value exactly, as
        ``RSUM(v, 4)`` does."""
        db = Database(sum_mode="repro", levels=4)
        db.execute("CREATE TABLE r (v DOUBLE)")
        db.execute("INSERT INTO r VALUES (1.0), (2.5e-16), (-1.0)")
        assert db.execute("SELECT SUM(v) FROM r").scalar() == 2.5e-16
        assert db.execute("SELECT AVG(v) FROM r").scalar() == 2.5e-16 / 3
