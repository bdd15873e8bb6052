"""Mutable tables + incrementally-maintained materialized views.

Covers:

* every view, whatever it aggregates, merges an insert-only delta into
  the kept group table and rebuilds it when the delta deletes a row;
* REFRESH after any INSERT/DELETE interleaving is byte-identical to
  recreating the view from scratch, across
  workers x morsel_size x memory_budget — also when the deleted rows
  raised a ladder, were NaN / inf / -0.0, or emptied a group, and for
  a VARCHAR key whose storage dictionary rides the refresh morsels;
* the view-matching rewrite serves fresh views (EXPLAIN ViewScan) and
  falls back to the base scan when stale;
* SELECT DISTINCT as a zero-aggregate GROUP BY;
* SET pragma error paths name the knob and list the valid ones.
"""

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.matview import ViewDefinitionError
from repro.engine.sql import parse
from repro.engine.sql import ast


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def result_bits(result):
    pieces = []
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype == object:
            pieces.append("|".join(map(repr, arr.tolist())))
        else:
            pieces.append(arr.tobytes())
    return tuple(result.names), tuple(pieces)


class TestRetiredNames:
    def test_retractable_ladder_names_the_rebuild(self):
        with pytest.raises(ImportError, match="rebuilds the view") as err:
            from repro.aggregation import (  # noqa: F401
                RetractableGroupedSummation,
            )
        assert "GroupedSummation merges" in str(err.value)

    def test_maintenance_table_names_its_successor(self):
        with pytest.raises(ImportError, match="VectorizedGroupTable") as err:
            from repro.engine import MaintenanceGroupTable  # noqa: F401
        assert "rebuilds it" in str(err.value)

    def test_unknown_engine_attribute_is_an_attribute_error(self):
        import repro.engine

        assert not hasattr(repro.engine, "no_such_name")


# ---------------------------------------------------------------------------
# SQL frontend
# ---------------------------------------------------------------------------


class TestViewSql:
    def test_parse_create_materialized_view(self):
        stmt = parse(
            "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(x) FROM t GROUP BY k"
        )
        assert isinstance(stmt, ast.CreateMaterializedView)
        assert stmt.name == "v"
        assert isinstance(stmt.query, ast.Select)

    def test_parse_refresh_and_drop(self):
        refresh = parse("REFRESH MATERIALIZED VIEW v")
        assert isinstance(refresh, ast.RefreshMaterializedView)
        assert refresh.name == "v"
        drop = parse("DROP MATERIALIZED VIEW IF EXISTS v")
        assert isinstance(drop, ast.DropMaterializedView)
        assert drop.if_exists

    def test_parse_insert_select(self):
        stmt = parse("INSERT INTO t (a, b) SELECT a, b FROM s WHERE a > 1")
        assert isinstance(stmt, ast.Insert)
        assert stmt.select is not None
        assert stmt.rows == ()
        assert stmt.columns == ("a", "b")

    def test_parse_select_distinct_flag(self):
        stmt = parse("SELECT DISTINCT a, b FROM t")
        assert stmt.distinct


# ---------------------------------------------------------------------------
# end-to-end views
# ---------------------------------------------------------------------------


def fresh_db(**kwargs):
    db = Database(sum_mode=kwargs.pop("sum_mode", "repro"), **kwargs)
    db.execute("CREATE TABLE obs (k INT, s VARCHAR(2), v DOUBLE)")
    db.execute(
        "INSERT INTO obs VALUES "
        "(1,'a',1.5),(2,'b',2.5),(1,'a',0.25),(2,'b',-1.0),(3,'c',9.0),"
        "(1,'b',1e-20),(3,'c',-0.0)"
    )
    return db


VIEW_SQL = (
    "CREATE MATERIALIZED VIEW vk AS "
    "SELECT k, SUM(v) AS sv, COUNT(*) AS c, AVG(v) AS av FROM obs GROUP BY k"
)
QUERY_SQL = "SELECT k, SUM(v) AS sv, COUNT(*) AS c FROM obs GROUP BY k ORDER BY k"


#: every aggregate a view can keep
AGGREGATES = [
    "COUNT(*)", "COUNT(DISTINCT v)", "SUM(v)", "RSUM(v)", "AVG(v)",
    "STDDEV(v)", "VAR_POP(v)", "MIN(v)", "MAX(v)",
]


class TestEveryViewMerges:
    @pytest.mark.parametrize("mode", ["repro", "ieee"])
    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_insert_only_refresh_merges_its_delta(self, agg, mode):
        """Whatever a view aggregates, in either sum mode, an
        insert-only REFRESH merges just its delta rows and serves the
        bits of a serial SELECT."""
        query = f"SELECT k, {agg} AS a FROM obs GROUP BY k ORDER BY k"
        db = fresh_db(sum_mode=mode, morsel_size=2)
        db.execute(
            f"CREATE MATERIALIZED VIEW mv AS "
            f"SELECT k, {agg} AS a FROM obs GROUP BY k"
        )
        scratch = fresh_db(sum_mode=mode)
        insert = "INSERT INTO obs VALUES (1,'a',1e16),(3,'c',0.0),(4,'d',-2.5)"
        for target in (db, scratch):
            target.execute(insert)
        assert db.execute("REFRESH MATERIALIZED VIEW mv") == 3
        assert "ViewScan(mv" in db.explain(query)
        assert result_bits(db.execute(query)) == result_bits(
            scratch.execute(query)
        )


class TestMaterializedViews:
    def test_create_serves_and_explains_viewscan(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        plan = db.explain(QUERY_SQL)
        assert "ViewScan(vk" in plan
        assert "Scan(obs" not in plan.split("== physical plan ==")[1]
        served = db.execute(QUERY_SQL)
        scratch = fresh_db().execute(QUERY_SQL)
        assert result_bits(served) == result_bits(scratch)

    def test_stale_view_falls_back_to_base_scan(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        db.execute("INSERT INTO obs VALUES (5,'e',5.0)")
        assert not db.view("vk").is_fresh()
        plan = db.explain(QUERY_SQL)
        assert "ViewScan" not in plan
        # The fallback still answers correctly.
        rows = db.execute(QUERY_SQL).rows()
        assert (5, 5.0, 1) in rows
        db.execute("REFRESH MATERIALIZED VIEW vk")
        assert db.view("vk").is_fresh()
        assert "ViewScan(vk" in db.explain(QUERY_SQL)

    def test_refresh_consumes_delta_rows_only(self):
        """An insert-only REFRESH merges (and returns) its delta rows —
        a MIN view's too; a delete-bearing one rebuilds from the live
        rows and returns how many it scanned."""
        db = fresh_db()
        db.execute(VIEW_SQL)
        db.execute(
            "CREATE MATERIALIZED VIEW ext AS "
            "SELECT k, MIN(v) AS lo FROM obs GROUP BY k"
        )
        db.execute("INSERT INTO obs VALUES (1,'a',4.0),(9,'z',1.0)")
        assert db.execute("REFRESH MATERIALIZED VIEW vk") == 2
        assert db.execute("REFRESH MATERIALIZED VIEW ext") == 2
        db.execute("DELETE FROM obs WHERE k = 3")  # 2 of 9 rows
        assert db.execute("REFRESH MATERIALIZED VIEW vk") == 7
        assert db.execute("REFRESH MATERIALIZED VIEW ext") == 7

    def test_view_matches_subset_of_aggregates_and_having(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        plan = db.explain(
            "SELECT k, AVG(v) AS a FROM obs GROUP BY k "
            "HAVING COUNT(*) > 1 ORDER BY k LIMIT 2"
        )
        assert "ViewScan(vk" in plan
        rows = db.execute(
            "SELECT k, AVG(v) AS a FROM obs GROUP BY k "
            "HAVING COUNT(*) > 1 ORDER BY k LIMIT 2"
        ).rows()
        scratch = fresh_db().execute(
            "SELECT k, AVG(v) AS a FROM obs GROUP BY k "
            "HAVING COUNT(*) > 1 ORDER BY k LIMIT 2"
        ).rows()
        assert rows == scratch

    def test_no_match_on_different_shape(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        # Different group keys, extra aggregate, different predicate:
        # none may serve from the view.
        for sql in (
            "SELECT s, SUM(v) FROM obs GROUP BY s",
            "SELECT k, MIN(v) FROM obs GROUP BY k",
            "SELECT k, SUM(v) FROM obs WHERE k > 1 GROUP BY k",
        ):
            assert "ViewScan" not in db.explain(sql)

    def test_filtered_view_matches_same_predicate(self):
        db = fresh_db()
        db.execute(
            "CREATE MATERIALIZED VIEW pos AS "
            "SELECT k, SUM(v) AS sv FROM obs WHERE v > 0 GROUP BY k"
        )
        assert "ViewScan(pos" in db.explain(
            "SELECT k, SUM(v) FROM obs WHERE v > 0 GROUP BY k"
        )
        assert "ViewScan" not in db.explain(
            "SELECT k, SUM(v) FROM obs WHERE v > 1 GROUP BY k"
        )
        db.execute("INSERT INTO obs VALUES (1,'a',-5.0),(1,'a',3.0)")
        db.execute("REFRESH MATERIALIZED VIEW pos")
        served = db.execute(
            "SELECT k, SUM(v) AS sv FROM obs WHERE v > 0 GROUP BY k ORDER BY k"
        )
        scratch = fresh_db()
        scratch.execute("INSERT INTO obs VALUES (1,'a',-5.0),(1,'a',3.0)")
        expected = scratch.execute(
            "SELECT k, SUM(v) AS sv FROM obs WHERE v > 0 GROUP BY k ORDER BY k"
        )
        assert result_bits(served) == result_bits(expected)

    def test_empty_group_disappears_end_to_end(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        db.execute("DELETE FROM obs WHERE k = 2")
        db.execute("REFRESH MATERIALIZED VIEW vk")
        rows = db.execute(QUERY_SQL).rows()
        assert all(row[0] != 2 for row in rows)
        scratch = fresh_db()
        scratch.execute("DELETE FROM obs WHERE k = 2")
        assert rows == scratch.execute(QUERY_SQL).rows()

    def test_update_statement_is_delete_plus_insert(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        db.execute("UPDATE obs SET v = v + 1 WHERE k = 1")
        db.execute("REFRESH MATERIALIZED VIEW vk")
        scratch = fresh_db()
        scratch.execute("UPDATE obs SET v = v + 1 WHERE k = 1")
        assert result_bits(db.execute(QUERY_SQL)) == result_bits(
            scratch.execute(QUERY_SQL)
        )

    def test_min_max_views_merge_inserts_and_rebuild_on_delete(self):
        query = (
            "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM obs GROUP BY k "
            "ORDER BY k"
        )
        db = fresh_db()
        db.execute(
            "CREATE MATERIALIZED VIEW ext AS "
            "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM obs GROUP BY k"
        )
        scratch = fresh_db()
        # (statement, rows the REFRESH after it merges or rebuilds from)
        for sql, refreshed in (
            # 0.0 meets the -0.0 already in group 3: a zero tie
            ("INSERT INTO obs VALUES (3,'c',0.0),(1,'a',-7.0),(4,'d',2.0)", 3),
            ("DELETE FROM obs WHERE v > 5.0", 9),
            ("INSERT INTO obs VALUES (3,'c',-0.0),(2,'b',8.0)", 2),
        ):
            db.execute(sql)
            scratch.execute(sql)
            assert db.execute("REFRESH MATERIALIZED VIEW ext") == refreshed
            assert "ViewScan(ext" in db.explain(query)
            assert result_bits(db.execute(query)) == result_bits(
                scratch.execute(query)
            )

    def test_count_distinct_view_refcounts(self):
        db = fresh_db()
        db.execute(
            "CREATE MATERIALIZED VIEW dv AS "
            "SELECT k, COUNT(DISTINCT s) AS ds FROM obs GROUP BY k"
        )
        # k=1 has s in {'a','a','b'}; deleting one 'a' row must keep
        # the distinct count at 2.
        db.execute("DELETE FROM obs WHERE k = 1 AND v = 1.5")
        db.execute("REFRESH MATERIALIZED VIEW dv")
        rows = dict(
            (k, d) for k, d in db.execute(
                "SELECT k, COUNT(DISTINCT s) AS ds FROM obs GROUP BY k"
            ).rows()
        )
        assert rows[1] == 2
        db.execute("DELETE FROM obs WHERE k = 1 AND v = 0.25")
        db.execute("REFRESH MATERIALIZED VIEW dv")
        rows = dict(
            (k, d) for k, d in db.execute(
                "SELECT k, COUNT(DISTINCT s) AS ds FROM obs GROUP BY k"
            ).rows()
        )
        assert rows[1] == 1

    def test_insert_select_feeds_views(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        inserted = db.execute(
            "INSERT INTO obs SELECT k, s, v FROM obs WHERE k = 1"
        )
        assert inserted == 3
        db.execute("REFRESH MATERIALIZED VIEW vk")
        scratch = fresh_db()
        scratch.execute("INSERT INTO obs SELECT k, s, v FROM obs WHERE k = 1")
        assert result_bits(db.execute(QUERY_SQL)) == result_bits(
            scratch.execute(QUERY_SQL)
        )

    def test_drop_view_and_dependent_table_protection(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        with pytest.raises(ValueError, match="dependent materialized view"):
            db.execute("DROP TABLE obs")
        db.execute("DROP MATERIALIZED VIEW vk")
        with pytest.raises(KeyError):
            db.execute("REFRESH MATERIALIZED VIEW vk")
        db.execute("DROP MATERIALIZED VIEW IF EXISTS vk")
        db.execute("DROP TABLE obs")

    def test_rejected_definitions(self):
        db = fresh_db()
        db.execute("CREATE TABLE other (k INT, w DOUBLE)")
        bad = (
            "CREATE MATERIALIZED VIEW b1 AS SELECT k FROM obs",
            "CREATE MATERIALIZED VIEW b2 AS SELECT k, SUM(v) FROM obs "
            "GROUP BY k ORDER BY k",
            "CREATE MATERIALIZED VIEW b3 AS SELECT k, SUM(v) FROM obs "
            "GROUP BY k HAVING COUNT(*) > 1",
            "CREATE MATERIALIZED VIEW b4 AS SELECT DISTINCT k FROM obs",
            "CREATE MATERIALIZED VIEW b5 AS SELECT obs.k, SUM(w) FROM obs "
            "JOIN other ON obs.k = other.k GROUP BY obs.k",
        )
        for sql in bad:
            with pytest.raises((ViewDefinitionError, NotImplementedError)):
                db.execute(sql)
        with pytest.raises(ValueError, match="already exists"):
            db.execute(VIEW_SQL)
            db.execute(VIEW_SQL)

    def test_served_results_are_immutable_snapshots(self):
        """A previously returned result must not change when the view
        refreshes (the single-group finalize path hands back state
        internals; the view must store copies)."""
        db = Database(sum_mode="repro")
        db.execute("CREATE TABLE t (v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1.0), (2.0)")
        db.execute(
            "CREATE MATERIALIZED VIEW gv AS SELECT COUNT(*) AS c, "
            "SUM(v) AS s FROM t"
        )
        first = db.execute("SELECT COUNT(*) AS c, SUM(v) AS s FROM t")
        assert first.rows() == [(2, 3.0)]
        db.execute("INSERT INTO t VALUES (10.0), (11.0), (12.0)")
        db.execute("REFRESH MATERIALIZED VIEW gv")
        assert first.rows() == [(2, 3.0)]  # snapshot, not a live alias
        assert db.execute(
            "SELECT COUNT(*) AS c, SUM(v) AS s FROM t"
        ).rows() == [(5, 36.0)]

    def test_failed_create_does_not_register_the_view(self):
        db = Database(sum_mode="repro")
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        db.table("t").insert_rows([{"k": 1, "v": 1e308}])
        with pytest.raises(OverflowError):
            # 1e308 exceeds the extractor ladder range: the initial
            # population fails, and no broken view may stay behind.
            db.execute(
                "CREATE MATERIALIZED VIEW bad AS "
                "SELECT k, RSUM(v, 3) AS r FROM t GROUP BY k"
            )
        assert db.catalog.view_names() == []
        db.execute("DROP TABLE t")  # no dependent-view block

    def test_failed_refresh_applies_none_of_its_delta(self):
        """A REFRESH that raises mid-delta (here: COUNT took the batch,
        then the SUM's ladder-range check failed) leaves the view at its
        watermark; the next REFRESH rebuilds the maintenance state there
        instead of applying the delta a second time."""
        db = Database(sum_mode="repro")
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 0.5), (2, 0.25)")
        view_sql = "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY k"
        db.execute(f"CREATE MATERIALIZED VIEW mv AS {view_sql}")
        watermark = db.view("mv").watermark
        db.execute("INSERT INTO t VALUES (1, 1.0), (2, 1e300)")
        with pytest.raises(OverflowError):
            db.execute("REFRESH MATERIALIZED VIEW mv")
        assert db.view("mv").watermark == watermark
        db.execute("DELETE FROM t WHERE v > 1e299")
        db.execute("REFRESH MATERIALIZED VIEW mv")
        assert "ViewScan(mv" in db.explain(view_sql)
        served = db.execute(view_sql)
        assert served.rows() == [(1, 2, 1.5), (2, 1, 0.25)]
        db.execute("DROP MATERIALIZED VIEW mv")
        assert result_bits(served) == result_bits(db.execute(view_sql))

    def test_noop_dml_keeps_views_fresh(self):
        db = fresh_db()
        db.execute(VIEW_SQL)
        assert db.execute("DELETE FROM obs WHERE k = 99") == 0
        assert db.view("vk").is_fresh()
        assert "ViewScan(vk" in db.explain(QUERY_SQL)

    def test_versioned_storage_watermarks(self):
        db = Database()
        db.execute("CREATE TABLE t (x INT)")
        table = db.table("t")
        assert table.version == 0
        db.execute("INSERT INTO t VALUES (1), (2)")
        assert table.version == 1
        db.execute("INSERT INTO t VALUES (3)")
        db.execute("DELETE FROM t WHERE x = 1")
        assert table.version == 3
        start = table.rows_at(1)
        assert table.read(["x"], start=start)[0]["x"].tolist() == [3]
        assert table.deletes_between(1, table.version)
        # A row inserted and deleted inside the window cancels out.
        db.execute("INSERT INTO t VALUES (9)")
        db.execute("DELETE FROM t WHERE x = 9")
        start = table.rows_at(3)
        assert table.read(["x"], start=start)[0]["x"].tolist() == []
        assert not table.deletes_between(3, table.version)


# ---------------------------------------------------------------------------
# Deletes rebuild: held against a from-scratch SELECT after every step
# ---------------------------------------------------------------------------


class ViewTwin:
    """One statement stream into two databases: ``db`` keeps the view
    ``mv`` over ``t``, ``scratch`` answers the same query from the
    base rows."""

    def __init__(self, query, vtype="DOUBLE", **knobs):
        self.query = query + " ORDER BY k"
        self.db = Database(sum_mode="repro", morsel_size=2, **knobs)
        self.scratch = Database(sum_mode="repro", **knobs)
        self.execute(f"CREATE TABLE t (i INT, k INT, v {vtype})")
        self.db.execute(f"CREATE MATERIALIZED VIEW mv AS {query}")

    def execute(self, sql):
        for db in (self.db, self.scratch):
            db.execute(sql)

    def insert(self, rows):
        # NaN / inf have no SQL literal spelling; one versioned chunk
        # through the storage API is the same DML event.
        for db in (self.db, self.scratch):
            db.table("t").insert_rows(
                [{"i": i, "k": k, "v": v} for i, k, v in rows]
            )

    def refresh_and_check(self):
        self.db.execute("REFRESH MATERIALIZED VIEW mv")
        assert "ViewScan(mv" in self.db.explain(self.query)
        served = result_bits(self.db.execute(self.query))
        assert served == result_bits(self.scratch.execute(self.query))
        return served


TWIN_QUERY = (
    "SELECT k, SUM(v) AS sv, COUNT(*) AS c, AVG(v) AS av, "
    "RSUM(v, 3) AS rv, STDDEV(v) AS sd, COUNT(DISTINCT v) AS dv "
    "FROM t GROUP BY k"
)


class TestDeletesRebuild:
    def test_deleting_the_row_that_raised_a_ladder(self):
        """2**90 lifts group 1's ladder far above its other rows: once
        it is deleted the view must hold the low ladder a fresh query
        builds, and keep merging small inserts into it."""
        twin = ViewTwin(TWIN_QUERY)
        twin.insert([(1, 1, 0.1), (2, 1, 0.3), (3, 2, 1.5), (4, 1, 1e-3)])
        twin.refresh_and_check()
        twin.insert([(5, 1, 2.0**90), (6, 1, 0.7)])
        raised = twin.refresh_and_check()
        twin.execute("DELETE FROM t WHERE i = 5")
        assert twin.refresh_and_check() != raised
        twin.insert([(7, 1, 1e-17), (8, 1, 0.2), (9, 2, -0.25)])
        twin.refresh_and_check()

    @pytest.mark.parametrize("special", [
        float("nan"), float("inf"), float("-inf"), -0.0,
    ], ids=["nan", "inf", "-inf", "-0.0"])
    def test_deleting_special_values(self, special):
        twin = ViewTwin(TWIN_QUERY)
        twin.insert([
            (1, 1, 0.5), (2, 1, special), (3, 2, special), (4, 2, 0.0),
            (5, 3, 2.5),
        ])
        twin.refresh_and_check()
        twin.execute("DELETE FROM t WHERE i = 2 OR i = 3")
        twin.refresh_and_check()
        twin.insert([(6, 1, 0.125), (7, 2, special), (8, 2, 3.0)])
        twin.refresh_and_check()
        twin.execute("DELETE FROM t WHERE i = 7")
        twin.refresh_and_check()

    def test_group_emptied_then_refilled(self):
        twin = ViewTwin(TWIN_QUERY)
        twin.insert([(1, 1, 0.5), (2, 2, 1e20), (3, 2, -1e20), (4, 3, 1.0)])
        twin.refresh_and_check()
        twin.execute("DELETE FROM t WHERE k = 2")
        twin.refresh_and_check()
        assert 2 not in twin.db.execute(twin.query).column("k").tolist()
        twin.insert([(5, 2, 0.25), (6, 1, 2.0)])
        twin.refresh_and_check()
        assert 2 in twin.db.execute(twin.query).column("k").tolist()

    @pytest.mark.parametrize("agg", [
        "COUNT(*)", "COUNT(DISTINCT v)", "SUM(v)", "RSUM(v)", "AVG(v)",
        "STDDEV(v)", "VAR_POP(v)",
    ])
    def test_deleting_a_merged_delta_restores_the_view(self, agg):
        """Rows merged by an insert-only REFRESH and then deleted leave
        the view with the bits it held before they arrived."""
        twin = ViewTwin(f"SELECT k, {agg} AS a FROM t GROUP BY k")
        twin.insert([(1, 1, 0.1), (2, 1, 2.5), (3, 2, -1e-3), (4, 2, 7.0)])
        before = twin.refresh_and_check()
        twin.insert([(100, 1, 1e15), (101, 2, 0.3), (102, 2, -2.0**-60)])
        assert twin.refresh_and_check() != before
        twin.execute("DELETE FROM t WHERE i >= 100")
        assert twin.refresh_and_check() == before

    def test_int_sum_round_trips_a_delete(self):
        twin = ViewTwin("SELECT k, SUM(i) AS si, COUNT(*) AS c FROM t GROUP BY k")
        twin.insert([(2**31 - 1, 1, 0.0), (-7, 1, 0.0), (5, 2, 0.0)])
        before = twin.refresh_and_check()
        twin.insert([(2**31 - 2, 1, 0.0), (-(2**31 - 1), 2, 0.0)])
        assert twin.refresh_and_check() != before
        twin.execute("DELETE FROM t WHERE i = 2147483646 OR i = -2147483647")
        assert twin.refresh_and_check() == before

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_rebuild_matches_scratch_at_session_levels(self, levels):
        twin = ViewTwin(
            "SELECT k, SUM(v) AS sv, AVG(v) AS av, STDDEV(v) AS sd "
            "FROM t GROUP BY k",
            levels=levels,
        )
        twin.insert([
            (i, i % 3, (-1.0) ** i * 2.0 ** (i * 7 % 61 - 30))
            for i in range(24)
        ])
        twin.refresh_and_check()
        twin.execute("DELETE FROM t WHERE i < 4 OR i > 19")
        twin.refresh_and_check()
        twin.insert([(30, 0, 1e-9), (31, 1, 3.25), (32, 2, -2.0**20)])
        twin.refresh_and_check()

    def test_binary32_column(self):
        twin = ViewTwin(
            "SELECT k, SUM(v) AS sv, COUNT(*) AS c, AVG(v) AS av "
            "FROM t GROUP BY k",
            vtype="FLOAT",
        )
        twin.insert([(1, 1, 0.1), (2, 1, 3e30), (3, 2, -0.0), (4, 2, 1e-40)])
        twin.refresh_and_check()
        twin.execute("DELETE FROM t WHERE i = 2")
        twin.refresh_and_check()
        twin.insert([(5, 1, 0.7), (6, 2, float("inf"))])
        twin.refresh_and_check()

    def test_global_view_keeps_its_row_when_every_row_is_deleted(self):
        db = Database(sum_mode="repro")
        db.execute("CREATE TABLE t (v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1.5), (2.5)")
        sql = "SELECT COUNT(*) AS c, SUM(v) AS s FROM t"
        db.execute(f"CREATE MATERIALIZED VIEW gv AS {sql}")
        db.execute("DELETE FROM t WHERE v > 0")
        db.execute("REFRESH MATERIALIZED VIEW gv")
        assert "ViewScan(gv" in db.explain(sql)
        served = db.execute(sql)
        assert served.rows() == [(0, 0.0)]
        db.execute("DROP MATERIALIZED VIEW gv")
        assert result_bits(served) == result_bits(db.execute(sql))


class TestVarcharKeyedView:
    """A VARCHAR-keyed view's morsels carry the scan's dictionary
    encoding; across insert-only deltas (the dictionary grows and
    re-sorts, or keeps its size) and delete-bearing ones it serves the
    bytes of a from-scratch SELECT."""

    QUERY = (
        "SELECT s, SUM(v) AS sv, COUNT(*) AS c, MIN(v) AS lo, "
        "COUNT(DISTINCT v) AS dv FROM t{where} GROUP BY s"
    )

    @pytest.mark.parametrize("where", ["", " WHERE v <> 2.5"],
                             ids=["all", "filtered"])
    def test_refreshes_match_scratch(self, where, monkeypatch):
        from repro.engine.vectorized import VectorizedGroupTable

        encoded = []
        update = VectorizedGroupTable.update

        def spy(table, batch):
            encoded.append(batch.encoding("s") is not None)
            return update(table, batch)

        monkeypatch.setattr(VectorizedGroupTable, "update", spy)
        query = self.QUERY.format(where=where)
        ordered = query + " ORDER BY s"
        db = Database(sum_mode="repro", morsel_size=2)
        scratch = Database(sum_mode="repro")
        for target in (db, scratch):
            target.execute("CREATE TABLE t (i INT, s VARCHAR(4), v DOUBLE)")
        db.execute(f"CREATE MATERIALIZED VIEW mv AS {query}")
        view = db.view("mv")

        def step(sql, rebuilds):
            for target in (db, scratch):
                target.execute(sql)
            kept = view._group_table
            encoded.clear()
            db.execute("REFRESH MATERIALIZED VIEW mv")
            assert (view._group_table is not kept) == rebuilds
            assert encoded and all(encoded)
            assert "ViewScan(mv" in db.explain(ordered)
            served = result_bits(db.execute(ordered))
            assert served == result_bits(scratch.execute(ordered))

        step("INSERT INTO t VALUES (1,'m',0.5),(2,'x',2.5),(3,'m',1e16),"
             "(4,'x',-1.0),(5,'m',-1e16)", rebuilds=False)
        # new keys sort before the old ones: the dictionary re-codes
        step("INSERT INTO t VALUES (6,'a',0.25),(7,'m',2.5),(8,'b',3.0)",
             rebuilds=False)
        # known keys only: the dictionary keeps its size
        step("INSERT INTO t VALUES (9,'x',7.0),(10,'a',-0.0)", rebuilds=False)
        step("DELETE FROM t WHERE s = 'm'", rebuilds=True)
        step("INSERT INTO t VALUES (11,'',1.5),(12,'m',4.0)",
             rebuilds=False)
        step("UPDATE t SET v = 9.5 WHERE i = 2", rebuilds=True)
        step("INSERT INTO t VALUES (13,'zz',0.125)", rebuilds=False)


# ---------------------------------------------------------------------------
# The reproducibility matrix: interleavings x execution knobs
# ---------------------------------------------------------------------------


def replay_interleaving(db, refresh=True):
    """A deterministic DML storm: inserts, deletes, interleaved
    refreshes, with NaN / inf / -0.0 values and group churn."""
    rng = np.random.default_rng(20260729)
    db.execute("CREATE TABLE m (k INT, v DOUBLE)")
    if refresh:
        db.execute(
            "CREATE MATERIALIZED VIEW mv AS "
            "SELECT k, SUM(v) AS sv, COUNT(*) AS c, AVG(v) AS av, "
            "RSUM(v, 3) AS rv, STDDEV(v) AS sd, COUNT(DISTINCT v) AS dv "
            "FROM m GROUP BY k"
        )
    for step in range(12):
        op = rng.random()
        if op < 0.65 or len(db.table("m")) < 10:
            count = int(rng.integers(1, 30))
            keys = rng.integers(0, 6, size=count)
            values = rng.choice([-1.0, 1.0], size=count) * np.exp2(
                rng.uniform(-40, 40, size=count)
            )
            values[rng.random(count) < 0.05] = np.nan
            values[rng.random(count) < 0.05] = np.inf
            values[rng.random(count) < 0.05] = -0.0
            # NaN/inf have no SQL literal spelling; one versioned chunk
            # through the storage API is the same DML event.
            db.table("m").insert_rows([
                {"k": int(k), "v": float(v)}
                for k, v in zip(keys, values)
            ])
        else:
            key = int(rng.integers(0, 6))
            db.execute(f"DELETE FROM m WHERE k = {key}")
        # Drawn unconditionally so both replay variants consume the
        # same random stream (identical data with or without the view).
        do_refresh = rng.random() < 0.4
        if refresh and do_refresh:
            db.execute("REFRESH MATERIALIZED VIEW mv")
    if refresh:
        db.execute("REFRESH MATERIALIZED VIEW mv")


MATRIX_QUERY = (
    "SELECT k, SUM(v) AS sv, COUNT(*) AS c, AVG(v) AS av, RSUM(v, 3) AS rv, "
    "STDDEV(v) AS sd, COUNT(DISTINCT v) AS dv FROM m GROUP BY k ORDER BY k"
)


class TestInterleavingMatrix:
    @pytest.mark.parametrize("mode", ["repro"])
    def test_view_bits_equal_scratch_across_knob_matrix(self, mode):
        reference = None
        for workers in (1, 2):
            for morsel_size in (7, 1 << 16):
                for budget in (None, 1):
                    knobs = dict(sum_mode=mode, workers=workers,
                                 morsel_size=morsel_size, memory_budget=budget)
                    with Database(**knobs) as db:
                        replay_interleaving(db)
                        assert db.view("mv").is_fresh()
                        assert "ViewScan(mv" in db.explain(MATRIX_QUERY)
                        served = result_bits(db.execute(MATRIX_QUERY))

                    with Database(**knobs) as scratch:
                        replay_interleaving(scratch, refresh=False)
                        base = result_bits(scratch.execute(MATRIX_QUERY))
                    assert served == base, (
                        f"view != scratch at workers={workers}, "
                        f"morsel={morsel_size}, budget={budget}"
                    )
                    if reference is None:
                        reference = served
                    assert served == reference


# ---------------------------------------------------------------------------
# SELECT DISTINCT (zero-aggregate GROUP BY)
# ---------------------------------------------------------------------------


class TestSelectDistinct:
    def test_basic_distinct(self):
        db = fresh_db()
        assert db.execute("SELECT DISTINCT k FROM obs ORDER BY k").rows() == [
            (1,), (2,), (3,)
        ]

    def test_distinct_multiple_columns(self):
        db = fresh_db()
        rows = db.execute(
            "SELECT DISTINCT k, s FROM obs ORDER BY k, s"
        ).rows()
        assert rows == [(1, "a"), (1, "b"), (2, "b"), (3, "c")]

    def test_distinct_expression_and_where(self):
        db = fresh_db()
        rows = db.execute(
            "SELECT DISTINCT k + 1 AS k1 FROM obs WHERE k > 1 ORDER BY k1"
        ).rows()
        assert rows == [(3,), (4,)]

    def test_distinct_star_expands(self):
        db = Database()
        db.execute("CREATE TABLE d (a INT, b INT)")
        db.execute("INSERT INTO d VALUES (1,2),(1,2),(2,3)")
        rows = db.execute("SELECT DISTINCT * FROM d ORDER BY a").rows()
        assert rows == [(1, 2), (2, 3)]

    def test_distinct_canonical_float_identity(self):
        db = Database()
        db.execute("CREATE TABLE f (x DOUBLE)")
        db.execute(
            "INSERT INTO f VALUES (0.0), (-0.0), (1.5), (1.5)"
        )
        db.table("f").bulk_load({"x": [float("nan"), float("nan")]})
        values = db.execute("SELECT DISTINCT x FROM f").column("x")
        assert len(values) == 3  # 0.0 == -0.0, NaN == NaN

    def test_distinct_with_limit(self):
        db = fresh_db()
        assert len(
            db.execute("SELECT DISTINCT k FROM obs ORDER BY k LIMIT 2")
        ) == 2

    def test_distinct_with_aggregates_rejected(self):
        db = fresh_db()
        with pytest.raises(NotImplementedError):
            db.execute("SELECT DISTINCT SUM(v) FROM obs")
        with pytest.raises(NotImplementedError):
            db.execute("SELECT DISTINCT k FROM obs GROUP BY k")

    def test_sum_distinct_still_rejected(self):
        db = fresh_db()
        with pytest.raises(NotImplementedError):
            db.execute("SELECT SUM(DISTINCT v) FROM obs")

    def test_distinct_bits_invariant_across_knobs(self, engine_path):
        reference = None
        for workers in (1, 2):
            for path in (None, "scalar"):
                with engine_path(path), fresh_db(workers=workers,
                                                 morsel_size=3) as db:
                    bits = result_bits(db.execute(
                        "SELECT DISTINCT k, s FROM obs ORDER BY k, s"
                    ))
                    assert db.last_pipeline_stats.workers == workers
                if reference is None:
                    reference = bits
                assert bits == reference


# ---------------------------------------------------------------------------
# SET pragma error paths
# ---------------------------------------------------------------------------


class TestSetPragmaErrors:
    def test_unknown_knob_lists_valid_names(self):
        db = Database()
        with pytest.raises(ValueError) as err:
            db.execute("SET no_such_knob = 3")
        message = str(err.value)
        assert "no_such_knob" in message
        for name in ("workers", "morsel_size", "memory_budget"):
            assert name in message
        assert "shard" not in message
        assert "join_build" not in message

    def test_non_numeric_value_names_the_knob(self):
        db = Database()
        for knob in ("workers", "morsel_size"):
            with pytest.raises(ValueError) as err:
                db.execute(f"SET {knob} = banana")
            assert knob in str(err.value)
            assert "banana" in str(err.value)

    def test_non_numeric_budget_names_the_knob(self):
        db = Database()
        with pytest.raises(ValueError) as err:
            db.execute("SET memory_budget = lots")
        assert "memory budget" in str(err.value)
        assert "lots" in str(err.value)

    def test_bad_boolean_named(self):
        # No boolean knob is left: the retired engine switches are
        # unknown names whatever the value's spelling, never ignored.
        db = Database()
        for knob in ("vectorized", "fused"):
            for value in ("banana", "off", "TRUE"):
                with pytest.raises(ValueError) as err:
                    db.execute(f"SET {knob} = {value}")
                assert knob in str(err.value)
                assert "valid parameters" in str(err.value)

    def test_fractional_rejected_with_name(self):
        db = Database()
        with pytest.raises(ValueError) as err:
            db.execute("SET workers = 1.5")
        assert "workers" in str(err.value)
