"""Mutable tables + incrementally-maintained materialized views.

Covers the PR-5 acceptance criteria:

* retraction round-trips for every partial-state class (NaN / -0.0 /
  inf included), with empty-group elimination;
* REFRESH after any INSERT/DELETE interleaving is byte-identical to
  recreating the view from scratch, across
  workers x morsel_size x memory_budget;
* the view-matching rewrite serves fresh views (EXPLAIN ViewScan) and
  falls back to the base scan when stale;
* SELECT DISTINCT as a zero-aggregate GROUP BY;
* SET pragma error paths name the knob and list the valid ones.
"""

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.aggregates import (
    CountState,
    DistinctState,
    LadderSum,
    Moment2State,
    PlainSum,
    SumState,
)
from repro.engine.expr import ExprCache
from repro.engine.matview import MaintenanceGroupTable, ViewDefinitionError
from repro.engine.operators import AggregateSpec, Batch, SumConfig
from repro.engine.sql import parse, parse_expression
from repro.engine.sql import ast
from repro.engine.vectorized import SortedMorsel


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


def state_snapshot(state):
    """Comparable byte-level identity of one partial aggregate state."""
    if isinstance(state, CountState):
        return ("count", tuple(state.counts.tolist()))
    if isinstance(state, PlainSum):
        return ("plain", tuple(state.sums.tolist()), state.scale)
    if isinstance(state, LadderSum):
        return ("rsum", state.grouped.state_identity())
    if isinstance(state, SumState):
        return ("sumstate", None if state.acc is None
                else state_snapshot(state.acc))
    if isinstance(state, Moment2State):
        return (
            "moment2",
            state_snapshot(state.sum_x),
            state_snapshot(state.sum_xx),
        )
    if isinstance(state, DistinctState):
        return (
            "distinct",
            tuple(
                tuple(sorted((repr(k), v) for k, v in counts.items()))
                for counts in state.groups
            ),
            state.member_count,
        )
    raise TypeError(f"no snapshot for {state!r}")


class RetractableStates:
    """The states a retractable table builds for one aggregate (AVG is
    its shared SUM + COUNT, the VARIANCE family its second moment +
    COUNT), driven with explicit group ids."""

    def __init__(self, sql, mode):
        self.spec = AggregateSpec(parse_expression(sql), SumConfig(mode))
        self.states = MaintenanceGroupTable((), [self.spec]).states

    def _apply(self, method, values, gids, ngroups):
        batch = make_batch(values)
        cache = ExprCache(batch.columns, batch.types)
        for state in self.states:
            getattr(state, method)(
                batch, cache, gids, SortedMorsel(gids), ngroups
            )

    def update(self, values, gids, ngroups):
        self._apply("update", values, gids, ngroups)

    def retract(self, values, gids, ngroups):
        self._apply("retract", values, gids, ngroups)

    def snapshot(self):
        return tuple(state_snapshot(state) for state in self.states)

    def finalize(self, ngroups):
        return self.states[0].finalize(ngroups)


def make_batch(values, extra=None):
    columns = {"v": np.asarray(values)}
    if extra:
        columns.update({k: np.asarray(a) for k, a in extra.items()})
    return Batch(columns, {})


# ---------------------------------------------------------------------------
# retraction round-trips, per partial-state class
# ---------------------------------------------------------------------------


SPEC_SQLS = [
    "COUNT(*)",
    "COUNT(DISTINCT v)",
    "SUM(v)",
    "RSUM(v)",
    "AVG(v)",
    "STDDEV(v)",
    "VAR_POP(v)",
]


class TestRetractionRoundTrips:
    @pytest.mark.parametrize("sql", SPEC_SQLS)
    @pytest.mark.parametrize("mode", ["repro"])
    def test_merge_then_retract_restores_state(self, sql, mode):
        rng = np.random.default_rng(hash(sql) % 2**31)
        state = RetractableStates(sql, mode)
        assert state.spec.supports_retraction()

        base = rng.uniform(-10, 10, size=50) * np.exp2(
            rng.uniform(-40, 40, size=50)
        )
        gids = rng.integers(0, 5, size=50)
        state.update(base, gids, 5)
        before = state.snapshot()

        # The adversarial delta: NaN, +/-inf, -0.0, a ladder-promoting
        # huge value, and duplicates of existing values.
        delta = np.array(
            [np.nan, np.inf, -np.inf, -0.0, 0.0, 2.0**70, base[0], base[0]]
        )
        delta_gids = np.array([0, 1, 2, 3, 4, 0, 1, 1])
        state.update(delta, delta_gids, 5)
        assert state.snapshot() != before
        state.retract(delta, delta_gids, 5)
        assert state.snapshot() == before

    def test_int_sum_round_trip(self):
        state = RetractableStates("SUM(v)", "ieee")
        gids = np.array([0, 1, 0])
        state.update(np.array([5, 7, -2], dtype=np.int64), gids, 2)
        before = state.snapshot()
        delta = np.array([100, -3, 9], dtype=np.int64)
        state.update(delta, gids, 2)
        state.retract(delta, gids, 2)
        assert state.snapshot() == before

    def test_refcounted_distinct_keeps_surviving_duplicates(self):
        state = RetractableStates("COUNT(DISTINCT v)", "repro")
        gids = np.array([0, 0, 0])
        state.update(np.array([1.0, 1.0, 2.0]), gids, 1)
        assert state.finalize(1).tolist() == [2]
        # Retract ONE of the two 1.0 occurrences: the member survives.
        state.retract(np.array([1.0]), np.array([0]), 1)
        assert state.finalize(1).tolist() == [2]
        state.retract(np.array([1.0]), np.array([0]), 1)
        assert state.finalize(1).tolist() == [1]

    def test_refcounted_distinct_rejects_unseen_retract(self):
        state = RetractableStates("COUNT(DISTINCT v)", "repro")
        state.update(np.array([1.0]), np.array([0]), 1)
        with pytest.raises(ValueError):
            state.retract(np.array([9.0]), np.array([0]), 1)

    def test_min_max_not_retractable(self):
        for sql in ("MIN(v)", "MAX(v)"):
            spec = AggregateSpec(parse_expression(sql), SumConfig("repro"))
            assert not spec.supports_retraction()

    def test_float_sum_not_retractable_outside_repro(self):
        for mode in ("ieee",):
            spec = AggregateSpec(parse_expression("SUM(v)"), SumConfig(mode))
            assert not spec.supports_retraction()
            # RSUM forces the repro state, so it retracts in any mode.
            rspec = AggregateSpec(parse_expression("RSUM(v)"), SumConfig(mode))
            assert rspec.supports_retraction()


class TestMaintenanceTable:
    def specs(self, *sqls, mode="repro"):
        config = SumConfig(mode)
        return [AggregateSpec(parse_expression(s), config) for s in sqls]

    def test_empty_group_elimination(self):
        table = MaintenanceGroupTable(
            (ast.ColumnRef("k"),), self.specs("SUM(v)", "COUNT(*)")
        )
        batch = make_batch(
            np.array([1.0, 2.0, 3.0]),
            extra={"k": np.array([10, 20, 10])},
        )
        table.update(batch)
        _, _, ngroups = table.finalize_live()
        assert ngroups == 2
        # Delete every k=20 row: the group must vanish.
        table.retract(make_batch(
            np.array([2.0]), extra={"k": np.array([20])}
        ))
        key_arrays, results, ngroups = table.finalize_live()
        assert ngroups == 1
        assert key_arrays[0].tolist() == [10]
        assert results[1].tolist() == [2]

    def test_global_group_survives_total_retraction(self):
        table = MaintenanceGroupTable((), self.specs("COUNT(*)", "SUM(v)"))
        batch = make_batch(np.array([1.5, 2.5]))
        gidsless = batch
        table.update(gidsless)
        table.retract(gidsless)
        _, results, ngroups = table.finalize_live()
        assert ngroups == 1  # global aggregates always emit one row
        assert results[0].tolist() == [0]


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
        db = fresh_db()
        db.execute(VIEW_SQL)
        db.execute("INSERT INTO obs VALUES (1,'a',4.0),(9,'z',1.0)")
        db.execute("DELETE FROM obs WHERE k = 3")
        consumed = db.execute("REFRESH MATERIALIZED VIEW vk")
        assert consumed == 4  # 2 inserts + 2 deleted rows
        assert db.view("vk").maintenance == "incremental"

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

    def test_min_max_views_use_full_recompute(self):
        db = fresh_db()
        db.execute(
            "CREATE MATERIALIZED VIEW ext AS "
            "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM obs GROUP BY k"
        )
        assert db.view("ext").maintenance == "full"
        db.execute("DELETE FROM obs WHERE v > 5.0")
        db.execute("REFRESH MATERIALIZED VIEW ext")
        served = db.execute(
            "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM obs GROUP BY k ORDER BY k"
        )
        scratch = fresh_db()
        scratch.execute("DELETE FROM obs WHERE v > 5.0")
        expected = scratch.execute(
            "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM obs GROUP BY k ORDER BY k"
        )
        assert result_bits(served) == result_bits(expected)

    def test_ieee_views_use_full_recompute(self):
        db = fresh_db(sum_mode="ieee")
        db.execute(VIEW_SQL)
        assert db.view("vk").maintenance == "full"

    def test_count_distinct_view_refcounts(self):
        db = fresh_db()
        db.execute(
            "CREATE MATERIALIZED VIEW dv AS "
            "SELECT k, COUNT(DISTINCT s) AS ds FROM obs GROUP BY k"
        )
        assert db.view("dv").maintenance == "incremental"
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
        inserted, deleted = table.delta_masks(1)
        assert inserted.tolist() == [False, False, True]
        assert deleted.tolist() == [True, False, False]
        # A row inserted and deleted inside the window cancels out.
        db.execute("INSERT INTO t VALUES (9)")
        db.execute("DELETE FROM t WHERE x = 9")
        inserted, deleted = table.delta_masks(3)
        assert not inserted.any() and not deleted.any()


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
                    assert db.last_pipeline_stats.sharded is (workers > 1)
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
        for name in ("workers", "morsel_size", "memory_budget",
                     "join_build"):
            assert name in message
        assert "shard" not in message

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
