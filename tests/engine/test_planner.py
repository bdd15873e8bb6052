"""Tests for the binder, the optimizer rule passes, and EXPLAIN."""

import pytest

from repro.engine import Database
from repro.engine.optimizer import estimate_rows, fold_expr, optimize
from repro.engine.physical import PhysProbe, plan_physical
from repro.engine.plan import (
    Aggregate,
    BindError,
    Filter,
    Join,
    Limit,
    Project,
    Scan,
    Sort,
    bind_select,
)
from repro.engine.sql import ast, parse, parse_expression


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE a (k INT, v DOUBLE, shared INT)")
    database.execute("CREATE TABLE b (k INT, w DOUBLE, shared INT)")
    database.execute(
        "INSERT INTO a VALUES (1, 1.0, 7), (2, 2.0, 8), (3, 3.0, 9)"
    )
    database.execute("INSERT INTO b VALUES (1, 10.0, 5), (2, 20.0, 6)")
    return database


def plan_for(db, sql):
    stmt = parse(sql)
    return optimize(bind_select(stmt, db.catalog.get))


class TestBinder:
    def test_unique_columns_keep_bare_names(self, db):
        plan = plan_for(db, "SELECT v, w FROM a, b WHERE a.k = b.k")
        project = plan
        names = [item.expr.name for item in project.items]
        assert names == ["v", "w"]

    def test_colliding_columns_qualify(self, db):
        plan = plan_for(
            db, "SELECT a.k, b.k FROM a, b WHERE a.shared = b.shared"
        )
        names = [item.expr.name for item in plan.items]
        assert names == ["a.k", "b.k"]

    def test_unknown_column_raises(self, db):
        with pytest.raises(BindError):
            plan_for(db, "SELECT nope FROM a")

    def test_ambiguous_column_raises(self, db):
        with pytest.raises(BindError, match="ambiguous"):
            plan_for(db, "SELECT k FROM a, b WHERE a.k = b.k")

    def test_unknown_alias_raises(self, db):
        with pytest.raises(BindError):
            plan_for(db, "SELECT z.v FROM a")

    def test_duplicate_binding_raises(self, db):
        with pytest.raises(BindError):
            plan_for(db, "SELECT 1 FROM a, a")

    def test_alias_binds(self, db):
        plan = plan_for(
            db, "SELECT x.v, y.w FROM a AS x, b AS y WHERE x.k = y.k"
        )
        assert [item.expr.name for item in plan.items] == ["v", "w"]

    def test_star_expands_in_from_order(self, db):
        plan = plan_for(db, "SELECT * FROM a, b WHERE a.k = b.k")
        names = [item.expr.name for item in plan.items]
        assert names == ["a.k", "v", "a.shared", "b.k", "w", "b.shared"]


class TestConstantFolding:
    def test_arithmetic_folds(self):
        assert fold_expr(parse_expression("1 + 2 * 3")) == ast.Literal(7)

    def test_date_interval_folds(self):
        expr = parse_expression("DATE '1998-12-01' - INTERVAL '90' DAY")
        folded = fold_expr(expr)
        import datetime

        expected = datetime.date(1998, 12, 1).toordinal() - 90
        assert folded == ast.Literal(expected)

    def test_scalar_function_folds(self):
        assert fold_expr(parse_expression("ABS(-5)")) == ast.Literal(5)

    def test_column_refs_do_not_fold(self):
        expr = parse_expression("v + 1")
        assert fold_expr(expr) == expr

    def test_month_interval_not_folded(self):
        # DAY intervals fold into plain ordinals; MONTH arithmetic has
        # no evaluator, so the subtraction must survive un-folded (the
        # DATE leaf itself still folds to its ordinal).
        expr = parse_expression("DATE '1998-12-01' - INTERVAL '3' MONTH")
        folded = fold_expr(expr)
        assert isinstance(folded, ast.Binary)
        assert isinstance(folded.right, ast.IntervalLiteral)

    def test_fold_runs_in_plan(self, db):
        plan = plan_for(
            db, "SELECT v FROM a WHERE v > 1 + 1"
        )
        scan = plan.child
        assert isinstance(scan, Scan)
        assert scan.predicate == parse_expression("v > 2")


class TestPredicatePushdown:
    def test_where_conjuncts_reach_scans(self, db):
        plan = plan_for(
            db,
            "SELECT SUM(v) FROM a, b "
            "WHERE a.k = b.k AND v > 1 AND w < 15",
        )
        join = plan.child.child
        assert isinstance(join, Join)
        left, right = join.left, join.right
        assert isinstance(left, Scan) and left.table.name == "a"
        assert left.predicate is not None and "v" in left.predicate.sql()
        assert isinstance(right, Scan) and right.table.name == "b"
        assert right.predicate is not None and "w" in right.predicate.sql()

    def test_equi_conjunct_becomes_join_key(self, db):
        plan = plan_for(db, "SELECT SUM(v) FROM a, b WHERE a.k = b.k")
        join = plan.child.child
        assert join.left_keys and join.right_keys
        assert join.left_keys[0].sql() == "a.k"
        assert join.right_keys[0].sql() == "b.k"
        assert join.residual is None

    def test_non_equi_cross_conjunct_stays_residual(self, db):
        plan = plan_for(
            db, "SELECT SUM(v) FROM a, b WHERE a.k = b.k AND v < w"
        )
        join = plan.child.child
        assert join.residual is not None
        assert join.residual.sql() == "(v < w)"

    def test_on_clause_extracts_keys(self, db):
        plan = plan_for(db, "SELECT SUM(v) FROM a JOIN b ON a.k = b.k")
        join = plan.child.child
        assert join.left_keys[0].sql() == "a.k"

    def test_pushdown_stops_at_null_introducing_side(self, db):
        """A filter on the right side of a LEFT JOIN must not cross the
        join (it would drop preserved rows before matching)."""
        plan = plan_for(
            db,
            "SELECT v, w FROM a LEFT JOIN b ON a.k = b.k WHERE w > 15",
        )
        filt = plan.child
        assert isinstance(filt, Filter)
        assert filt.predicate.sql() == "(w > 15)"
        join = filt.child
        assert isinstance(join, Join) and join.kind == "left"
        assert isinstance(join.right, Scan)
        assert join.right.predicate is None

    def test_pushdown_crosses_preserved_side(self, db):
        plan = plan_for(
            db,
            "SELECT v, w FROM a LEFT JOIN b ON a.k = b.k WHERE v > 1",
        )
        join = plan.child
        assert isinstance(join, Join) and join.kind == "left"
        assert isinstance(join.left, Scan)
        assert join.left.predicate is not None

    def test_left_join_non_equi_on_rejected(self, db):
        with pytest.raises(NotImplementedError):
            plan_for(
                db,
                "SELECT v FROM a LEFT JOIN b ON a.k = b.k AND w > 1",
            )

    def test_having_never_pushed(self, db):
        plan = plan_for(
            db,
            "SELECT shared, SUM(v) FROM a GROUP BY shared "
            "HAVING SUM(v) > 1",
        )
        having = plan.child
        assert isinstance(having, Filter) and having.having
        assert isinstance(having.child, Aggregate)


class TestProjectionPushdown:
    def test_scan_restricted_to_needed_columns(self, db):
        plan = plan_for(db, "SELECT SUM(v) FROM a WHERE shared > 1")
        scan = plan.child.child
        assert isinstance(scan, Scan)
        assert set(scan.projected) == {"v", "shared"}

    def test_join_sides_restricted(self, db):
        plan = plan_for(
            db, "SELECT SUM(w) FROM a, b WHERE a.k = b.k"
        )
        join = plan.child.child
        assert set(join.left.projected) == {"a.k"}
        assert set(join.right.projected) == {"b.k", "w"}

    def test_select_star_scans_everything(self, db):
        plan = plan_for(db, "SELECT * FROM a")
        scan = plan.child
        assert set(scan.projected) == {"k", "v", "shared"}


def probe_for(db, sql):
    """The one hash-join probe of the plan lowered at the session's
    snapshot and knobs."""
    physical = plan_physical(plan_for(db, sql), db.execution_context,
                             db.sum_config, db.default_session.pin_snapshot())
    (probe,) = [op for op in physical.pipeline.ops
                if isinstance(op, PhysProbe)]
    return probe


class TestBuildSideChoice:
    """Lowering picks each join's build side; the logical plan carries
    none."""

    def test_smaller_estimated_side_builds(self, db):
        # b (2 rows) is smaller than a (3 rows): with a on the left the
        # planner should build on the right.
        sql = "SELECT SUM(v) FROM a, b WHERE a.k = b.k"
        assert probe_for(db, sql).build_side == "right"
        sql = "SELECT SUM(v) FROM b, a WHERE a.k = b.k"
        assert probe_for(db, sql).build_side == "left"

    def test_filters_shift_estimates(self, db):
        # An equality filter on a shrinks its estimate below b's.
        sql = "SELECT SUM(w) FROM a, b WHERE a.k = b.k AND v = 2"
        join = plan_for(db, sql).child.child
        assert estimate_rows(join.left) < estimate_rows(join.right)
        probe = probe_for(db, sql)
        assert probe.build_side == "left"
        assert probe.est_build_rows == estimate_rows(join.left)

    def test_left_join_pins_build_right(self, db, build_side):
        # the preserved (left) input streams even where it is the
        # smaller estimate
        with build_side("left"):
            probe = probe_for(
                db, "SELECT v, w FROM a LEFT JOIN b ON a.k = b.k")
        assert probe.build_side == "right" and probe.probe_is_left

    def test_logical_join_names_no_build_side(self, db):
        text = db.explain("SELECT SUM(v) FROM a, b WHERE a.k = b.k")
        logical, physical = text.split("== physical plan ==")
        assert "Join(inner, keys=[a.k = b.k])" in logical
        assert "build=right, ~2 build rows" in physical
        # row estimates ride the physical scans, not the logical ones
        assert "rows" not in logical
        assert "Scan(b, columns=[b.k], ~2 rows)" in physical


class TestPlanShape:
    def test_order_limit_nodes(self, db):
        plan = plan_for(
            db, "SELECT v FROM a ORDER BY v DESC LIMIT 2"
        )
        assert isinstance(plan, Limit) and plan.count == 2
        assert isinstance(plan.child, Sort)
        assert isinstance(plan.child.child, Project)


class TestExplain:
    def test_explain_statement_returns_text(self, db):
        text = db.execute("EXPLAIN SELECT SUM(v) FROM a WHERE v > 1 + 1")
        assert isinstance(text, str)
        assert "logical plan" in text and "physical plan" in text
        assert "(v > 2)" in text  # constant folding visible

    def test_explain_api_accepts_bare_select(self, db):
        text = db.explain("SELECT v FROM a")
        assert "Scan(a" in text

    def test_explain_shows_pushdown_and_build_side(self, db):
        text = db.explain(
            "SELECT a.k, SUM(v) FROM a, b "
            "WHERE a.k = b.k AND w > 15 GROUP BY a.k"
        )
        # Filter below the join: the scan line carries the predicate.
        assert "filter=(w > 15)" in text
        # Projection at the scan.
        assert "columns=[" in text
        assert "HashJoinProbe(inner" in text and "build=" in text
        # An integer probe key of an inner match: the build row decides
        # the group, and the Aggregate line says so.
        assert ", group_ids=build_row(" in text

    def test_explain_shows_engine_choice(self, db):
        # One table, one feeder: no engine choice is left to render,
        # whatever the aggregates.
        for aggregate in ("SUM(v)", "COUNT(DISTINCT v)"):
            plan = db.explain(
                f"SELECT shared, {aggregate} FROM a GROUP BY shared"
            )
            assert "Aggregate[morsel_size=65536](" in plan
            assert "fused" not in plan.lower()

    def test_explain_rejects_dml(self, db):
        with pytest.raises(TypeError):
            db.explain("DELETE FROM a")

    def test_explain_does_not_execute(self, db):
        before = len(db.execute("SELECT * FROM a"))
        db.explain("SELECT COUNT(*) FROM a")
        assert len(db.execute("SELECT * FROM a")) == before
