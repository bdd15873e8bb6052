"""One accounting record per statement: ``last_pipeline_stats``.

The session opens a :class:`~repro.engine.pipeline.PipelineStats` for
each SELECT, INSERT ... SELECT, REFRESH and CREATE MATERIALIZED VIEW
and hands it down; operators and drivers fill it, so no record leaks
into, or inherits from, another statement's.
"""

import numpy as np
import pytest

import repro.core
import repro.engine
from repro.engine import Database
from repro.engine.executor import lower, run_planned
from repro.engine.pipeline import BoundedLRU
from repro.engine.table import Table
from repro.tpch import Q1_SQL, Q3_SQL, load_lineitem, load_tpch

VIEW = ("CREATE MATERIALIZED VIEW ext AS "
        "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k")
SERVED = "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k"


def _db(**knobs):
    db = Database(sum_mode="repro", **knobs)
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    db.execute("INSERT INTO t VALUES (1, 0.5), (2, 0.25), (1, 4.0)")
    return db


def _bits(result) -> list:
    return [np.asarray(arr).tobytes() if np.asarray(arr).dtype != object
            else np.asarray(arr).tolist() for arr in result.arrays]


def test_scans_copy_rows_only_when_a_delete_is_visible():
    """``scan_rows_copied``: Q1 over a table no DELETE touched slices
    its columns (0); once its snapshot sees a delete the scan copies the
    visible rows, and the bits equal those of a table that holds only
    the survivors and slices them."""
    db = Database(sum_mode="repro")
    load_lineitem(db, scale_factor=0.002)
    db.execute(Q1_SQL)
    assert db.last_pipeline_stats.scan_rows_copied == 0

    reader = db.session()
    with reader.snapshot():
        db.execute("DELETE FROM lineitem WHERE l_quantity > 40")
        reader.execute(Q1_SQL)  # pinned before the delete: a slice
        assert reader.last_pipeline_stats.scan_rows_copied == 0
    masked = db.execute(Q1_SQL)
    table = db.table("lineitem")
    assert db.last_pipeline_stats.scan_rows_copied == len(table) > 0

    survivors = Database(sum_mode="repro")
    kept = Table("lineitem", table.schema)
    kept.bulk_load(table.scan())
    survivors.catalog.add(kept)
    sliced = survivors.execute(Q1_SQL)
    assert survivors.last_pipeline_stats.scan_rows_copied == 0
    assert _bits(sliced) == _bits(masked)


def test_view_served_select_reports_a_fresh_record():
    db = _db(memory_budget=1)
    db.execute(VIEW)
    db.execute("SELECT k, SUM(v) FROM t GROUP BY k")
    previous = db.last_pipeline_stats
    assert previous.external
    assert "ViewScan(ext" in db.explain(SERVED)
    db.execute(SERVED)
    stats = db.last_pipeline_stats
    assert stats is not previous
    assert not stats.external and stats.morsel_count == 0
    assert stats.seconds == {}


def test_refresh_fills_its_own_record():
    """A REFRESH is a pipeline run with its own record: an insert-only
    delta of 1 row into a multi-morsel table feeds that 1 row."""
    db = Database(sum_mode="repro", morsel_size=2)
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    db.execute("INSERT INTO t VALUES (1, 0.5), (2, 0.25), (1, 2.0), (3, 1.0), "
               "(2, 4.0)")
    db.execute("CREATE MATERIALIZED VIEW mv AS "
               "SELECT k, SUM(v) AS s FROM t GROUP BY k")
    created = db.last_pipeline_stats
    assert created.morsel_count == 3 and created.ladder_rows_scatter == 5
    db.execute("SELECT k, SUM(v) FROM t GROUP BY k")
    record = db.last_pipeline_stats
    db.execute("INSERT INTO t VALUES (3, 1.5)")
    assert db.execute("REFRESH MATERIALIZED VIEW mv") == 1
    stats = db.last_pipeline_stats
    assert stats is not record and stats is not created
    assert stats.morsel_count == 1
    assert stats.ladder_rows_scatter + stats.ladder_rows_reference == 1
    assert stats.seconds.keys() >= {"scan", "aggregation"}


def test_repeated_q3_counts_its_own_join_cache_hit():
    db = Database(sum_mode="repro")
    load_tpch(db, scale_factor=0.002)
    db.execute(Q3_SQL)
    first = db.last_pipeline_stats
    assert (first.join_cache_hits, first.join_cache_misses) == (0, 2)
    db.execute(Q3_SQL)
    # the outer build is cached whole, the nested one inside it
    stats = db.last_pipeline_stats
    assert (stats.join_cache_hits, stats.join_cache_misses) == (1, 0)
    assert stats.seconds["hash_build"] > 0


def test_plan_cache_hit_is_flagged_per_statement():
    db = _db()
    query = "SELECT k, SUM(v) FROM t GROUP BY k"
    db.execute(query)
    assert not db.last_pipeline_stats.plan_cache_hit
    db.execute(query)
    assert db.last_pipeline_stats.plan_cache_hit
    db.execute("INSERT INTO t VALUES (4, 1.0)")  # a new snapshot, same plan
    assert (4, 1.0) in db.execute(query).rows()
    assert db.last_pipeline_stats.plan_cache_hit
    db.execute("CREATE TABLE u (k INT)")  # DDL: a new epoch
    db.execute(query)
    assert not db.last_pipeline_stats.plan_cache_hit


def test_refresh_lets_a_cached_plan_serve_from_the_view():
    """The cached plan names no view: the SELECT planned while the
    view was stale is lowered onto the view once a REFRESH made it
    fresh at the query's snapshot — a hit, with no base scan."""
    db = _db()
    db.execute(VIEW)
    db.execute("INSERT INTO t VALUES (3, 1.5)")
    db.execute(SERVED)
    assert db.last_pipeline_stats.morsel_count > 0
    db.execute(SERVED)
    assert db.last_pipeline_stats.plan_cache_hit
    db.execute("REFRESH MATERIALIZED VIEW ext")
    assert "ViewScan(ext" in db.explain(SERVED)
    db.execute(SERVED)
    stats = db.last_pipeline_stats
    assert stats.plan_cache_hit
    assert stats.morsel_count == 0


def test_split_record_is_sized_by_the_driver():
    with _db(workers=2) as db:
        db.execute("SELECT k, SUM(v) FROM t GROUP BY k")
        stats = db.last_pipeline_stats
        assert stats.workers == 2
        assert "aggregation" in stats.seconds
        assert stats.wall_seconds > 0


def test_run_planned_takes_no_record():
    db = _db()
    session = db.default_session
    sql = "SELECT k, SUM(v) FROM t GROUP BY k"
    db.execute(sql)
    record = db.last_pipeline_stats
    logical = session.execution_context._plan_cache.get(
        (sql, db.catalog.ddl_epoch)
    )
    snapshot = session.pin_snapshot()
    physical = lower(logical, session.sum_config,
                     session.execution_context, snapshot=snapshot)
    result = run_planned(physical, session.execution_context, None,
                         snapshot)
    assert db.last_pipeline_stats is record  # not the session's statement
    assert result.rows() == db.execute(sql).rows()


@pytest.mark.parametrize("owner", ("database", "session"))
def test_last_timings_is_retired_loudly(owner):
    db = _db()
    target = db if owner == "database" else db.session()
    with pytest.raises(AttributeError, match="last_pipeline_stats"):
        target.last_timings
    with pytest.raises(AttributeError, match="last_pipeline_stats"):
        target.last_timings = None


def test_retired_names_leave_the_packages():
    assert "OperatorTimings" not in repro.engine.__all__
    assert not hasattr(repro.engine, "OperatorTimings")
    assert "ScalarRsumPaper" not in repro.core.__all__
    assert not hasattr(repro.core, "ScalarRsumPaper")


def test_bounded_lru_evicts_the_least_recent():
    cache = BoundedLRU(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # now the most recent
    cache.put("c", 3)
    assert list(cache) == ["a", "c"]
    assert cache.get("b") is None
    cache.put("a", 4)
    assert len(cache) == 2 and cache.get("a") == 4
