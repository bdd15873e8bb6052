"""One accounting record per statement: ``last_pipeline_stats``.

The session opens a :class:`~repro.engine.pipeline.PipelineStats` for
each SELECT and INSERT ... SELECT and hands it down; operators and
drivers fill it.  A REFRESH (or its WAL replay) fills a throwaway one,
so none of them leaks into, or inherits from, another statement's.
"""

import pytest

import repro.core
import repro.engine
from repro.engine import Database
from repro.engine.executor import run_planned
from repro.engine.pipeline import BoundedLRU
from repro.tpch import Q3_SQL, load_tpch

VIEW = ("CREATE MATERIALIZED VIEW ext AS "
        "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k")
SERVED = "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k"


def _db(**knobs):
    db = Database(sum_mode="repro", **knobs)
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    db.execute("INSERT INTO t VALUES (1, 0.5), (2, 0.25), (1, 4.0)")
    return db


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


def test_full_mode_refresh_leaves_the_last_select_record():
    db = _db()
    db.execute(VIEW)
    assert db.view("ext").maintenance == "full"
    db.execute("SELECT k, SUM(v) FROM t GROUP BY k")
    record = db.last_pipeline_stats
    db.execute("INSERT INTO t VALUES (3, 1.5)")
    db.execute("REFRESH MATERIALIZED VIEW ext")
    assert db.last_pipeline_stats is record


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
    assert stats.seconds["join_build"] > 0


def test_plan_cache_hit_is_flagged_per_statement():
    db = _db()
    query = "SELECT k, SUM(v) FROM t GROUP BY k"
    db.execute(query)
    assert not db.last_pipeline_stats.plan_cache_hit
    db.execute(query)
    assert db.last_pipeline_stats.plan_cache_hit
    db.execute("INSERT INTO t VALUES (4, 1.0)")  # a new snapshot
    db.execute(query)
    assert not db.last_pipeline_stats.plan_cache_hit


def test_sharded_record_is_sized_by_the_driver():
    with _db(workers=2) as db:
        db.execute("SELECT k, SUM(v) FROM t GROUP BY k")
        stats = db.last_pipeline_stats
        assert stats.sharded and stats.workers == 2
        assert len(stats.worker_busy) == len(stats.worker_morsels) == 2
        assert {"shard_exchange", "aggregation"} <= stats.seconds.keys()
        assert stats.wall_seconds > 0


def test_run_planned_takes_no_record():
    db = _db()
    session = db.default_session
    sql = "SELECT k, SUM(v) FROM t GROUP BY k"
    db.execute(sql)
    record = db.last_pipeline_stats
    physical = session.execution_context._plan_cache.get(
        (sql, session.pin_snapshot(), db.catalog.ddl_epoch)
    )
    result = run_planned(physical, session.execution_context, None,
                         session.pin_snapshot())
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
