"""A cached plan is a fresh plan: the plan cache holds only what the SQL
text and the schema decide.

The session caches a SELECT's optimized *logical* plan under ``(sql
text, catalog DDL epoch)`` and lowers it at every execution's own
snapshot and knobs.  Under drawn interleavings of INSERT / DELETE /
UPDATE / REFRESH / ``SET`` (all three knobs) / DROP + re-CREATE, over a
table with a view per sum mode and a join partner, a warm session's
SELECT must return the bits of a fresh session with the same knobs, in
``repro`` and in ``ieee`` — and after any write that is not DDL, the
warm session's repeat must be a plan-cache hit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database

MODES = ("repro", "ieee")

#: ``tv_<mode>``: one view per mode, so each mode has one to be served
#: from (a view only answers sessions of its own sum configuration).
VIEW_BODY = "SELECT s, SUM(v) AS sv, COUNT(*) AS c FROM t GROUP BY s"
QUERIES = (
    VIEW_BODY,
    "SELECT t.k, SUM(v * w) AS sw, COUNT(*) AS c FROM t, r "
    "WHERE t.k = r.k GROUP BY t.k",
    "SELECT s, SUM(v) AS sv FROM t WHERE v > 0 GROUP BY s",
)

#: values whose IEEE sums depend on the order they arrive in
VALUES = st.one_of(
    st.sampled_from([1e16, -1e16, 1.0, 0.1, -0.0, 5e-324, 3.5, -2.25e-7]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
T_ROWS = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from(["a", "b", ""]), VALUES),
    min_size=1, max_size=12,
)
R_ROWS = st.lists(
    st.tuples(st.integers(0, 4), VALUES), min_size=1, max_size=6,
)
KNOBS = {
    "workers": st.sampled_from([1, 2]),
    "morsel_size": st.sampled_from([1, 3, 65536]),
    "memory_budget": st.sampled_from([0, 1, 4096]),
}
STEPS = st.one_of(
    st.tuples(st.just("insert_t"), T_ROWS),
    st.tuples(st.just("insert_r"), R_ROWS),
    st.tuples(st.just("delete"), st.integers(0, 4)),
    st.tuples(st.just("update"), st.integers(0, 4), VALUES),
    st.tuples(st.just("refresh")),
    st.sampled_from(sorted(KNOBS)).flatmap(
        lambda name: st.tuples(st.just("set"), st.just(name), KNOBS[name])
    ),
    st.tuples(st.just("recreate_r"), R_ROWS),
    st.tuples(st.just("recreate_views")),
)


def _t_values(rows) -> str:
    return ", ".join(f"({k}, '{s}', {v!r})" for k, s, v in rows)


def _r_values(rows) -> str:
    return ", ".join(f"({k}, {w!r})" for k, w in rows)


def _bits(result) -> tuple:
    return tuple(
        repr(arr.tolist()).encode() if arr.dtype == object else arr.tobytes()
        for arr in map(np.asarray, result.arrays)
    )


def _apply(db, warm, knobs, step) -> bool:
    """Run one drawn step; True when it was table DDL (a new epoch)."""
    kind = step[0]
    if kind == "insert_t":
        db.execute(f"INSERT INTO t VALUES {_t_values(step[1])}")
    elif kind == "insert_r":
        db.execute(f"INSERT INTO r VALUES {_r_values(step[1])}")
    elif kind == "delete":
        db.execute(f"DELETE FROM t WHERE k = {step[1]}")
    elif kind == "update":
        db.execute(f"UPDATE t SET v = v + {step[2]!r} WHERE k = {step[1]}")
    elif kind == "refresh":
        for mode in MODES:
            db.execute(f"REFRESH MATERIALIZED VIEW tv_{mode}")
    elif kind == "set":
        _, name, value = step
        knobs[name] = value
        for session in warm.values():
            session.execute(f"SET {name} = '{value}'")
    elif kind == "recreate_r":
        db.execute("DROP TABLE r")
        db.execute("CREATE TABLE r (k INT, w DOUBLE)")
        db.execute(f"INSERT INTO r VALUES {_r_values(step[1])}")
        return True
    else:  # recreate_views: view DDL names no table a plan binds
        for mode, session in warm.items():
            session.execute(f"DROP MATERIALIZED VIEW tv_{mode}")
            session.execute(
                f"CREATE MATERIALIZED VIEW tv_{mode} AS {VIEW_BODY}"
            )
    return False


def _check(db, warm, knobs, expect_hit: bool) -> None:
    """Every query on each warm session against a fresh session with
    the same mode and knobs, at the same (quiescent) snapshot."""
    for mode, session in warm.items():
        fresh = db.session(sum_mode=mode, **knobs)
        try:
            for sql in QUERIES:
                got = _bits(session.execute(sql))
                hit = session.last_pipeline_stats.plan_cache_hit
                want = _bits(fresh.execute(sql))
                assert not fresh.last_pipeline_stats.plan_cache_hit
                assert got == want, (mode, sql, knobs)
                if expect_hit:
                    assert hit, (mode, sql)
        finally:
            fresh.close()


@settings(max_examples=25, deadline=None)
@given(initial=T_ROWS, partner=R_ROWS,
       steps=st.lists(STEPS, min_size=1, max_size=6))
def test_cached_plan_gives_a_fresh_plans_bits(initial, partner, steps):
    db = Database()
    try:
        db.execute("CREATE TABLE t (k INT, s VARCHAR(2), v DOUBLE)")
        db.execute("CREATE TABLE r (k INT, w DOUBLE)")
        db.execute(f"INSERT INTO t VALUES {_t_values(initial)}")
        db.execute(f"INSERT INTO r VALUES {_r_values(partner)}")
        warm = {mode: db.session(sum_mode=mode) for mode in MODES}
        for mode, session in warm.items():
            session.execute(f"CREATE MATERIALIZED VIEW tv_{mode} AS {VIEW_BODY}")
        knobs = {"workers": 1, "morsel_size": 65536, "memory_budget": 0}
        _check(db, warm, knobs, expect_hit=False)
        for step in steps:
            ddl = _apply(db, warm, knobs, step)
            _check(db, warm, knobs, expect_hit=not ddl)
    finally:
        db.close()
