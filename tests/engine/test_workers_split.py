"""The ``workers`` split: in process, and invisible in repro bits.

``workers = N`` feeds morsel ``i`` of an in-memory aggregate into
partial group table ``i mod N``; the tables merge exactly, in index
order, before the one finalize.  These tests pin result bits across
worker counts x morsel sizes x engines in every repro configuration,
the ``Aggregate[...]`` line EXPLAIN prints, ``SET workers`` validation,
the retired ``shards`` knob on every surface, snapshot-pinned reads and
writes between split statements, the order the partial tables merge
in, recovery from a failed merge, and that no statement starts a
process or a thread.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.engine.session import Database, Session
from repro.errors import ConfigError, ReproError
from repro.tpch import Q1_SQL, Q3_SQL, load_tpch

QUERIES = [
    "SELECT g, SUM(f), AVG(f), COUNT(*) FROM t GROUP BY g ORDER BY g",
    "SELECT g, SUM(f), COUNT(DISTINCT d), STDDEV(f) FROM t "
    "WHERE f > -1000000.0 GROUP BY g ORDER BY g",
    "SELECT s, SUM(f), SUM(d) FROM t WHERE d < 30 GROUP BY s ORDER BY s",
    "SELECT SUM(f), COUNT(*) FROM t",
    "SELECT COUNT(*) FROM t WHERE g = 3",
]


def _rows(seed=29, n=3000):
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 13, n)
    f = rng.normal(scale=1e7, size=n)
    f[::97] = np.nan
    d = rng.integers(0, 40, n)
    s = np.array(["ant", "bee", "cow", None], dtype=object)[
        rng.integers(0, 4, n)
    ]
    return [
        {"g": int(g[i]), "f": float(f[i]), "d": int(d[i]), "s": s[i]}
        for i in range(n)
    ]


def _populate(db, rows):
    db.execute("CREATE TABLE t (g INT, f DOUBLE, d INT, s VARCHAR)")
    db.table("t").insert_rows(rows)


def _result_bits(result):
    """Byte-exact encoding of a QueryResult (NaN bits included)."""
    pieces = []
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype == object:
            pieces.append("|".join(map(repr, arr.tolist())).encode())
        else:
            pieces.append(arr.dtype.str.encode() + arr.tobytes())
    return tuple(pieces)


def _run_all(rows, dml=(), **kw):
    with Database(**kw) as db:
        _populate(db, rows)
        for statement in dml:
            db.execute(statement)
        return [_result_bits(db.execute(q)) for q in QUERIES]


#: DELETE and UPDATE mask row versions (UPDATE re-appends them at the
#: tail), so the visible rows a morsel holds are not a physical slice.
MASKING_DML = (
    "DELETE FROM t WHERE d = 7",
    "UPDATE t SET f = 0.5 WHERE g = 2 AND d < 20",
)


@pytest.mark.parametrize("levels", [
    pytest.param(2, id="repro"),
    pytest.param(3, id="repro-levels3"),
])
def test_bits_invariant_under_workers(levels, engine_path):
    # 3001 rows (2661 visible after the DML): none of the morsel sizes
    # below divides either count; then fewer rows than tables; then
    # none at all.
    for rows, dml in (
        (_rows(n=3001), MASKING_DML), (_rows(n=5), ()), ([], ()),
    ):
        base = _run_all(rows, dml, sum_mode="repro", levels=levels)
        for config in (
            dict(workers=2),
            dict(workers=2, morsel_size=257),
            dict(workers=3, morsel_size=100),
            dict(workers=8, morsel_size=1),
        ):
            got = _run_all(rows, dml, sum_mode="repro", levels=levels,
                           **config)
            assert got == base, (len(rows), config)
        # Cross-path identity: the row-order reference table agrees
        # with every split above.
        with engine_path("scalar"):
            assert _run_all(
                rows, dml, sum_mode="repro", levels=levels,
                workers=3, morsel_size=100,
            ) == base


def test_explain_renders_workers_on_the_aggregate():
    with Database(sum_mode="repro", workers=8) as db:
        _populate(db, _rows(n=50))
        assert "Aggregate[morsel_size=65536, workers=8](" in db.explain(
            QUERIES[0])
        db.execute("CREATE TABLE names (g INT, label VARCHAR)")
        db.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two')")
        join_plan = db.explain(
            "SELECT names.label, SUM(t.f) FROM t "
            "JOIN names ON t.g = names.g GROUP BY names.label"
        )
        assert ("Aggregate[morsel_size=65536, workers=8, "
                "group_ids=build_row(t.g = names.g)](") in join_plan
        left_plan = db.explain(
            "SELECT names.label, SUM(t.f) FROM t "
            "LEFT JOIN names ON t.g = names.g GROUP BY names.label"
        )
        assert "HashJoinProbe(left" in left_plan
        assert "Aggregate[morsel_size=65536, workers=8](" in left_plan
        # an external aggregate has one spilling sink
        db.memory_budget = 1
        external = db.explain(QUERIES[0])
        assert "Aggregate[morsel_size=65536, external(" in external
        assert "workers=" not in external


def test_set_workers_takes_effect_and_validates():
    with Database(sum_mode="repro", morsel_size=50) as db:
        _populate(db, _rows(n=400))
        base = _result_bits(db.execute(QUERIES[0]))
        assert "Aggregate[morsel_size=50](" in db.explain(QUERIES[0])
        for workers in (4, 2, 1):
            db.execute(f"SET workers = {workers}")
            assert _result_bits(db.execute(QUERIES[0])) == base
            assert db.last_pipeline_stats.workers == workers
        assert "workers=" not in db.explain(QUERIES[0])
        for bad in ("0", "1.5", "'x'"):
            with pytest.raises(ConfigError, match="workers"):
                db.execute(f"SET workers = {bad}")
        assert db.execution_context.workers == 1


@pytest.fixture(scope="module")
def tpch_db():
    with Database(sum_mode="repro", morsel_size=256) as db:
        load_tpch(db, scale_factor=0.002)
        yield db


@pytest.mark.parametrize("query", [
    pytest.param(Q1_SQL, id="q1"),
    pytest.param(Q3_SQL, id="q3"),
    pytest.param(
        "SELECT o_orderstatus, SUM(l_extendedprice), COUNT(*) "
        "FROM orders LEFT JOIN lineitem ON o_orderkey = l_orderkey "
        "GROUP BY o_orderstatus ORDER BY o_orderstatus",
        id="left-join",
    ),
])
def test_set_workers_splits_in_process(tpch_db, query):
    """``SET workers = 4`` splits TPC-H Q1, Q3 and a LEFT JOIN
    aggregate over four partial tables in this process: the one-table
    bits, no child process, no thread."""
    threads = set(threading.enumerate())
    session = tpch_db.session()
    expected = _result_bits(session.execute(query))
    session.execute("SET workers = 4")
    assert "workers=4" in session.explain(query)
    assert _result_bits(session.execute(query)) == expected
    stats = session.last_pipeline_stats
    assert stats.workers == 4 and stats.morsel_count > 4
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads


SHAPES = {
    "left-join": "SELECT names.label, SUM(t.f) FROM t LEFT JOIN names "
                 "ON t.g = names.g GROUP BY names.label ORDER BY names.label",
    "projection": "SELECT g, f FROM t WHERE d < 3",
    "constant": "SELECT 1 + 1",
}


@pytest.mark.parametrize("shape", [*SHAPES, "external"])
def test_every_plan_shape_matches_serial_bits(shape):
    """A LEFT-join aggregate, a projection, a constant SELECT and an
    external aggregate at ``workers=2`` serve the ``workers=1`` bits."""
    with Database(sum_mode="repro", workers=2, morsel_size=64) as db:
        _populate(db, _rows(n=300))
        db.execute("CREATE TABLE names (g INT, label VARCHAR)")
        db.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two')")
        serial = db.session(workers=1)
        query = SHAPES.get(shape, QUERIES[0])
        if shape == "external":
            db.memory_budget = 1
        assert _result_bits(db.execute(query)) == _result_bits(
            serial.execute(query))
        if shape == "external":
            stats = db.last_pipeline_stats
            assert stats.external and stats.workers == 1


def test_retired_shards_fails_naming_workers():
    """``shards`` folded into ``workers``: every surface that took it
    fails, naming its successor — ``SET``, the constructors, a session
    option and a default (the wire hello: ``test_server``) — and
    ``shard_workers`` with it."""
    with Database(sum_mode="repro") as db:
        for name in ("shards", "shard_workers"):
            with pytest.raises(ConfigError, match="retired: workers") as err:
                db.execute(f"SET {name} = 2")
            assert name in str(err.value)
            assert name not in db.execution_context.PARAM_NAMES
            with pytest.raises(TypeError, match=name):
                Database(**{name: 2})
            with pytest.raises(TypeError, match=name):
                Session(db, **{name: 2})
            for unknown in (lambda: db.session(**{name: 2}),
                            lambda: db.set_default(name, 2)):
                with pytest.raises(ReproError, match="unknown session") as err:
                    unknown()
                assert name in str(err.value)
                assert "workers" in str(err.value).replace(name, "")
            assert not hasattr(db.execution_context, name)


def test_snapshot_pinned_reads_are_stable_under_the_split():
    with Database(sum_mode="repro", workers=2, morsel_size=64) as db:
        _populate(db, _rows(n=500))
        session = db.default_session
        with session.snapshot():
            before = _result_bits(session.execute(QUERIES[0]))
            db.table("t").insert_rows([{"g": 1, "f": 9.0, "d": 1, "s": "x"}])
            assert _result_bits(session.execute(QUERIES[0])) == before
        assert _result_bits(session.execute(QUERIES[0])) != before


JOIN_QUERY = (
    "SELECT names.label, SUM(t.f), COUNT(*) FROM t "
    "JOIN names ON t.g = names.g GROUP BY names.label ORDER BY names.label"
)


def test_writes_between_split_queries_are_seen():
    """A split statement reads the snapshot it was admitted at: a
    committed write to another table changes nothing (the cached join
    build still hits), a write to the scanned table is seen by the next
    statement, a reader pinned before it keeps the old bits, and every
    state matches a ``workers=1`` database that took the same writes."""
    extra = [{"g": 3, "f": 1.5, "d": 99, "s": "new"},
             {"g": 99, "f": -2.25, "d": 1, "s": None}]

    def run(session, query=QUERIES[0]):
        bits = _result_bits(session.execute(query))
        assert session.last_pipeline_stats.workers == (
            session.execution_context.workers)
        return bits

    with Database(sum_mode="repro", workers=2, morsel_size=64) as db:
        _populate(db, _rows(n=600))
        db.execute("CREATE TABLE names (g INT, label VARCHAR)")
        db.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two'), (3, 'x')")
        db.execute("CREATE TABLE other (x INT)")
        session = db.session()

        before = run(session)
        join_before = run(session, JOIN_QUERY)
        assert run(session, JOIN_QUERY) == join_before
        assert session.last_pipeline_stats.join_cache_hits == 1

        db.execute("INSERT INTO other VALUES (1)")
        assert run(session) == before
        assert run(session, JOIN_QUERY) == join_before
        stats = session.last_pipeline_stats
        assert (stats.join_cache_misses, stats.join_cache_hits) == (0, 1)

        pinned = db.session()
        with pinned.snapshot():
            assert run(pinned) == before
            db.table("t").insert_rows(extra)
            after = run(session)
            assert after != before
            assert run(session, JOIN_QUERY) != join_before
            assert run(pinned) == before
        assert run(pinned) == after

        db.execute("DELETE FROM t WHERE g = 99")
        reverted = run(session)
        assert reverted not in (before, after)
    with Database(sum_mode="repro") as db:
        _populate(db, _rows(n=600))
        assert _result_bits(db.execute(QUERIES[0])) == before
        db.table("t").insert_rows(extra)
        assert _result_bits(db.execute(QUERIES[0])) == after
        db.execute("DELETE FROM t WHERE g = 99")
        assert _result_bits(db.execute(QUERIES[0])) == reverted


@pytest.mark.parametrize("levels", [
    pytest.param(2, id="repro"),
    pytest.param(3, id="repro-levels3"),
])
def test_partial_table_merge_order_invariance(levels, monkeypatch):
    """Permute the order the split's partial tables merge in; bits
    must hold.  The finish merges them in index order, but the paper's
    combine is order-free, so any order is the same answer — for SUM,
    AVG, STDDEV and COUNT DISTINCT alike."""
    from repro.engine import pipeline

    rows = _rows(n=800)
    base = _run_all(rows, sum_mode="repro", levels=levels)
    finish = pipeline.finish_grouped
    for seed in range(5):
        rng = np.random.default_rng(seed)
        merged = []

        def permuted(partitions, *args, _rng=rng):
            shuffled = []
            for held, sources in partitions:
                sources = list(sources)
                _rng.shuffle(sources)
                merged.append(len(sources))
                shuffled.append((held, sources))
            return finish(shuffled, *args)

        monkeypatch.setattr(pipeline, "finish_grouped", permuted)
        got = _run_all(rows, sum_mode="repro", levels=levels,
                       workers=8, morsel_size=50)
        assert got == base, f"merge permutation seed={seed}"
        assert merged and set(merged) == {8}
    monkeypatch.setattr(pipeline, "finish_grouped", finish)


def test_failed_merge_raises_and_the_next_statement_recovers(monkeypatch):
    """A statement that fails while its partial tables merge raises,
    and leaves nothing behind: the next statement serves the bits."""
    from repro.engine import vectorized

    with Database(sum_mode="repro", workers=2, morsel_size=64) as db:
        _populate(db, _rows(n=300))
        base = _result_bits(db.execute(QUERIES[0]))

        def broken_merge(self, other):
            raise ReproError("merge failed")

        monkeypatch.setattr(vectorized.VectorizedGroupTable, "merge",
                            broken_merge)
        with pytest.raises(ReproError, match="merge failed"):
            db.execute(QUERIES[0])
        monkeypatch.undo()
        assert _result_bits(db.execute(QUERIES[0])) == base
        assert db.last_pipeline_stats.workers == 2


def test_closed_sessions_and_database_stay_usable():
    """Neither a session nor an in-memory database holds a process or a
    thread, so ``close`` has nothing to stop: it is idempotent, and
    the catalog serves the same bits through a fresh session after it."""
    threads = set(threading.enumerate())
    db = Database(sum_mode="repro", workers=2, morsel_size=64)
    _populate(db, _rows(n=200))
    s1, s2 = db.session(), db.session(workers=3)
    base = _result_bits(s1.execute(QUERIES[0]))
    assert _result_bits(s2.execute(QUERIES[0])) == base
    s1.close()
    s1.close()
    db.close()
    db.close()
    s3 = db.session()
    assert _result_bits(s3.execute(QUERIES[0])) == base
    db.close()
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) == threads
