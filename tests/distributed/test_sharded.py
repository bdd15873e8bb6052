"""Multi-process execution: distribution must be invisible.

``workers = N > 1`` deals a table's rows to N executor *processes* and
exchanges partial group tables over the spill wire format; that changes
wall-clock, never bits.  These tests pin result bits across worker
counts x exchange-arrival order x morsel sizes x engines, in every
repro sum mode; what names a shipped replica (the table's own content,
so a write elsewhere re-ships nothing); which plans run in-process; the
retired ``shards`` knob on every surface; and the lifecycle contract:
no executor process survives ``Database.close()``, and no thread is
started.
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.distributed import coordinator
from repro.engine.session import Database, Session
from repro.errors import ConfigError, ReproError

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


# -- bit identity across the distribution matrix ---------------------------

#: DELETE and UPDATE mask row versions (UPDATE re-appends them at the
#: tail), so the visible rows a stride deals are not a physical prefix.
MASKING_DML = (
    "DELETE FROM t WHERE d = 7",
    "UPDATE t SET f = 0.5 WHERE g = 2 AND d < 20",
)


#: repro at the default ladder depth and one level deeper: an executor
#: must sum with the session's ``levels``, not its own default.
REPRO_CONFIGS = [
    pytest.param("repro", 2, id="repro"),
    pytest.param("repro", 3, id="repro-levels3"),
]


@pytest.mark.parametrize("mode, levels", REPRO_CONFIGS)
def test_bits_invariant_under_sharding(mode, levels, engine_path):
    # 3001 rows (2661 visible after the DML): neither 3 nor 8 divides
    # either count; then fewer rows than shards; then none at all.
    for rows, dml in (
        (_rows(n=3001), MASKING_DML), (_rows(n=5), ()), ([], ()),
    ):
        base = _run_all(rows, dml, sum_mode=mode, levels=levels)
        for config in (
            dict(workers=2),
            dict(workers=3),
            dict(workers=8),
            dict(workers=2, morsel_size=257),
        ):
            got = _run_all(rows, dml, sum_mode=mode, levels=levels,
                           **config)
            assert got == base, (len(rows), config)
        # Cross-path identity: the in-process scalar reference table
        # agrees with every sharded run above.
        with engine_path("scalar"):
            assert _run_all(
                rows, dml, sum_mode=mode, levels=levels
            ) == base


def test_explain_renders_sharded_aggregate():
    with Database(sum_mode="repro", workers=8) as db:
        _populate(db, _rows(n=50))
        plan = db.explain(QUERIES[0])
        assert "ShardedAggregate(workers=8)[morsel_size=" in plan
        # Inner-join plans shard too: the build side is broadcast to
        # the executors, which walk the same chain (the build-row rule
        # ships with it).
        db.execute("CREATE TABLE names (g INT, label VARCHAR)")
        db.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two')")
        join_plan = db.explain(
            "SELECT names.label, SUM(t.f) FROM t "
            "JOIN names ON t.g = names.g GROUP BY names.label"
        )
        assert "ShardedAggregate" in join_plan
        assert "group_ids=build_row(t.g = names.g)" in join_plan
        # LEFT-join plans run in-process.
        left_plan = db.explain(
            "SELECT names.label, SUM(t.f) FROM t "
            "LEFT JOIN names ON t.g = names.g GROUP BY names.label"
        )
        assert "HashJoinProbe(left" in left_plan
        assert "ShardedAggregate" not in left_plan
        assert "Aggregate[morsel_size=" in left_plan


def test_set_workers_takes_effect_and_validates():
    with Database(sum_mode="repro") as db:
        _populate(db, _rows(n=400))
        base = _result_bits(db.execute(QUERIES[0]))
        assert "Aggregate[morsel_size=65536](" in db.explain(QUERIES[0])
        db.execute("SET workers = 4")
        assert "ShardedAggregate(workers=4)" in db.explain(QUERIES[0])
        assert _result_bits(db.execute(QUERIES[0])) == base
        stats = db.last_pipeline_stats
        assert stats.sharded and stats.workers == 4
        assert stats.exchange_bytes > 0
        # One executor per shard: a new worker count is a new fleet.
        first = set(db.execution_context._shard_pool.pids)
        assert len(first) == 4
        db.execute("SET workers = 2")
        assert _result_bits(db.execute(QUERIES[0])) == base
        second = set(db.execution_context._shard_pool.pids)
        assert len(second) == 2 and not (first & second)
        assert len(multiprocessing.active_children()) == 2
        db.execute("SET workers = 1")
        assert db.execution_context._shard_pool is None
        assert "ShardedAggregate" not in db.explain(QUERIES[0])
        for bad in ("0", "1.5", "'x'"):
            with pytest.raises(ConfigError, match="workers"):
                db.execute(f"SET workers = {bad}")
    assert multiprocessing.active_children() == []


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
    assert multiprocessing.active_children() == []


JOIN_QUERY = (
    "SELECT names.label, SUM(t.f), COUNT(*) FROM t "
    "JOIN names ON t.g = names.g GROUP BY names.label ORDER BY names.label"
)


def test_insert_reshards_by_versioning(monkeypatch):
    """A replica is named by the content of the table it copies: a
    committed write to another table ships nothing (the cliff this test
    pins: at the parent it re-hashed and re-shipped every replica), a
    write to the table ships each of its replicas once, and a reader
    pinned before that write keeps reading the old rows."""
    shipped = []  # (executor, slot) per replica / build sent
    send = coordinator._send

    def recording_send(pool, stats, worker_id, slot, token, message):
        shipped.append((worker_id, slot))
        send(pool, stats, worker_id, slot, token, message)

    monkeypatch.setattr(coordinator, "_send", recording_send)

    def run(session, query=QUERIES[0]):
        del shipped[:]
        bits = _result_bits(session.execute(query))
        return bits, session.last_pipeline_stats.exchange_bytes, list(shipped)

    extra = [{"g": 3, "f": 1.5, "d": 99, "s": "new"},
             {"g": 99, "f": -2.25, "d": 1, "s": None}]
    with Database(sum_mode="repro", workers=2) as db:
        _populate(db, _rows(n=600))
        db.execute("CREATE TABLE names (g INT, label VARCHAR)")
        db.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two'), (3, 'x')")
        db.execute("CREATE TABLE other (x INT)")
        session, serial = db.session(), db.session(workers=1)

        before, first_bytes, sent = run(session)
        assert [w for w, _ in sent] == [0, 1]
        _, steady, sent = run(session)
        assert not sent and steady < first_bytes
        # Same columns of ``t`` as above: the replicas are shared, only
        # the build over ``names`` travels.
        join_before, _, sent = run(session, JOIN_QUERY)
        assert [(w, slot[0]) for w, slot in sent] == [
            (0, "join_build"), (1, "join_build"),
        ]
        _, join_steady, sent = run(session, JOIN_QUERY)
        assert not sent
        run(serial, JOIN_QUERY)
        stats = serial.last_pipeline_stats
        assert (stats.join_cache_misses, stats.join_cache_hits) == (1, 0)
        run(serial, JOIN_QUERY)
        stats = serial.last_pipeline_stats
        assert (stats.join_cache_misses, stats.join_cache_hits) == (0, 1)

        # A committed write to an unrelated table moves the snapshot
        # and nothing else: steady-state bytes, the cached build hit.
        db.execute("INSERT INTO other VALUES (1)")
        assert run(session) == (before, steady, [])
        assert run(session, JOIN_QUERY) == (join_before, join_steady, [])
        assert run(serial, JOIN_QUERY)[0] == join_before
        stats = serial.last_pipeline_stats
        assert (stats.join_cache_misses, stats.join_cache_hits) == (0, 1)

        # A write to the sharded table: each of its replicas once, the
        # build over ``names`` not at all; the reader pinned before it
        # keeps the old bits.
        pinned = db.session()
        with pinned.snapshot():
            assert run(pinned)[0] == before
            db.table("t").insert_rows(extra)
            after, bytes_after, sent = run(session)
            assert after != before and bytes_after > steady
            assert sorted((w, slot[0]) for w, slot in sent) == [
                (0, "t"), (1, "t"),
            ]
            join_after, _, sent = run(session, JOIN_QUERY)
            assert join_after != join_before and not sent
            for round_ in range(3):
                old, old_bytes, old_sent = run(pinned)
                new, new_bytes, new_sent = run(session)
                assert (old, new) == (before, after), round_
                assert not new_sent and new_bytes == run(session)[1]
                # the pinned reader's name for the old rows changed once
                # (from the table's watermark to its own snapshot)
                assert len(old_sent) == (2 if round_ == 0 else 0), round_
        assert run(pinned)[0] == after

        db.execute("DELETE FROM t WHERE g = 99")
        reverted, _, sent = run(session)
        assert len(sent) == 2
    with Database(sum_mode="repro") as db:
        _populate(db, _rows(n=600))
        assert _result_bits(db.execute(QUERIES[0])) == before
        db.table("t").insert_rows(extra)
        assert _result_bits(db.execute(QUERIES[0])) == after
        db.execute("DELETE FROM t WHERE g = 99")
        assert _result_bits(db.execute(QUERIES[0])) == reverted


def test_snapshot_pinned_reads_are_stable_under_sharding():
    with Database(sum_mode="repro", workers=2) as db:
        _populate(db, _rows(n=500))
        session = db.default_session
        with session.snapshot():
            before = _result_bits(session.execute(QUERIES[0]))
            db.table("t").insert_rows([{"g": 1, "f": 9.0, "d": 1, "s": "x"}])
            assert _result_bits(session.execute(QUERIES[0])) == before
        assert _result_bits(session.execute(QUERIES[0])) != before


# -- exchange-arrival order invariance -------------------------------------


@pytest.mark.parametrize("mode, levels", REPRO_CONFIGS)
def test_exchange_arrival_order_invariance(mode, levels, monkeypatch):
    """Permute which ready executor is served first; bits must hold.

    Covers every sum mode plus COUNT DISTINCT — the states whose merge
    the paper proves exact.
    """
    rows = _rows(n=800)
    base = _run_all(rows, sum_mode=mode, levels=levels)
    for seed in range(5):
        shuffle_rng = np.random.default_rng(seed)

        def permute(ready, _rng=shuffle_rng):
            _rng.shuffle(ready)
            return ready

        monkeypatch.setattr(coordinator, "_service_order", permute)
        got = _run_all(rows, sum_mode=mode, levels=levels, workers=8)
        assert got == base, f"arrival permutation seed={seed}"
    monkeypatch.setattr(coordinator, "_service_order", None)


# -- lifecycle: nothing survives close() -----------------------------------


def test_no_stray_processes_or_threads_after_close():
    """A Q1-shaped aggregate at ``workers=2`` starts exactly two
    executor processes and no thread; ``close`` stops both."""
    before_threads = set(threading.enumerate())
    with Database(sum_mode="repro", workers=2) as db:
        _populate(db, _rows(n=300))
        assert multiprocessing.active_children() == []
        db.execute(
            "SELECT s, SUM(f), AVG(f), COUNT(*) FROM t WHERE d < 30 "
            "GROUP BY s ORDER BY s"
        )
        assert db.last_pipeline_stats.sharded
        assert len(multiprocessing.active_children()) == 2
        assert set(threading.enumerate()) == before_threads
    assert multiprocessing.active_children() == []
    stray = {
        t for t in set(threading.enumerate()) - before_threads if t.is_alive()
    }
    assert not stray, [t.name for t in stray]


def test_plans_the_executors_cannot_run_stay_in_process():
    """A LEFT-join aggregate, a projection, an external aggregate and
    dual run in-process at ``workers=2``: no fleet is spawned."""
    with Database(sum_mode="repro", workers=2) as db:
        _populate(db, _rows(n=300))
        db.execute("CREATE TABLE names (g INT, label VARCHAR)")
        db.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two')")
        serial = db.session(workers=1)
        left = ("SELECT names.label, SUM(t.f) FROM t LEFT JOIN names "
                "ON t.g = names.g GROUP BY names.label ORDER BY names.label")
        for query in (left, "SELECT g, f FROM t WHERE d < 3", "SELECT 1 + 1"):
            assert "ShardedAggregate" not in db.explain(query)
            bits = _result_bits(db.execute(query))
            assert not db.last_pipeline_stats.sharded
            assert bits == _result_bits(serial.execute(query))
        assert "Aggregate[morsel_size=65536](" in db.explain(left)
        db.memory_budget = 1
        assert "Aggregate[morsel_size=65536, external(" in db.explain(QUERIES[0])
        assert _result_bits(db.execute(QUERIES[0])) == _result_bits(
            serial.execute(QUERIES[0])
        )
        assert db.last_pipeline_stats.external
        assert not db.last_pipeline_stats.sharded
        assert multiprocessing.active_children() == []


def test_session_close_is_idempotent_and_db_closes_all_sessions():
    db = Database(sum_mode="repro", workers=2)
    _populate(db, _rows(n=200))
    s1 = db.session()
    s2 = db.session(workers=3)
    s1.execute(QUERIES[3])
    s2.execute(QUERIES[3])
    assert len(multiprocessing.active_children()) == 2 + 3
    db.close()
    assert multiprocessing.active_children() == []
    s1.close()  # idempotent
    db.close()
    # The database stays usable: a fresh session spins a fresh pool.
    s3 = db.session()
    s3.execute(QUERIES[3])
    db.close()
    assert multiprocessing.active_children() == []


def test_executor_crash_heals_between_queries():
    with Database(sum_mode="repro", workers=2) as db:
        _populate(db, _rows(n=200))
        base = _result_bits(db.execute(QUERIES[0]))
        pool = db.execution_context._shard_pool
        for proc in pool._procs:
            proc.terminate()
            proc.join()
        # A dead fleet is detected at admission and replaced.
        assert _result_bits(db.execute(QUERIES[0])) == base
        assert db.execution_context._shard_pool is not pool


def test_executor_death_mid_exchange_raises_and_recovers(monkeypatch):
    with Database(sum_mode="repro", workers=2) as db:
        _populate(db, _rows(n=200))
        base = _result_bits(db.execute(QUERIES[0]))
        pool = db.execution_context._shard_pool
        for proc in pool._procs:
            proc.terminate()
            proc.join()
        # Pin the dead pool past the liveness check: the coordinator
        # must surface a ShardExchangeError, never wrong bits.
        monkeypatch.setattr(type(pool), "alive", lambda self: True)
        with pytest.raises(ReproError):
            db.execute(QUERIES[0])
        monkeypatch.undo()
        # The poisoned pool was discarded; the next query heals.
        assert _result_bits(db.execute(QUERIES[0])) == base
