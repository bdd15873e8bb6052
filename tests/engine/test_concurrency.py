"""Concurrent sessions: snapshot isolation + schedule-invariant bits.

The headline claims of the serving layer:

* **Digest equality** — N threads hammering one shared table with a
  seeded INSERT/DELETE/REFRESH + SELECT interleaving leave the
  database in a state whose query bits equal a serial replay of the
  same per-thread scripts, at several worker counts, on the scalar
  reference (the ``engine_path`` fixture) and through the external
  aggregation.  (Repro-mode aggregation is order-invariant, so as long
  as every statement is atomic, the interleaving cannot show.)
* **Snapshot pinning** — a reader admitted before a write never sees
  it: the SELECT's bits are fixed at admission even while a DML
  barrage commits mid-flight.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.pipeline import DEFAULT_MORSEL_SIZE

MATRIX = [
    # (workers, the query table?, under a memory budget that spills?)
    (1, False, False),  # the scalar reference table, in-process
    (2, True, False),   # every session's aggregates on two executors
    (4, True, True),    # grouped ones external (in-process), global
                        # ones on four executors
]


def _result_bytes(result) -> bytes:
    pieces = [",".join(result.names).encode()]
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype.kind == "O":
            pieces.append(repr(arr.tolist()).encode())
        else:
            pieces.append(arr.dtype.str.encode() + arr.tobytes())
    return b"|".join(pieces)


def _script(thread_id: int, steps: int):
    """A deterministic DML/query script confined to ``thread_id``'s
    keyspace (disjoint keyspaces make the final row multiset
    schedule-independent; repro aggregation makes the *bits* follow)."""
    rng = np.random.default_rng(1000 + thread_id)
    ops = []
    base = thread_id * 1000
    for step in range(steps):
        roll = rng.random()
        key = base + int(rng.integers(0, 7))
        value = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-3, 4))
        if roll < 0.55:
            ops.append(
                f"INSERT INTO cs VALUES ({key}, {value!r}, {step})"
            )
        elif roll < 0.7:
            ops.append(f"DELETE FROM cs WHERE k = {key} AND tag < {step}")
        elif roll < 0.8:
            ops.append(
                f"UPDATE cs SET f = f * 1.5, tag = {step} WHERE k = {key}"
            )
        elif roll < 0.9:
            ops.append("REFRESH MATERIALIZED VIEW cs_totals")
        else:
            ops.append("SELECT k, SUM(f), COUNT(*) FROM cs GROUP BY k")
    return ops


def _setup(db, session):
    session.execute("CREATE TABLE cs (k INT, f DOUBLE, tag INT)")
    session.execute(
        "CREATE MATERIALIZED VIEW cs_totals AS "
        "SELECT k, SUM(f) FROM cs GROUP BY k"
    )


FINAL_QUERIES = (
    "SELECT k, SUM(f), COUNT(*) FROM cs GROUP BY k ORDER BY k",
    "SELECT SUM(f) FROM cs",
    "SELECT k, SUM(f) FROM cs GROUP BY k ORDER BY k",  # view-servable
)


@pytest.mark.parametrize("workers,query_table,spilled", MATRIX)
def test_concurrent_replay_matches_serial_bits(workers, query_table, spilled,
                                               engine_path):
    with engine_path(None if query_table else "scalar"):
        _replay_concurrently_and_serially(
            workers, memory_budget=64 if spilled else None
        )


def _replay_concurrently_and_serially(workers, memory_budget=None):
    n_threads, steps = 8, 40
    scripts = [_script(t, steps) for t in range(n_threads)]
    config = dict(sum_mode="repro", workers=workers,
                  memory_budget=memory_budget)

    # Serial replay: round-robin one statement at a time (any serial
    # order works — the final multiset is the same).
    serial_db = Database(**config)
    serial = serial_db.session()
    _setup(serial_db, serial)
    for step in range(steps):
        for script in scripts:
            serial.execute(script[step])
    serial.execute("REFRESH MATERIALIZED VIEW cs_totals")
    expected = [
        _result_bytes(serial.execute(q)) for q in FINAL_QUERIES
    ]

    # Concurrent replay: one thread per script, free-running.
    conc_db = Database(**config)
    setup_session = conc_db.session()
    _setup(conc_db, setup_session)
    barrier = threading.Barrier(n_threads)
    failures = []

    def run(script):
        session = conc_db.session()
        try:
            barrier.wait()
            for sql in script:
                session.execute(sql)
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append(exc)
        finally:
            session.close()

    threads = [
        threading.Thread(target=run, args=(script,)) for script in scripts
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures

    check = conc_db.session()
    check.execute("REFRESH MATERIALIZED VIEW cs_totals")
    got = [_result_bytes(check.execute(q)) for q in FINAL_QUERIES]
    serial_db.close()
    conc_db.close()
    assert got == expected


def test_reader_admitted_before_write_never_sees_it():
    """Snapshot pinning under an in-flight DML barrage.

    The reader session pins its snapshot, then a barrage of writes
    commits from other sessions *before the read executes*; the read
    must return the pre-barrage bits.
    """
    db = Database(sum_mode="repro")
    writer = db.session()
    writer.execute("CREATE TABLE t (k INT, f DOUBLE)")
    for i in range(50):
        writer.execute(f"INSERT INTO t VALUES ({i % 5}, {float(i) / 7.0!r})")

    reader = db.session(workers=2)
    before = _result_bytes(
        reader.execute("SELECT k, SUM(f) FROM t GROUP BY k ORDER BY k")
    )

    barrage_done = threading.Event()

    def barrage():
        session = db.session()
        for i in range(30):
            session.execute(f"INSERT INTO t VALUES ({i % 5}, {1.0 + i})")
            if i % 7 == 0:
                session.execute(f"DELETE FROM t WHERE k = {i % 5}")
        session.close()
        barrage_done.set()

    # The hook fires after the reader's snapshot is pinned but before
    # any scan runs: the whole barrage commits inside that window.
    def after_pin(snapshot):
        if not barrage_done.is_set():
            thread = threading.Thread(target=barrage)
            thread.start()
            thread.join()

    reader._after_pin = after_pin
    during = _result_bytes(
        reader.execute("SELECT k, SUM(f) FROM t GROUP BY k ORDER BY k")
    )
    assert during == before  # admitted before the writes -> blind to them

    reader._after_pin = None
    after = _result_bytes(
        reader.execute("SELECT k, SUM(f) FROM t GROUP BY k ORDER BY k")
    )
    assert after != before  # a later query does see the barrage


def test_snapshot_context_pins_across_statements():
    db = Database(sum_mode="repro")
    s1 = db.session()
    s2 = db.session()
    s1.execute("CREATE TABLE t (k INT, f DOUBLE)")
    s1.execute("INSERT INTO t VALUES (1, 0.5), (2, 0.25)")
    with s2.snapshot():
        assert s2.execute("SELECT SUM(f) FROM t").scalar() == 0.75
        s1.execute("INSERT INTO t VALUES (3, 1.0)")
        s1.execute("DELETE FROM t WHERE k = 1")
        # Pinned: still the entry-time state, repeatedly.
        assert s2.execute("SELECT SUM(f) FROM t").scalar() == 0.75
        assert s2.execute("SELECT COUNT(*) FROM t").scalar() == 2
    # Unpinned: the writes are visible.
    assert s2.execute("SELECT SUM(f) FROM t").scalar() == 1.25


def test_update_is_atomic_under_snapshots():
    """A snapshot taken mid-UPDATE semantics: readers see the whole
    statement or none of it (mask + re-insert share one version)."""
    db = Database(sum_mode="repro")
    s = db.session()
    s.execute("CREATE TABLE t (k INT, f DOUBLE)")
    s.execute("INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 3.0)")
    v_before = db.clock.stable
    s.execute("UPDATE t SET f = f + 10.0 WHERE k <= 2")
    v_after = db.clock.stable
    assert v_after == v_before + 1  # one version for the whole UPDATE
    table = db.table("t")
    assert table.snapshot_mask(v_before).sum() == 3
    assert table.snapshot_mask(v_after).sum() == 3
    # At the old snapshot the old values; at the new one the new.
    reader = db.session()
    with reader.snapshot() as pinned:
        assert pinned == v_after
        assert reader.execute("SELECT SUM(f) FROM t").scalar() == 26.0


def test_view_serving_respects_snapshots():
    """A pinned reader is served the view state matching its snapshot,
    or falls back to a base scan — never a fresher view's rows."""
    db = Database(sum_mode="repro")
    s1 = db.session()
    s2 = db.session()
    s1.execute("CREATE TABLE t (k INT, f DOUBLE)")
    s1.execute("INSERT INTO t VALUES (1, 0.5), (1, 0.25), (2, 4.0)")
    s1.execute(
        "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(f) FROM t GROUP BY k"
    )
    query = "SELECT k, SUM(f) FROM t GROUP BY k ORDER BY k"
    with s2.snapshot():
        assert "ViewScan" in s2.explain(query)  # fresh as of the pin
        before = s2.execute(query)
        s1.execute("INSERT INTO t VALUES (2, 8.0)")
        s1.execute("REFRESH MATERIALIZED VIEW v")
        # The view is now *ahead* of the pinned snapshot: serving it
        # would leak the new row, so the reader must not see 12.0.
        during = s2.execute(query)
        assert _result_bytes(during) == _result_bytes(before)
    after = s2.execute(query)
    assert after.rows()[-1][-1] == 12.0


def test_sessions_isolate_knobs_but_share_catalog():
    db = Database(sum_mode="repro")
    a = db.session(workers=4, morsel_size=64)
    b = db.session()
    a.execute("CREATE TABLE t (f DOUBLE)")
    a.execute("INSERT INTO t VALUES (1.5)")
    # Shared catalog: b sees the table...
    assert b.execute("SELECT SUM(f) FROM t").scalar() == 1.5
    # ...but knobs are per session.
    b.execute("SET workers = 2")
    assert a.execution_context.workers == 4
    assert b.execution_context.workers == 2
    assert a.execution_context.morsel_size == 64
    assert b.execution_context.morsel_size == DEFAULT_MORSEL_SIZE
    a.memory_budget = 1 << 20
    assert b.memory_budget is None


def test_database_execute_still_works_as_delegate():
    with Database(sum_mode="repro", workers=2) as db:
        db.execute("CREATE TABLE t (f DOUBLE)")
        db.execute("INSERT INTO t VALUES (0.5), (0.25)")
        assert db.execute("SELECT SUM(f) FROM t").scalar() == 0.75
        assert db.last_pipeline_stats is not None
        assert db.execution_context is db.default_session.execution_context


def test_insert_select_records_timings():
    db = Database(sum_mode="repro")
    s = db.session()
    s.execute("CREATE TABLE src (k INT, f DOUBLE)")
    s.execute("CREATE TABLE dst (k INT, f DOUBLE)")
    s.execute("INSERT INTO src VALUES (1, 0.5), (2, 0.25)")
    s.execute("SELECT k FROM src")
    before = s.last_pipeline_stats
    n = s.execute("INSERT INTO dst SELECT k, f FROM src")
    assert n == 2
    # The sub-SELECT's own record is the session's last one.
    assert s.last_pipeline_stats is not before
    assert sum(s.last_pipeline_stats.seconds.values()) > 0.0
    assert s.last_pipeline_stats.morsel_count == 1


def test_held_slice_scan_survives_appends_and_updates():
    """A reader pins a snapshot and holds a slice scan — views of the
    table's own buffers, no copy — while a writer appends within the
    buffers' capacity, appends past it (the buffers move) and UPDATEs
    every row: what the reader holds still equals a fresh read at its
    snapshot, bit for bit."""
    db = Database(sum_mode="repro")
    writer = db.session()
    writer.execute("CREATE TABLE t (k VARCHAR(4), f DOUBLE)")
    writer.execute("INSERT INTO t VALUES " + ", ".join(
        f"('k{i % 7}', {i / 3!r})" for i in range(300)))
    writer.execute("INSERT INTO t VALUES ('k0', 0.5)")  # capacity 600
    table = db.table("t")
    reader = db.session()
    writes = threading.Event()

    def write():
        writer.execute("INSERT INTO t VALUES " + ", ".join(
            f"('w{i % 3}', {-i / 7!r})" for i in range(200)))  # in place
        writer.execute("INSERT INTO t VALUES " + ", ".join(
            f"('x{i % 5}', {i * 1.5!r})" for i in range(900)))  # moves
        writer.execute("UPDATE t SET f = f + 1.0, k = 'u'")
        writes.set()

    with reader.snapshot() as pinned:
        arrays, encodings, copied = table.read(["k", "f"], ["k"], pinned)
        assert copied == 0
        buffers = table.column_tails(0)
        assert all(np.shares_memory(arrays[n], buffers[n]) for n in arrays)
        held = {name: arr.copy() for name, arr in arrays.items()}
        held_codes = encodings["k"][0].copy()
        before = _result_bytes(reader.execute(
            "SELECT k, SUM(f) FROM t GROUP BY k ORDER BY k"))
        thread = threading.Thread(target=write)
        thread.start()
        thread.join()
        assert writes.is_set()
        fresh, fresh_encodings, _ = table.read(["k", "f"], ["k"], pinned)
        for name, arr in arrays.items():
            assert not arr.flags.writeable
            assert arr.tolist() == held[name].tolist() == fresh[name].tolist()
        codes, uniques = encodings["k"]
        assert codes.tobytes() == held_codes.tobytes()
        assert (uniques[codes].tolist()
                == fresh_encodings["k"][1][fresh_encodings["k"][0]].tolist())
        assert _result_bytes(reader.execute(
            "SELECT k, SUM(f) FROM t GROUP BY k ORDER BY k")) == before
    assert len(table) == 1401
    assert table.physical_rows == 2 * 1401
