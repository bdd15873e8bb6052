"""Durable storage: bit-identical crash recovery, or a typed refusal.

The contract under test: reopening a data directory after *any* crash
point either recovers a database byte-identical to some committed
statement prefix of the one that died, or raises
:class:`~repro.errors.WalCorruptError` /
:class:`~repro.errors.CheckpointError` — never silently wrong bits.
Reproducible aggregation is what turns "identical" into an equality of
IEEE bit patterns rather than a tolerance check.

The crash-injection property tests drive that exhaustively: the WAL is
truncated at every record boundary and corrupted one byte at a time at
every offset, and every resulting directory must recover to a
statement-prefix digest or refuse.
"""

from __future__ import annotations

import importlib.util
import math
import os
import pathlib
import threading
from fractions import Fraction

import numpy as np
import pytest

import repro
from repro.engine.session import Database
from repro.errors import (
    CheckpointError,
    ReproError,
    SpillFormatError,
    StorageError,
    WalCorruptError,
    error_from_wire,
    error_to_wire,
)
from repro.storage.durable import CHECKPOINT_FILE
from repro.storage.wal import _parse_one_frame, segment_path


def _load_concurrency_harness():
    """Reuse the seeded per-thread DML scripts of the concurrency
    suite (tests/engine/test_concurrency.py) for the kill test."""
    path = (
        pathlib.Path(__file__).resolve().parents[1]
        / "engine" / "test_concurrency.py"
    )
    spec = importlib.util.spec_from_file_location("_concurrency_harness", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_harness = _load_concurrency_harness()

CONFIG = dict(sum_mode="repro", checkpoint_interval=None)

#: a workload touching every WAL record type: CREATE TABLE, INSERT,
#: CREATE MATERIALIZED VIEW (logs create + initial refresh), UPDATE
#: (replace), DELETE (mask), REFRESH — with ladder-straddling doubles
#: so IEEE-order effects would show if recovery reordered anything
STATEMENTS = (
    "CREATE TABLE t (k INT, f DOUBLE)",
    "INSERT INTO t VALUES (1, 0.1), (2, 1e16), (1, 3.25)",
    "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(f) AS sf FROM t GROUP BY k",
    "INSERT INTO t VALUES (2, -1e16), (1, 0.2), (2, -0.0)",
    "UPDATE t SET f = f * 2.0 WHERE k = 1",
    "DELETE FROM t WHERE f > 1e15",
    "REFRESH MATERIALIZED VIEW v",
)

DIGEST_QUERIES = (
    "SELECT k, SUM(f), COUNT(*) FROM t GROUP BY k ORDER BY k",
    "SELECT SUM(f) FROM t",
)


def _digest(db) -> bytes:
    """Byte-exact state fingerprint: query bits + physical row order
    (IEEE sums see physical order, so recovery must preserve it)."""
    if "t" not in db.catalog:
        return b"<no-table>"
    session = db.default_session
    pieces = [
        _harness._result_bytes(session.execute(q)) for q in DIGEST_QUERIES
    ]
    state = db.table("t").physical_state()
    pieces.extend(arr.tobytes() for arr in state["columns"].values())
    pieces.append(state["inserted"].tobytes())
    pieces.append(state["deleted"].tobytes())
    return b"|".join(pieces)


def _prefix_digests() -> list[bytes]:
    """In-memory digests after every statement prefix — the set of
    legal recovery targets for a torn log."""
    digests = []
    db = Database(sum_mode="repro")
    try:
        digests.append(_digest(db))
        for statement in STATEMENTS:
            db.execute(statement)
            digests.append(_digest(db))
    finally:
        db.close()
    return digests


def _populate_and_crash(path: str) -> bytes:
    db = repro.open(path, **CONFIG)
    try:
        for statement in STATEMENTS:
            db.execute(statement)
        final = _digest(db)
    finally:
        db.simulate_crash()
    return final


def _record_boundaries(blob: bytes) -> list[int]:
    """Offsets at which a WAL record ends (0 = empty log)."""
    boundaries = [0]
    pos = 0
    while pos < len(blob):
        parsed = _parse_one_frame(blob, pos)
        assert parsed is not None, f"pristine WAL unparsable at {pos}"
        _, pos = parsed
        boundaries.append(pos)
    return boundaries


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_crash_recovery_is_byte_identical(tmp_path):
    final = _populate_and_crash(str(tmp_path))
    db = repro.open(str(tmp_path), **CONFIG)
    try:
        assert _digest(db) == final
        view = db.view("v")
        assert view._populated and view.ngroups > 0
    finally:
        db.close()


def test_clean_close_and_reopen(tmp_path):
    db = repro.open(str(tmp_path), **CONFIG)
    for statement in STATEMENTS:
        db.execute(statement)
    final = _digest(db)
    db.close()
    db.close()  # idempotent
    reopened = repro.open(str(tmp_path), **CONFIG)
    try:
        assert _digest(reopened) == final
    finally:
        reopened.close()


def test_checkpoint_then_wal_tail_recovery(tmp_path):
    db = repro.open(str(tmp_path), **CONFIG)
    for statement in STATEMENTS[:4]:
        db.execute(statement)
    db.checkpoint()
    for statement in STATEMENTS[4:]:
        db.execute(statement)
    final = _digest(db)
    db.simulate_crash()
    assert os.path.exists(str(tmp_path / CHECKPOINT_FILE))
    recovered = repro.open(str(tmp_path), **CONFIG)
    try:
        assert _digest(recovered) == final
        # The view's maintenance state rebuilds lazily and exactly:
        # further incremental refreshes continue from the recovered
        # watermark with the same bits a never-crashed process shows.
        recovered.execute("INSERT INTO t VALUES (1, 0.7), (3, 2.5)")
        recovered.execute("REFRESH MATERIALIZED VIEW v")
        served = recovered.execute(
            "SELECT k, SUM(f) AS sf FROM t GROUP BY k ORDER BY k"
        )
        recovered.execute("DROP MATERIALIZED VIEW v")
        scratch = recovered.execute(
            "SELECT k, SUM(f) AS sf FROM t GROUP BY k ORDER BY k"
        )
        assert (
            _harness._result_bytes(served)
            == _harness._result_bytes(scratch)
        )
    finally:
        recovered.close()


def test_recovery_replays_ieee_refresh_bit_identically(tmp_path):
    """An IEEE view's bits depend on row order, not on the execution
    shape: the replayed REFRESH, under no logged shape, reproduces
    them exactly."""
    config = dict(
        sum_mode="ieee", workers=2, morsel_size=257,
        checkpoint_interval=None,
    )
    db = repro.open(str(tmp_path), **config)
    rng = np.random.default_rng(7)
    db.execute("CREATE TABLE t (k INT, f DOUBLE)")
    rows = ", ".join(
        f"({int(k)}, {float(v)!r})"
        for k, v in zip(
            rng.integers(0, 5, size=600),
            rng.standard_normal(600) * 10.0 ** rng.integers(-8, 9, size=600),
        )
    )
    db.execute(f"INSERT INTO t VALUES {rows}")
    db.execute(
        "CREATE MATERIALIZED VIEW vm AS "
        "SELECT k, SUM(f) AS sf, MIN(f) AS lo FROM t GROUP BY k"
    )
    view = db.view("vm")
    want = {name: arr.copy() for name, arr in view.agg_results.items()}
    db.simulate_crash()
    recovered = repro.open(str(tmp_path), **config)
    try:
        got = recovered.view("vm").agg_results
        assert set(got) == set(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
    finally:
        recovered.close()


def test_directory_written_with_retired_engine_knobs_still_opens(tmp_path):
    """Writers before the ``vectorized`` / ``fused`` switches were
    retired logged both in every ``refresh_view`` record's ``ctx`` and
    could persist them as session defaults.  Such a directory must
    recover to the bits of a never-crashed run: replay ignores a
    record's ``ctx`` whole, and the retired defaults select nothing."""
    config = dict(sum_mode="ieee", workers=2, morsel_size=257)
    rng = np.random.default_rng(11)
    rows = ", ".join(
        f"({int(k)}, {float(v)!r})"
        for k, v in zip(
            rng.integers(0, 5, size=600),
            rng.standard_normal(600) * 10.0 ** rng.integers(-8, 9, size=600),
        )
    )
    statements = (
        "CREATE TABLE t (k INT, f DOUBLE)",
        f"INSERT INTO t VALUES {rows}",
        "CREATE MATERIALIZED VIEW vm AS "
        "SELECT k, SUM(f) AS sf, MIN(f) AS lo FROM t GROUP BY k",
        "DELETE FROM t WHERE k = 3",
        "REFRESH MATERIALIZED VIEW vm",
    )
    with Database(**config) as never_crashed:
        for statement in statements:
            never_crashed.execute(statement)
        want = {
            name: arr.copy()
            for name, arr in never_crashed.view("vm").agg_results.items()
        }

    db = repro.open(str(tmp_path), checkpoint_interval=None, **config)
    storage = db.storage

    def log_as_the_old_writer_did(view):
        storage._append({
            "op": "refresh_view",
            "name": view.name,
            "watermark": int(view.watermark),
            "ctx": {"morsel_size": 257, "join_build": "auto",
                    "memory_budget_bytes": None, "vectorized": False,
                    "fused": False},
        })

    storage.log_view_refreshed = log_as_the_old_writer_did
    for statement in statements:
        db.execute(statement)
    storage.log_set_default("vectorized", False)  # Database.set_default refuses
    storage.log_set_default("workers", 3)
    db.simulate_crash()

    recovered = repro.open(str(tmp_path), checkpoint_interval=None, **config)
    try:
        got = recovered.view("vm").agg_results
        assert set(got) == set(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name
        # The retired default selects nothing; its neighbour applies.
        assert "vectorized" not in recovered.session_defaults
        assert recovered.session_defaults["workers"] == 3
    finally:
        recovered.close()


def test_budgeted_ieee_min_max_view_serves_serial_select_bits(tmp_path):
    """An ieee SUM / AVG / VARIANCE + MIN / MAX view kept by a session
    whose budget spills, with two workers, serves the bits of an
    unbudgeted ``workers=1`` SELECT — after its build, an insert-only
    REFRESH, a delete-bearing one, a crash and the REFRESHes after."""
    view_sql = (
        "SELECT k, SUM(f) AS sf, AVG(f) AS af, VARIANCE(f) AS vf, "
        "MIN(f) AS lo, MAX(f) AS hi FROM t GROUP BY k"
    )
    query = view_sql + " ORDER BY k"
    # 1000-row morsels: a key's rows land in several spilled runs, and
    # a SELECT under this budget merges their partial sums
    config = dict(sum_mode="ieee", workers=2, memory_budget=4096,
                  morsel_size=1000, checkpoint_interval=None)
    rng = np.random.default_rng(35)

    def insert(n):
        keys = rng.integers(0, 4000, size=n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
        return "INSERT INTO t VALUES " + ", ".join(
            f"({int(k)}, {float(v)!r})" for k, v in zip(keys, values)
        )

    serial = Database(sum_mode="ieee")
    db = repro.open(str(tmp_path), **config)

    def run(sql):
        serial.execute(sql)
        return db.execute(sql)

    def served_as_serial(db):
        assert "ViewScan(vm" in db.explain(query)
        assert (_harness._result_bytes(db.execute(query))
                == _harness._result_bytes(serial.execute(query)))

    try:
        run("CREATE TABLE t (k INT, f DOUBLE)")
        run(insert(12000))
        db.execute(f"CREATE MATERIALIZED VIEW vm AS {view_sql}")
        db.execute(query.replace("GROUP BY k", "WHERE f > 0.0 GROUP BY k"))
        assert db.last_pipeline_stats.spilled_runs > 0  # the budget spills
        served_as_serial(db)
        for sql in (insert(3000),                   # merges the delta
                    "DELETE FROM t WHERE k < 500",  # rebuilds
                    insert(2000)):
            run(sql)
            db.execute("REFRESH MATERIALIZED VIEW vm")
            served_as_serial(db)
        db.simulate_crash()
        db = repro.open(str(tmp_path), **config)
        served_as_serial(db)
        run(insert(2000))
        db.execute("REFRESH MATERIALIZED VIEW vm")
        served_as_serial(db)
    finally:
        db.close()
        serial.close()


# ---------------------------------------------------------------------------
# Crash injection: truncation + single-byte corruption
# ---------------------------------------------------------------------------


def test_wal_truncated_at_every_record_boundary(tmp_path):
    final = _populate_and_crash(str(tmp_path))
    legal = set(_prefix_digests())
    wal_path = segment_path(str(tmp_path), 1)
    with open(wal_path, "rb") as handle:
        pristine = handle.read()
    boundaries = _record_boundaries(pristine)
    assert len(boundaries) > len(STATEMENTS)  # every statement logged
    seen = set()
    for cut in boundaries:
        with open(wal_path, "wb") as handle:
            handle.write(pristine[:cut])
        db = repro.open(str(tmp_path), **CONFIG)
        try:
            digest = _digest(db)
        finally:
            db.close()
        assert digest in legal, f"recovery at boundary {cut} left an " \
                                f"uncommitted-prefix state"
        seen.add(digest)
    assert _populate_digest_restored(wal_path, pristine) == final
    # The full log recovers the final state; shorter cuts walk back
    # through genuinely distinct committed prefixes.
    assert len(seen) > 3


def _populate_digest_restored(wal_path: str, pristine: bytes) -> bytes:
    with open(wal_path, "wb") as handle:
        handle.write(pristine)
    directory = os.path.dirname(wal_path)
    db = repro.open(directory, **CONFIG)
    try:
        return _digest(db)
    finally:
        db.close()


def test_wal_corrupted_one_byte_at_every_offset(tmp_path):
    """Flip each byte of the WAL in turn: recovery must land on a
    committed statement prefix (tail damage) or raise WalCorruptError
    (mid-log damage) — never succeed with different bits."""
    _populate_and_crash(str(tmp_path))
    legal = set(_prefix_digests())
    wal_path = segment_path(str(tmp_path), 1)
    with open(wal_path, "rb") as handle:
        pristine = handle.read()
    last_record_start = _record_boundaries(pristine)[-2]
    refused = recovered = 0
    for offset in range(len(pristine)):
        blob = bytearray(pristine)
        blob[offset] ^= 0xA5
        with open(wal_path, "wb") as handle:
            handle.write(bytes(blob))
        try:
            db = repro.open(str(tmp_path), **CONFIG)
        except WalCorruptError:
            refused += 1
            assert offset < last_record_start, (
                f"damage at {offset} is inside the final record — that "
                f"is a torn tail, not mid-log corruption"
            )
            continue
        try:
            digest = _digest(db)
        finally:
            db.close()
        recovered += 1
        assert digest in legal, (
            f"single-byte corruption at offset {offset} recovered to "
            f"bits matching no committed prefix"
        )
    # Both regimes must actually occur: damage before intact records
    # refuses, tail damage truncates and recovers.
    assert refused and recovered
    # restore for hygiene (tmp_path is discarded anyway)
    with open(wal_path, "wb") as handle:
        handle.write(pristine)


def test_corrupt_checkpoint_raises_typed_error(tmp_path):
    db = repro.open(str(tmp_path), **CONFIG)
    for statement in STATEMENTS[:4]:
        db.execute(statement)
    db.checkpoint()
    db.close()
    image = tmp_path / CHECKPOINT_FILE
    blob = bytearray(image.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    image.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        repro.open(str(tmp_path), **CONFIG)
    # The refusal released the directory lock.
    image.unlink()


# ---------------------------------------------------------------------------
# Concurrent writers, then kill -9
# ---------------------------------------------------------------------------


def test_concurrent_writers_survive_kill(tmp_path):
    n_threads, steps = 4, 16
    scripts = [_harness._script(t, steps) for t in range(n_threads)]
    db = repro.open(
        str(tmp_path), sum_mode="repro", workers=2, checkpoint_interval=None
    )
    setup = db.session()
    _harness._setup(db, setup)
    barrier = threading.Barrier(n_threads)
    failures = []

    def run(script):
        session = db.session()
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
    db.checkpoint()  # exercise fuzzy checkpoint + tail on a real history
    setup.execute("INSERT INTO cs VALUES (9001, 0.125, 0)")
    expected = [
        _harness._result_bytes(setup.execute(q))
        for q in _harness.FINAL_QUERIES
    ]
    physical = db.table("cs").physical_state()["columns"]
    db.simulate_crash()

    recovered = repro.open(
        str(tmp_path), sum_mode="repro", workers=2, checkpoint_interval=None
    )
    try:
        check = recovered.session()
        got = [
            _harness._result_bytes(check.execute(q))
            for q in _harness.FINAL_QUERIES
        ]
        assert got == expected
        have = recovered.table("cs").physical_state()["columns"]
        for name, want in physical.items():
            assert np.array_equal(have[name], want, equal_nan=True), name
    finally:
        recovered.close()


# ---------------------------------------------------------------------------
# API surface: repro.open, locking, typed errors, defaults
# ---------------------------------------------------------------------------


def test_open_without_path_is_in_memory():
    db = repro.open(sum_mode="repro")
    try:
        assert db.path is None and db.storage is None
        db.execute("CREATE TABLE t (f DOUBLE)")
        with pytest.raises(StorageError):
            db.checkpoint()
        with pytest.raises(StorageError):
            db.flush_wal()
    finally:
        db.close()


def test_second_opener_is_locked_out(tmp_path):
    fcntl = pytest.importorskip("fcntl")  # advisory flock is POSIX
    db = repro.open(str(tmp_path), **CONFIG)
    try:
        with pytest.raises(StorageError, match="locked"):
            repro.open(str(tmp_path), **CONFIG)
    finally:
        db.close()
    # ...and close released it.
    again = repro.open(str(tmp_path), **CONFIG)
    again.close()


def test_failed_init_releases_the_lock(tmp_path):
    with pytest.raises(ValueError):
        repro.open(str(tmp_path), sum_mode="definitely-not-a-mode")
    # The bad knob aborted Database.__init__ after the store was
    # built; the directory must be reopenable immediately.
    db = repro.open(str(tmp_path), **CONFIG)
    db.close()


def test_wal_sync_validated_and_flush_wal(tmp_path):
    with pytest.raises(ValueError):
        repro.open(str(tmp_path), wal_sync="sometimes")
    db = repro.open(str(tmp_path), wal_sync="never", **CONFIG)
    try:
        db.execute("CREATE TABLE t (f DOUBLE)")
        db.execute("INSERT INTO t VALUES (0.5)")
        db.flush_wal()
    finally:
        db.close()
    reopened = repro.open(str(tmp_path), **CONFIG)
    try:
        assert reopened.execute("SELECT SUM(f) FROM t").scalar() == 0.5
    finally:
        reopened.close()


def test_storage_errors_round_trip_the_wire():
    for exc, code in (
        (StorageError("boom"), "storage_error"),
        (SpillFormatError("bad frame"), "spill_format_error"),
        (WalCorruptError("hole"), "wal_corrupt"),
        (CheckpointError("torn image"), "checkpoint_error"),
    ):
        payload = error_to_wire(exc)
        assert payload["code"] == code
        back = error_from_wire(payload)
        assert type(back) is type(exc)
        assert str(exc) in str(back)
        assert isinstance(back, StorageError) and isinstance(back, ReproError)


def _assert_view_bits(db, result, bits, golden) -> None:
    """The view's columns bit for bit against the bits the parent
    commit recorded — all but ``sd`` (``STDDEV(f)``): that commit
    summed rounded squares, so its STDDEV bits are not the exact one's.
    ``sd`` is held against the exact sample deviation of ``t``'s rows
    in each ``(k, s)`` group instead, from ``Fraction``s."""
    got = bits(result)
    assert {name: value for name, value in got.items() if name != "sd"} \
        == {name: value for name, value in golden.items() if name != "sd"}
    groups: dict = {}
    for k, s, f in db.execute("SELECT k, s, f FROM t").rows():
        groups.setdefault((k, s), []).append(Fraction(f))
    columns = dict(zip(result.names, map(np.asarray, result.arrays)))
    for k, s, c, sd in zip(columns["k"], columns["s"], columns["c"],
                           columns["sd"]):
        rows = groups[(int(k), s)]
        assert len(rows) == c
        n, total = len(rows), sum(rows)
        exact = (n * sum(f * f for f in rows) - total * total) / (
            n * max(n - 1, 1))
        assert sd == pytest.approx(math.sqrt(exact), rel=1e-12, abs=0)


def test_directory_written_by_the_parent_commit_still_serves_its_bits(tmp_path):
    """``parent_commit_dir`` was written by the commit before
    ``repro_buffered`` / ``buffer_size`` were retired, with both in
    every place they could be persisted: the checkpointed view spec, a
    ``create_view`` WAL record, and the ``set_default`` records.  It
    must open, select ``repro``, serve the bits that commit served, and
    refresh *incrementally* to the bits that commit refreshed to
    (``parent_commit_dir.json``, recorded by that commit)."""
    import json
    import pathlib
    import shutil

    here = pathlib.Path(__file__).parent
    golden = json.loads((here / "parent_commit_dir.json").read_text())
    shutil.copytree(here / "parent_commit_dir", tmp_path / "dir")
    query = golden["view_sql"] + " ORDER BY k, s"

    def bits(result):
        return {
            name: (np.asarray(arr).tobytes().hex()
                   if np.asarray(arr).dtype != object
                   else repr(np.asarray(arr).tolist()))
            for name, arr in zip(result.names, result.arrays)
        }

    db = repro.open(str(tmp_path / "dir"), checkpoint_interval=None)
    try:
        assert db.session_defaults["sum_mode"] == "repro"
        assert "buffer_size" not in db.session_defaults
        assert db.session_defaults["workers"] == 2
        assert db.sum_config.mode == db.view("vm2").sum_config.mode == "repro"
        view = db.view("vm")
        assert view.sum_config.mode == "repro"
        assert "ViewScan" in db.explain(query)
        _assert_view_bits(db, db.execute(query), bits, golden["served"])
        assert bits(db.execute(
            "SELECT k, SUM(f) AS sf FROM t GROUP BY k ORDER BY k"
        )) == golden["served_vm2"]

        # Replaying the WAL's REFRESH already rebuilt the maintenance
        # state from the base rows; this one merges an insert-only delta.
        db.execute(golden["follow_up"])
        assert db.execute("REFRESH MATERIALIZED VIEW vm") == 3
        assert view._group_table is not None
        assert "ViewScan" in db.explain(query)
        _assert_view_bits(db, db.execute(query), bits,
                          golden["after_refresh"])
        db.checkpoint()
    finally:
        db.close()
    # ... and what this version wrote over it opens again.
    with repro.open(str(tmp_path / "dir"), checkpoint_interval=None) as db:
        _assert_view_bits(db, db.execute(query), bits,
                          golden["after_refresh"])


def test_directory_with_retired_spill_knobs_opens_serves_and_refreshes(
        tmp_path):
    """``parent_commit_spill_dir`` was written by the commit before
    ``spill_partitions`` / ``spill_merge_fanin`` were retired, with
    non-default values of both in ``set_default`` records and in the
    logged shape of two REFRESHes of a budgeted view (recomputed
    through an external, spilled, multi-pass aggregation at that
    commit).  The defaults select nothing, the replay ignores the
    logged shape, and the view — which now merges its inserts and
    never spills — serves and refreshes to the repro bits that commit
    recorded (``parent_commit_spill_dir.json``)."""
    import json
    import pathlib
    import shutil

    from repro.storage.wal import scan_wal

    here = pathlib.Path(__file__).parent
    golden = json.loads((here / "parent_commit_spill_dir.json").read_text())
    shutil.copytree(here / "parent_commit_spill_dir", tmp_path / "dir")
    logged = list(scan_wal(str(tmp_path / "dir"), 1, repair=False))
    assert {r["name"]: r["value"] for r in logged
            if r["op"] == "set_default"} == {
        "memory_budget": 2048, "spill_partitions": 3,
        "spill_merge_fanin": 2, "morsel_size": 64,
    }
    shapes = [r["ctx"] for r in logged if r["op"] == "refresh_view"]
    assert len(shapes) == 2 and all(
        (ctx["memory_budget_bytes"], ctx["spill_partitions"],
         ctx["spill_merge_fanin"]) == (2048, 3, 2) for ctx in shapes
    )
    query = golden["view_sql"] + " ORDER BY k, s"

    def bits(result):
        return {
            name: (np.asarray(arr).tobytes().hex()
                   if np.asarray(arr).dtype != object
                   else repr(np.asarray(arr).tolist()))
            for name, arr in zip(result.names, result.arrays)
        }

    db = repro.open(
        str(tmp_path / "dir"), sum_mode="repro", checkpoint_interval=None
    )
    try:
        assert db.session_defaults["memory_budget"] == 2048
        assert db.session_defaults["morsel_size"] == 64
        assert "spill_partitions" not in db.session_defaults
        assert "spill_merge_fanin" not in db.session_defaults
        assert "ViewScan" in db.explain(query)
        _assert_view_bits(db, db.execute(query), bits, golden["served"])

        inserted = db.execute(golden["follow_up"])
        # the replayed REFRESH rebuilt the view; this one merges
        assert db.execute("REFRESH MATERIALIZED VIEW vm") == inserted
        assert "ViewScan" in db.explain(query)
        _assert_view_bits(db, db.execute(query), bits,
                          golden["after_refresh"])
    finally:
        db.close()
    # What this version logged carries no execution shape, and opens
    # again.
    last = [r for r in scan_wal(str(tmp_path / "dir"), 1, repair=False)
            if r["op"] == "refresh_view"][-1]
    assert "ctx" not in last
    with repro.open(str(tmp_path / "dir"), sum_mode="repro",
                    checkpoint_interval=None) as db:
        assert "ViewScan" in db.explain(query)
        _assert_view_bits(db, db.execute(query), bits,
                          golden["after_refresh"])


def test_directory_with_retired_shard_workers_opens_serves_sharded_and_refreshes(
        tmp_path):
    """``parent_commit_shard_dir`` was written by the commit before
    ``shard_workers`` was retired and rows were dealt to shards by
    position: ``set_default('shards', 2)`` and ``set_default(
    'shard_workers', 1)`` sit in its checkpoint image, the latter again
    in a WAL record, beside one table and one refreshed view.  The
    retired ``shard_workers`` selects nothing, ``shards = 2`` opens as
    its successor ``workers = 2`` (two partial tables per aggregate),
    and the directory serves and refreshes to the bits that commit
    recorded (``parent_commit_shard_dir.json``; that commit routed rows
    to executor processes by content hash, this one splits morsels in
    process — same bits)."""
    import json
    import pathlib
    import shutil

    from repro.storage.wal import scan_wal

    here = pathlib.Path(__file__).parent
    golden = json.loads((here / "parent_commit_shard_dir.json").read_text())
    shutil.copytree(here / "parent_commit_shard_dir", tmp_path / "dir")
    assert [(r["name"], r["value"])
            for r in scan_wal(str(tmp_path / "dir"), 1, repair=False)
            if r["op"] == "set_default"] == [("shard_workers", 1)]
    query = golden["view_sql"] + " ORDER BY k, s"
    sharded = golden["sharded_sql"]

    def bits(result):
        return {
            name: (np.asarray(arr).tobytes().hex()
                   if np.asarray(arr).dtype != object
                   else repr(np.asarray(arr).tolist()))
            for name, arr in zip(result.names, result.arrays)
        }

    with repro.open(str(tmp_path / "dir"), sum_mode="repro",
                    checkpoint_interval=None) as db:
        assert db.session_defaults["workers"] == 2
        assert "shards" not in db.session_defaults
        assert "shard_workers" not in db.session_defaults
        assert "ViewScan" in db.explain(query)
        _assert_view_bits(db, db.execute(query), bits, golden["served"])
        assert "Aggregate[morsel_size=65536, workers=2](" in db.explain(
            sharded)
        assert bits(db.execute(sharded)) == golden["served_sharded"]
        assert db.last_pipeline_stats.workers == 2

        db.execute(golden["follow_up"])
        db.execute("REFRESH MATERIALIZED VIEW vm")
        assert "ViewScan" in db.explain(query)
        _assert_view_bits(db, db.execute(query), bits,
                          golden["after_refresh"])
        assert bits(db.execute(sharded)) == golden["after_refresh_sharded"]
        db.checkpoint()
    # What this version checkpointed over it opens again, the retired
    # default still on disk and still selecting nothing.
    with repro.open(str(tmp_path / "dir"), sum_mode="repro",
                    checkpoint_interval=None) as db:
        assert db.storage.persistent_defaults["shard_workers"] == 1
        assert "shard_workers" not in db.session_defaults
        assert db.session_defaults["workers"] == 2
        _assert_view_bits(db, db.execute(query), bits,
                          golden["after_refresh"])
        assert bits(db.execute(sharded)) == golden["after_refresh_sharded"]


def test_directory_with_retired_join_build_opens_and_serves_its_bits(
        tmp_path):
    """``parent_commit_join_build_dir`` was written by the commit before
    ``join_build`` was retired: ``set_default('join_build', 'right')``
    in its checkpoint image and ``'left'`` in a WAL record, beside two
    tables and a refreshed view.  That commit built its join on ``a``
    (the persisted ``left``); this one builds on ``b``, the smaller
    input, and takes the build-row group ids.  The default selects
    nothing, and the directory serves and refreshes to the bits that
    commit recorded (``parent_commit_join_build_dir.json``)."""
    import json
    import pathlib
    import shutil

    from repro.storage.wal import scan_wal

    here = pathlib.Path(__file__).parent
    golden = json.loads(
        (here / "parent_commit_join_build_dir.json").read_text())
    shutil.copytree(here / "parent_commit_join_build_dir", tmp_path / "dir")
    assert [(r["name"], r["value"])
            for r in scan_wal(str(tmp_path / "dir"), 1, repair=False)
            if r["op"] == "set_default"] == [("join_build", "left")]
    assert "build=left" in golden["parent_plan"]
    join, view = golden["join_sql"], golden["view_sql"] + " ORDER BY k"

    def bits(result):
        return {
            name: (np.asarray(arr).tobytes().hex()
                   if np.asarray(arr).dtype != object
                   else repr(np.asarray(arr).tolist()))
            for name, arr in zip(result.names, result.arrays)
        }

    with repro.open(str(tmp_path / "dir"), sum_mode="repro",
                    checkpoint_interval=None) as db:
        assert "join_build" not in db.session_defaults
        assert db.storage.persistent_defaults["join_build"] == "left"
        plan = db.explain(join)
        assert "build=right" in plan and "group_ids=build_row(" in plan
        assert bits(db.execute(join)) == golden["served_join"]
        assert "ViewScan" in db.explain(view)
        assert bits(db.execute(view)) == golden["served_view"]

        db.execute(golden["follow_up"])
        db.execute("REFRESH MATERIALIZED VIEW va")
        assert bits(db.execute(join)) == golden["after_refresh_join"]
        assert bits(db.execute(view)) == golden["after_refresh_view"]
        db.checkpoint()
    # What this version checkpointed over it opens again, the retired
    # default still on disk and still selecting nothing.
    with repro.open(str(tmp_path / "dir"), sum_mode="repro",
                    checkpoint_interval=None) as db:
        assert "join_build" not in db.session_defaults
        assert bits(db.execute(join)) == golden["after_refresh_join"]
        assert bits(db.execute(view)) == golden["after_refresh_view"]


def test_directory_with_retired_sorted_mode_opens_as_repro(tmp_path):
    """``parent_commit_sorted_dir`` was written by the commit before
    ``sum_mode='sorted'`` was retired: a persisted ``sorted`` default
    and a ``sorted`` view in the checkpoint image, then an INSERT and
    a logged REFRESH.  It opens with ``repro`` for both; replaying the
    REFRESH recomputes the view in ``repro``, so it serves the repro
    bits that commit computed for the same rows, not the sorted bits it
    served (``parent_commit_sorted_dir.json``), and refreshes
    incrementally from there."""
    import json
    import pathlib
    import shutil

    here = pathlib.Path(__file__).parent
    golden = json.loads((here / "parent_commit_sorted_dir.json").read_text())
    shutil.copytree(here / "parent_commit_sorted_dir", tmp_path / "dir")
    query = golden["view_sql"] + " ORDER BY k, s"

    def bits(result):
        return {
            name: (np.asarray(arr).tobytes().hex()
                   if np.asarray(arr).dtype != object
                   else repr(np.asarray(arr).tolist()))
            for name, arr in zip(result.names, result.arrays)
        }

    with repro.open(str(tmp_path / "dir"), checkpoint_interval=None) as db:
        assert db.storage.persistent_defaults["sum_mode"] == "sorted"
        assert db.session_defaults["sum_mode"] == "repro"
        view = db.view("vm")
        assert view.sum_config.mode == "repro"
        assert "ViewScan" in db.explain(query)
        served = bits(db.execute(query))
        assert served == golden["served_repro"]
        assert served["sf"] != golden["served_sorted"]["sf"]
        db.execute(golden["follow_up"])
        db.execute("REFRESH MATERIALIZED VIEW vm")
        assert bits(db.execute(query)) == golden["after_refresh"]


def test_persistent_defaults_survive_reopen(tmp_path):
    db = repro.open(str(tmp_path), **CONFIG)
    db.execute("CREATE TABLE t (f DOUBLE)")
    db.set_default("sum_mode", "ieee")
    db.set_default("workers", 3)
    with pytest.raises(ReproError):
        db.set_default("not_a_knob", 1)
    db.close()
    reopened = repro.open(str(tmp_path), checkpoint_interval=None)
    try:
        assert reopened.session_defaults["sum_mode"] == "ieee"
        assert reopened.session_defaults["workers"] == 3
        session = reopened.session()
        assert session.sum_config.mode == "ieee"
    finally:
        reopened.close()


def test_background_checkpointer_compacts(tmp_path):
    db = repro.open(
        str(tmp_path), sum_mode="repro", checkpoint_interval=0.05
    )
    try:
        db.execute("CREATE TABLE t (f DOUBLE)")
        for i in range(4):
            db.execute(f"INSERT INTO t VALUES ({float(i)!r})")
        deadline = threading.Event()
        for _ in range(100):
            if db.storage.checkpoints_taken:
                break
            deadline.wait(0.05)
        assert db.storage.checkpoints_taken >= 1
        final = _digest_simple(db)
    finally:
        db.simulate_crash()
    recovered = repro.open(str(tmp_path), **CONFIG)
    try:
        assert _digest_simple(recovered) == final
    finally:
        recovered.close()


def _digest_simple(db) -> bytes:
    return _harness._result_bytes(
        db.execute("SELECT SUM(f), COUNT(*) FROM t")
    )
