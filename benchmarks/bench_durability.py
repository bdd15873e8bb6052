"""Durability cost: WAL'd inserts vs in-memory, and recovery throughput.

The PR-9 acceptance gates:

* **WAL overhead** — batched INSERTs into a durable database
  (``wal_sync="commit"``: one fsync per statement, column tails logged
  as raw little-endian bytes) must stay within **1.5x** of the same
  inserts into an in-memory database.  Enforced through
  ``baseline.json``'s ``durable_insert_vs_inmem`` floor (the ratio is
  inmem/durable, so the floor is ``1/1.5 ~= 0.65``).
* **Recovery throughput** — reopening a crashed directory replays the
  WAL through the same physical-effect path; its ns/element over the
  recovered rows lands in ``BENCH_pr.json`` as a regression-gated
  kernel, alongside checkpoint write + checkpoint-based recovery.

Recovery is also *verified* here, not just timed: the reopened
database must serve byte-identical GROUP BY SUM bits to the one that
crashed — a benchmark that recovered fast but wrong must fail.  The
checkpoint leg's table carries a VARCHAR key and its check groups by
it: the image stores that column as its storage dictionary, recovery
installs it as the column's cached encoding (asserted before the
query), and the report gives the image's bytes per row.
"""

import os

import shutil
import tempfile
import time

import numpy as np

from _common import emit, ns_per_element, record_kernel, record_speedup, table
from repro.engine import Database

ROWS = 200_000
BATCH = 20_000
NGROUPS = 64
REPS = 3

#: Acceptance bound via baseline.json's ``durable_insert_vs_inmem``
#: floor: inserts may not slow down past 1.5x in-memory.
MIN_INSERT_RATIO = 1.0 / 1.5

QUERY = "SELECT k, SUM(v) AS sv, COUNT(*) AS c FROM obs GROUP BY k ORDER BY k"
TAGGED_QUERY = (
    "SELECT tag, SUM(v) AS sv, COUNT(*) AS c FROM tagged GROUP BY tag "
    "ORDER BY tag"
)


def _batches():
    rng = np.random.default_rng(20180909)
    keys = rng.integers(0, NGROUPS, size=ROWS)
    values = rng.choice([-1.0, 1.0], size=ROWS) * np.exp2(
        rng.uniform(-30, 30, size=ROWS)
    )
    rows = [
        {"k": int(k), "v": float(v)} for k, v in zip(keys, values)
    ]
    return [rows[i : i + BATCH] for i in range(0, ROWS, BATCH)]


def _drive_inserts(db, batches) -> float:
    db.execute("CREATE TABLE obs (k INT, v DOUBLE)")
    obs = db.table("obs")
    started = time.perf_counter()
    for batch in batches:
        obs.insert_rows(batch)
    return time.perf_counter() - started


def _load_tagged(db, batches) -> None:
    """``obs``'s rows with a VARCHAR key beside the INT one."""
    db.execute("CREATE TABLE tagged (k INT, tag VARCHAR(8), v DOUBLE)")
    tagged = db.table("tagged")
    for batch in batches:
        tagged.insert_rows(
            [{**row, "tag": f"tag{row['k'] % 16:02d}"} for row in batch]
        )


def _result_bits(result) -> tuple:
    return tuple(
        repr(arr.tolist()) if arr.dtype == object else arr.tobytes()
        for arr in map(np.asarray, result.arrays)
    )


def test_durability_report():
    batches = _batches()

    # -- in-memory reference ----------------------------------------------
    inmem_s = float("inf")
    for _ in range(REPS):
        db = Database(sum_mode="repro")
        try:
            inmem_s = min(inmem_s, _drive_inserts(db, batches))
        finally:
            db.close()

    # -- durable inserts + crash + WAL-replay recovery --------------------
    durable_s = wal_recover_s = float("inf")
    expected_bits = None
    for _ in range(REPS):
        tmp = tempfile.mkdtemp(prefix="repro-bench-durability-")
        try:
            db = Database(
                sum_mode="repro", path=tmp, checkpoint_interval=None
            )
            durable_s = min(durable_s, _drive_inserts(db, batches))
            expected_bits = _result_bits(db.execute(QUERY))
            db.simulate_crash()
            started = time.perf_counter()
            recovered = Database(
                sum_mode="repro", path=tmp, checkpoint_interval=None
            )
            wal_recover_s = min(
                wal_recover_s, time.perf_counter() - started
            )
            assert len(recovered.table("obs")) == ROWS
            # Fast but wrong is a failure: recovered bits must match.
            assert _result_bits(recovered.execute(QUERY)) == expected_bits
            recovered.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    # -- checkpoint write + checkpoint-based recovery ---------------------
    checkpoint_s = ckpt_recover_s = float("inf")
    for _ in range(REPS):
        tmp = tempfile.mkdtemp(prefix="repro-bench-durability-")
        try:
            db = Database(
                sum_mode="repro", path=tmp, checkpoint_interval=None
            )
            _load_tagged(db, batches)
            tagged_bits = _result_bits(db.execute(TAGGED_QUERY))
            started = time.perf_counter()
            db.checkpoint()
            checkpoint_s = min(checkpoint_s, time.perf_counter() - started)
            image_bytes = os.path.getsize(os.path.join(tmp, "checkpoint.bin"))
            db.simulate_crash()
            started = time.perf_counter()
            recovered = Database(
                sum_mode="repro", path=tmp, checkpoint_interval=None
            )
            ckpt_recover_s = min(
                ckpt_recover_s, time.perf_counter() - started
            )
            # the image's dictionary, not a re-encoding, serves the key
            tag = recovered.table("tagged")._columns["tag"]
            assert tag._encoding is not None
            assert _result_bits(recovered.execute(TAGGED_QUERY)) == (
                tagged_bits
            )
            recovered.close()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    ratio = inmem_s / durable_s
    record_kernel("insert_inmem", ns_per_element(inmem_s, ROWS))
    record_kernel("insert_durable_wal", ns_per_element(durable_s, ROWS))
    record_kernel("recovery_wal_replay", ns_per_element(wal_recover_s, ROWS))
    record_kernel("recovery_checkpoint", ns_per_element(ckpt_recover_s, ROWS))
    record_speedup("durable_insert_vs_inmem", ratio)

    report = table(
        ("leg", "seconds", "ns/element"),
        [
            ("in-memory inserts", f"{inmem_s:.3f}",
             f"{ns_per_element(inmem_s, ROWS):.1f}"),
            ("durable inserts (WAL fsync/commit)", f"{durable_s:.3f}",
             f"{ns_per_element(durable_s, ROWS):.1f}"),
            ("recovery: WAL replay", f"{wal_recover_s:.3f}",
             f"{ns_per_element(wal_recover_s, ROWS):.1f}"),
            ("checkpoint write", f"{checkpoint_s:.3f}",
             f"{ns_per_element(checkpoint_s, ROWS):.1f}"),
            ("recovery: checkpoint image", f"{ckpt_recover_s:.3f}",
             f"{ns_per_element(ckpt_recover_s, ROWS):.1f}"),
        ],
        title=f"{ROWS} rows in {BATCH}-row statements, sum_mode=repro",
    )
    verdict = (
        f"durable/inmem insert overhead {durable_s / inmem_s:.2f}x "
        f"(gate: <= {1.0 / MIN_INSERT_RATIO:.2f}x); checkpoint image "
        f"{image_bytes / ROWS:.2f} B/row for (INT, VARCHAR, DOUBLE) rows "
        f"(17 B of user data each); recovered bits verified "
        f"byte-identical"
    )
    emit("bench_durability", report, verdict)
    assert ratio >= MIN_INSERT_RATIO * 0.8, (
        f"WAL insert overhead blew past the gate locally: "
        f"{durable_s / inmem_s:.2f}x in-memory"
    )
