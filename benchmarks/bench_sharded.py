"""Sharded multi-process Q1 vs. the single-process thread pipeline.

The PR-8 acceptance gate: **reproducible Q1 at 8 shard processes must
beat the best single-process thread configuration** on wall-clock.
Python threads only overlap where numpy drops the GIL; shard executor
processes escape it entirely, and the paper's exact-merge property is
what makes that migration free — the partial group tables exchanged
over the spill wire format merge to byte-identical results.

The floor is enforced as a machine-relative ratio
(``q1_sharded8_over_threads``: best-threads wall / sharded-8 wall,
floor 1.5 on the multi-core CI runners) so it gates reliably across
machines.  Result bits are asserted identical between both paths in
the same run — the speedup is only admissible because the answer is
the same answer.

Warm-up runs pay planning *and* shard replica shipping; the
measured runs exercise the steady state the replica cache is for:
local compute + partial-state exchange only.

What replica shipping itself costs is the second report
(:func:`test_replica_shipping_report`, SF 0.05, ``shards=2``): the
first sharded Q1 on a fresh fleet (spawn, frame and ship every
replica), and the first one after a committed write to an *unrelated*
table — which must ship nothing, because a replica is named by the
content of the table it copies.  Both are micro-entries with no
end-to-end twin (no served workload shards), bits asserted equal to
serial.
"""

import gc
import os
import statistics
import time

import numpy as np

from _common import (
    emit,
    ns_per_element,
    record_config,
    record_kernel,
    record_speedup,
    table,
)
from repro.engine import Database
from repro.engine.pipeline import DEFAULT_MORSEL_SIZE
from repro.tpch import load_lineitem, run_q1

SCALE = float(os.environ.get("REPRO_BENCH_SHARDED_SCALE", "0.1"))
MORSEL_SIZE = 8192
ROWS = int(SCALE * 6_000_000)
ROUNDS = 3
SHARDS = 8
THREAD_WORKERS = (1, 4, 8)

#: The acceptance floor lives in ``baseline.json``
#: (``q1_sharded8_over_threads``); CI fails below it.


def _result_bits(result):
    return tuple(np.asarray(arr).tobytes() for arr in result.arrays)


def _prepare(**knobs):
    db = Database(sum_mode="repro", morsel_size=MORSEL_SIZE, **knobs)
    load_lineitem(db, scale_factor=SCALE)
    result = run_q1(db)  # warm-up: kernels compile, shard replicas ship
    run_q1(db)
    return db, _result_bits(result)


def _best_wall(db) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        gc.collect()
        started = time.perf_counter()
        run_q1(db)
        best = min(best, time.perf_counter() - started)
    return best


def test_sharded_vs_threads_report():
    thread_dbs = {}
    bits = None
    for workers in THREAD_WORKERS:
        db, db_bits = _prepare(workers=workers)
        thread_dbs[workers] = db
        assert bits is None or db_bits == bits
        bits = db_bits
    sharded_db, sharded_bits = _prepare(shards=SHARDS)
    assert sharded_bits == bits, (
        "sharded Q1 bits differ from the thread pipeline"
    )
    stats = sharded_db.last_pipeline_stats
    assert stats.sharded and stats.shards == SHARDS

    thread_walls = {w: _best_wall(db) for w, db in thread_dbs.items()}
    sharded_wall = _best_wall(sharded_db)
    exchange_bytes = sharded_db.last_pipeline_stats.exchange_bytes

    best_workers, best_threads = min(
        thread_walls.items(), key=lambda item: item[1]
    )
    speedup = best_threads / sharded_wall
    record_kernel("q1_repro_sharded8", ns_per_element(sharded_wall, ROWS))
    record_speedup("q1_sharded8_over_threads", speedup)

    body = [
        [f"threads workers={w}", round(wall * 1e3, 2),
         round(ns_per_element(wall, ROWS), 1), ""]
        for w, wall in sorted(thread_walls.items())
    ]
    body.append([
        f"sharded shards={SHARDS}", round(sharded_wall * 1e3, 2),
        round(ns_per_element(sharded_wall, ROWS), 1),
        f"{speedup:.2f}x vs best threads (workers={best_workers})",
    ])
    emit(
        "sharded_q1",
        table(
            ["config", "wall ms", "ns/row", "headline"],
            body,
            f"TPC-H Q1 (SF={SCALE}, morsel={MORSEL_SIZE}, repro): "
            f"thread pipeline vs {SHARDS} shard processes "
            f"(steady-state exchange {exchange_bytes >> 10} KiB/query)",
        ),
    )

    for db in thread_dbs.values():
        db.close()
    sharded_db.close()


SHIP_SCALE = 0.05
SHIP_ROWS = int(SHIP_SCALE * 6_000_000)
SHIP_SHARDS = 2
SHIP_ROUNDS = 5


def test_replica_shipping_report():
    with Database(sum_mode="repro") as db:
        load_lineitem(db, scale_factor=SHIP_SCALE)
        bits = _result_bits(run_q1(db))

    def timed_q1(db):
        gc.collect()
        started = time.perf_counter()
        result = run_q1(db)
        wall = time.perf_counter() - started
        assert _result_bits(result) == bits
        return wall, db.last_pipeline_stats.exchange_bytes

    first, warm, after = [], [], []
    for _ in range(SHIP_ROUNDS):
        with Database(sum_mode="repro", shards=SHIP_SHARDS) as db:
            load_lineitem(db, scale_factor=SHIP_SCALE)
            db.execute("CREATE TABLE other (x INT)")
            first.append(timed_q1(db))
            warm.extend(timed_q1(db) for _ in range(5))
            db.execute("INSERT INTO other VALUES (1)")
            after.append(timed_q1(db))

    def median_wall(samples):
        return statistics.median(wall for wall, _ in samples)

    warm_wall = median_wall(warm)
    body = []
    for name, label, samples in (
        ("q1_sharded2_first_query", "first query, fresh fleet", first),
        (None, "warm (5 per database)", warm),
        ("q1_sharded2_after_unrelated_write",
         "first after a write to another table", after),
    ):
        wall = median_wall(samples)
        exchanged = max(nbytes for _, nbytes in samples)
        if name is not None:
            record_kernel(name, ns_per_element(wall, SHIP_ROWS))
            record_config(
                name, scale_factor=SHIP_SCALE, shards=SHIP_SHARDS,
                morsel_size=DEFAULT_MORSEL_SIZE,
                clock=f"wall, median of {SHIP_ROUNDS} fresh databases",
                exchange_bytes=exchanged,
            )
        body.append([
            label, round(wall * 1e3, 2),
            round(ns_per_element(wall, SHIP_ROWS), 1), exchanged,
            f"{wall / warm_wall:.2f}x warm",
        ])
    emit(
        "sharded_replica_shipping",
        table(
            ["statement", "wall ms", "ns/row", "exchange bytes", "headline"],
            body,
            f"TPC-H Q1 (SF={SHIP_SCALE}, shards={SHIP_SHARDS}, repro): "
            "what shipping replicas costs, and when it is paid",
        ),
    )
