"""One parallel path: serial vs ``workers=2`` executor processes.

``workers`` is the engine's degree of parallelism, and ``workers = N >
1`` is served by executor processes: every aggregate whose chain
qualifies runs as a ``ShardedAggregate``, executor ``s`` aggregating
every ``N``-th row from row ``s`` on and shipping its partial group
table back over the spill wire format.  The paper's exact-merge
property is what makes the split invisible — the repro bits are
asserted equal to serial here — so the only question is what it costs.

The report times the three served read shapes (TPC-H Q1 and Q3 at SF
0.05, and the paper's pairs input: 2^18 rows into 2^15 groups) on the
clock a client sees — ``Session.execute`` wall-clock, plan cache warm,
replicas shipped — serial and at ``workers=2``, interleaved round-robin
so the box's slow drift hits both alike.  One rule decides whether a
parallel mechanism is worth owning: at least 1.3x serial at N = 2 on
some served shape.  It is gated on Q1 (``q1_workers2_over_serial``,
floor in ``baseline.json``), where the partial state is four groups;
on Q3 and on 2^15 groups the exchanged state outweighs the split and
``workers=2`` is slower — reported, not gated.

What replica shipping itself costs is the second report
(:func:`test_replica_shipping_report`, Q1 at ``workers=2``): the first
query on a fresh fleet (spawn, frame and ship every replica), and the
first one after a committed write to an *unrelated* table — which must
ship nothing, because a replica is named by the content of the table it
copies.  Bits asserted equal to serial.
"""

import gc
import statistics
import time

import numpy as np

from _common import (
    emit,
    ns_per_element,
    record_config,
    record_kernel,
    record_speedup,
    standard_pairs,
    table,
)
from repro.engine import DEFAULT_MORSEL_SIZE, Database
from repro.tpch import Q1_SQL, Q3_SQL, load_lineitem, load_tpch, run_q1

SCALE = 0.05                      # ~300k lineitem rows: what is served
PAIRS_ROWS, PAIRS_GROUPS = 2**18, 2**15
PAIRS_SQL = "SELECT k, SUM(v) AS s FROM pairs GROUP BY k"
ROUNDS = 9
SHAPES = (("q1", Q1_SQL), ("q3", Q3_SQL), ("highcard", PAIRS_SQL))
#: (sum mode, workers) per session, per shape; IEEE serial Q1 only
#: feeds its ``baseline.json`` entry
CONFIGS = {
    "q1": (("repro", 1), ("repro", 2), ("ieee", 1)),
    "q3": (("repro", 1), ("repro", 2)),
    "highcard": (("repro", 1), ("repro", 2)),
}


def _result_bits(result):
    return tuple(np.asarray(arr).tobytes() for arr in result.arrays)


def _timed(session, sql):
    gc.collect()
    started = time.perf_counter()
    result = session.execute(sql)
    return time.perf_counter() - started, result


def _load(db) -> dict:
    """Rows each shape scans, by name."""
    counts = load_tpch(db, scale_factor=SCALE)
    keys, values = standard_pairs(PAIRS_ROWS, PAIRS_GROUPS)
    db.execute("CREATE TABLE pairs (k INT, v DOUBLE)")
    db.table("pairs").bulk_load({"k": keys.astype(np.int64), "v": values})
    return {"q1": counts["lineitem"], "q3": counts["lineitem"],
            "highcard": PAIRS_ROWS}


def measure():
    """Median wall per ``(shape, mode, workers)`` and the rows each
    shape scans; repro bits asserted equal across the worker counts."""
    with Database() as db:
        rows = _load(db)
        sessions = {
            (mode, workers): db.session(sum_mode=mode, workers=workers)
            for mode, workers in CONFIGS["q1"]
        }
        samples = {}
        for shape, sql in SHAPES:
            bits = {}
            for config in CONFIGS[shape]:
                # warm-up: plan cache, key dictionaries, shipped replicas
                bits[config] = _result_bits(sessions[config].execute(sql))
                samples[(shape,) + config] = []
            assert bits["repro", 1] == bits["repro", 2], shape
            for _ in range(ROUNDS):
                for config in CONFIGS[shape]:
                    samples[(shape,) + config].append(
                        _timed(sessions[config], sql)[0]
                    )
    return {key: statistics.median(walls) for key, walls in samples.items()}, rows


def test_parallel_scaling_report():
    wall, rows = measure()
    for mode in ("ieee", "repro"):
        name = f"q1_{mode}_workers1"
        record_kernel(name, ns_per_element(wall["q1", mode, 1], rows["q1"]))
        record_config(name, clock="Session.execute wall, plan cache warm",
                      scale_factor=SCALE, morsel_size=DEFAULT_MORSEL_SIZE)
    record_speedup("q1_workers2_over_serial",
                   wall["q1", "repro", 1] / wall["q1", "repro", 2])

    emit(
        "parallel_scaling",
        table(
            ["shape", "serial ms", "workers=2 ms", "workers=2 vs serial"],
            [
                [shape, round(wall[shape, "repro", 1] * 1e3, 2),
                 round(wall[shape, "repro", 2] * 1e3, 2),
                 f"{wall[shape, 'repro', 1] / wall[shape, 'repro', 2]:.2f}x"]
                for shape, _ in SHAPES
            ],
            title=f"repro, SF={SCALE} (Q1, Q3) and {PAIRS_ROWS} pairs into "
                  f"{PAIRS_GROUPS} groups, morsel={DEFAULT_MORSEL_SIZE}: "
                  f"median Session.execute wall of {ROUNDS}",
        ),
        "workers=2 runs each aggregate on two executor processes and\n"
        "merges their partial tables exactly: bits asserted equal to\n"
        "serial.  It pays where the partial state is small (Q1: four\n"
        "groups) and loses where shipping it back outweighs the split.",
    )


SHIP_ROUNDS = 5


def test_replica_shipping_report():
    with Database(sum_mode="repro") as db:
        load_lineitem(db, scale_factor=SCALE)
        bits = _result_bits(run_q1(db))
    ship_rows = int(SCALE * 6_000_000)

    def timed_q1(db):
        wall, result = _timed(db, Q1_SQL)
        assert _result_bits(result) == bits
        return wall, db.last_pipeline_stats.exchange_bytes

    first, warm, after = [], [], []
    for _ in range(SHIP_ROUNDS):
        with Database(sum_mode="repro", workers=2) as db:
            load_lineitem(db, scale_factor=SCALE)
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
            record_kernel(name, ns_per_element(wall, ship_rows))
            record_config(
                name, scale_factor=SCALE, workers=2,
                morsel_size=DEFAULT_MORSEL_SIZE,
                clock=f"wall, median of {SHIP_ROUNDS} fresh databases",
                exchange_bytes=exchanged,
            )
        body.append([
            label, round(wall * 1e3, 2),
            round(ns_per_element(wall, ship_rows), 1), exchanged,
            f"{wall / warm_wall:.2f}x warm",
        ])
    emit(
        "sharded_replica_shipping",
        table(
            ["statement", "wall ms", "ns/row", "exchange bytes", "headline"],
            body,
            f"TPC-H Q1 (SF={SCALE}, workers=2, repro): "
            "what shipping replicas costs, and when it is paid",
        ),
    )
