"""Worker threads: TPC-H Q1 wall-clock vs. worker count.

The morsel-driven pipeline distributes scan chunks round-robin over
workers and merges the per-worker partial aggregates exactly, so the
repro modes return identical bits at every worker count — this
benchmark measures what that costs and what the threads buy, on the
only clock a client sees: ``PipelineStats.wall_seconds``.

CPython's GIL serialises the worker threads except inside the NumPy
calls that release it, and every extra worker seeds and merges a group
table of its own, so the honest expectation is "about the same or a
little worse" — on the 2-core box this was written on Q1 reads 0.6x to
1.0x at ``workers=2``.  The table is a report, not a gate: "no slower at
``workers=2`` than at 1" fails on this box with or without any change
under test, and no other bound has been derived; what ``workers`` must
deliver (and whether it stays a knob) waits for a box with at least
four cores.  Only the ``workers=1`` wall-clock is recorded against
``baseline.json``.  (An earlier version reported a *modelled* critical
path — max per-thread CPU time + merge + finalize — which read 3.2x at
four workers where no clock ever showed a gain; it is gone, see README
"Worker threads, measured".)  Process-level scale-out is ``shards``,
benchmarked in ``bench_sharded.py``.
"""

import os
import statistics

from _common import emit, record_config, record_kernel, table
from repro.engine import DEFAULT_MORSEL_SIZE, Database
from repro.tpch import load_lineitem, run_q1

SCALE = 0.05                      # ~300k lineitem rows: what is served
MORSEL_SIZE = DEFAULT_MORSEL_SIZE  # 5 morsels; smaller ones only add dispatch
#: Sweepable so the nightly deep matrix can extend the sweep to the
#: paper's 16-worker point without slowing every PR run.
WORKER_COUNTS = tuple(
    int(part)
    for part in os.environ.get(
        "REPRO_BENCH_WORKER_COUNTS", "1,2,4,8"
    ).split(",")
    if part.strip()
)
MODES = ("ieee", "repro")
ROWS = int(SCALE * 6_000_000)
ROUNDS = 9


def measure() -> dict:
    """Median ``wall_seconds`` per (mode, workers), the configurations
    interleaved round-robin so the box's slow drift hits all alike."""
    dbs = {}
    for mode in MODES:
        for workers in WORKER_COUNTS:
            db = Database(sum_mode=mode, workers=workers,
                          morsel_size=MORSEL_SIZE)
            load_lineitem(db, scale_factor=SCALE)
            run_q1(db)  # warm-up: key dictionaries, plan cache, pool
            dbs[mode, workers] = db
    samples = {key: [] for key in dbs}
    for _ in range(ROUNDS):
        for key, db in dbs.items():
            run_q1(db)
            samples[key].append(db.last_pipeline_stats.wall_seconds)
    for db in dbs.values():
        db.close()
    return {key: statistics.median(walls) for key, walls in samples.items()}


def test_parallel_scaling_report():
    wall = measure()
    for mode in MODES:
        record_kernel(f"q1_{mode}_workers1", wall[mode, 1] / ROWS * 1e9)
        record_config(f"q1_{mode}_workers1", clock="wall_seconds",
                      scale_factor=SCALE, morsel_size=MORSEL_SIZE)

    emit(
        "parallel_scaling",
        table(
            ["mode", "workers", "wall ms", "Mrows/s", "vs workers=1"],
            [
                [mode, workers, round(wall[mode, workers] * 1e3, 2),
                 round(ROWS / wall[mode, workers] / 1e6, 1),
                 round(wall[mode, 1] / wall[mode, workers], 2)]
                for mode in MODES for workers in WORKER_COUNTS
            ],
            title=f"TPC-H Q1 (SF={SCALE}, morsel={MORSEL_SIZE}) vs workers, "
                  f"median wall-clock of {ROUNDS} on {os.cpu_count()} cores",
        ),
        "wall = PipelineStats.wall_seconds (scan morsels in, finalized\n"
        "groups out).  Worker threads share the GIL: expect <= 1x.\n"
        "Repro-mode results are bit-identical at every worker count;\n"
        "IEEE results may drift with the split.",
    )
