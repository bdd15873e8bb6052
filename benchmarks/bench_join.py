"""Hash-join benchmarks: probe kernel throughput and TPC-H Q3's
aggregate stage.

Two series, both landing in ``BENCH_pr.json`` for the CI
bench-regression gate:

* **probe micro-kernel** — :class:`repro.engine.join.HashJoin.probe`
  (dictionary-encoded keys, ``searchsorted`` match, ``repeat``/gather
  expansion) against a pure-Python dict probe of the same build table.
  The vectorized kernel must beat the Python loop by the recorded
  speedup floor — joins are on the hot path of every multi-table
  query, so a regression here is a regression everywhere;
* **Q3 build-row GROUP BY** — Q3's aggregate stage alone: lineitem
  morsels probe one cached orders build and feed the group table
  through the build-row rule (``GROUP BY l_orderkey, o_orderdate,
  o_shippriority``, every key read off the matched orders row), then
  finalize (ns per probe row).  This is the group-id path the join's
  once-per-build key factorisation serves.

Q3 end to end is the served ``q3_join_topk`` workload of
``benchmarks/e2e``; that its bits do not depend on the build side is a
tier-1 test (``tests/tpch/test_tpch_multi.py``).
"""

import datetime
import time

import numpy as np

from _common import emit, ns_per_element, record_kernel, record_speedup, table
from repro.engine.join import HashJoin
from repro.engine.operators import AggregateSpec, Batch, SumConfig
from repro.engine.sql import parse_expression
from repro.engine.vectorized import VectorizedGroupTable
from repro.tpch.dbgen import generate_lineitem_arrays, generate_orders_arrays

REPS = 5

BUILD_ROWS = 20_000
PROBE_ROWS = 1 << 18

#: The build-row GROUP BY series: TPC-H scale and morsel of the served
#: ``q3_join_topk`` workload, Q3's date cutoff, and the rule the planner
#: derives for Q3 (the probe key, then two orders columns).
GROUPBY_SCALE = 0.05
GROUPBY_MORSEL = 65536
Q3_CUTOFF = datetime.date(1995, 3, 15).toordinal()
Q3_GROUP_KEYS = (
    ("key", 0, np.dtype(np.int64), None),
    ("col", "o_orderdate", np.dtype(np.int64), None),
    ("col", "o_shippriority", np.dtype(np.int64), None),
)

#: Acceptance floor: the vectorized probe vs. a Python dict probe.
PROBE_SPEEDUP_FLOOR = 2.0


def measure_best(fn, reps=REPS):
    best = float("inf")
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def probe_kernel_series():
    rng = np.random.default_rng(7)
    build_keys = np.arange(BUILD_ROWS, dtype=np.int64)
    build = Batch(
        {"k": build_keys, "w": rng.uniform(size=BUILD_ROWS)}, {}
    )
    probe = Batch(
        {
            "k": rng.integers(0, BUILD_ROWS * 2, size=PROBE_ROWS),
            "v": rng.uniform(size=PROBE_ROWS),
        },
        {},
    )
    join = HashJoin(
        build, (parse_expression("k"),), (parse_expression("k"),)
    )
    join.probe(probe)  # warm-up
    vector_seconds, joined = measure_best(lambda: join.probe(probe))

    # Python-dict baseline probe producing the same pairing.
    lookup = {int(key): i for i, key in enumerate(build_keys)}

    def python_probe():
        probe_idx, build_idx = [], []
        for i, key in enumerate(probe.columns["k"].tolist()):
            hit = lookup.get(key)
            if hit is not None:
                probe_idx.append(i)
                build_idx.append(hit)
        return (
            {name: arr[probe_idx] for name, arr in probe.columns.items()}
            | {"w": build.columns["w"][build_idx]}
        )

    python_seconds, python_joined = measure_best(python_probe, reps=2)
    assert joined.nrows == len(python_joined["v"])
    return vector_seconds, python_seconds


def q3_groupby_series():
    """Best-of-``REPS`` seconds of one Q3 aggregate stage over a cached
    build, and the probe rows it reads.  The orders build keeps Q3's
    date filter and one in five customers (the segment filter's
    share); lineitem keeps Q3's ship-date filter."""
    orders = generate_orders_arrays(GROUPBY_SCALE)
    keep = (orders["o_orderdate"] < Q3_CUTOFF) & (orders["o_custkey"] % 5 == 0)
    build = Batch({name: orders[name][keep] for name in
                   ("o_orderkey", "o_orderdate", "o_shippriority")}, {})
    item = generate_lineitem_arrays(GROUPBY_SCALE)
    keep = item["l_shipdate"] > Q3_CUTOFF
    probe = {name: item[name][keep] for name in
             ("l_orderkey", "l_extendedprice", "l_discount")}
    nrows = len(probe["l_orderkey"])
    morsels = [
        Batch({name: arr[start:start + GROUPBY_MORSEL]
               for name, arr in probe.items()}, {})
        for start in range(0, nrows, GROUPBY_MORSEL)
    ]
    join = HashJoin(build, (parse_expression("o_orderkey"),),
                    (parse_expression("l_orderkey"),))
    group_exprs = tuple(parse_expression(name) for name in
                        ("l_orderkey", "o_orderdate", "o_shippriority"))
    specs = [AggregateSpec(
        parse_expression("SUM(l_extendedprice * (1 - l_discount))"),
        SumConfig("repro"),
    )]

    def statement():
        table = VectorizedGroupTable(group_exprs, specs)
        for batch in morsels:
            table.update(join.probe(batch, group_keys=Q3_GROUP_KEYS))
        return table.finalize()

    statement()  # the first statement on a build pays its one-off costs
    best, _ = measure_best(statement, reps=2 * REPS)
    return best, nrows


def test_join_report():
    vector_seconds, python_seconds = probe_kernel_series()
    probe_speedup = python_seconds / vector_seconds
    record_kernel(
        "join_probe", ns_per_element(vector_seconds, PROBE_ROWS)
    )
    record_speedup("join_probe_vectorized", probe_speedup)

    groupby_seconds, groupby_rows = q3_groupby_series()
    record_kernel("q3_build_row_groupby",
                  ns_per_element(groupby_seconds, groupby_rows))

    emit(
        "join_pipeline",
        table(
            ["series", "seconds", "ns/row"],
            [
                ["probe kernel (vectorized)", round(vector_seconds, 4),
                 round(ns_per_element(vector_seconds, PROBE_ROWS), 1)],
                ["probe kernel (python dict)", round(python_seconds, 4),
                 round(ns_per_element(python_seconds, PROBE_ROWS), 1)],
                [f"Q3 build-row GROUP BY (SF={GROUPBY_SCALE})",
                 round(groupby_seconds, 4),
                 round(ns_per_element(groupby_seconds, groupby_rows), 1)],
            ],
            title=(
                f"hash join: {BUILD_ROWS} build x {PROBE_ROWS} probe rows; "
                f"TPC-H Q3 aggregate stage at SF={GROUPBY_SCALE}"
            ),
        ),
        "The Q3 stage probes one cached orders build with lineitem\n"
        "morsels and takes group ids from the matched build row.",
    )

    assert probe_speedup >= PROBE_SPEEDUP_FLOOR, (
        f"vectorized probe speedup {probe_speedup:.2f}x below the "
        f"{PROBE_SPEEDUP_FLOOR}x floor"
    )
