"""Hash-join benchmarks: probe kernel throughput and TPC-H Q3.

Three series, all landing in ``BENCH_pr.json`` for the CI
bench-regression gate:

* **probe micro-kernel** — :class:`repro.engine.join.HashJoin.probe`
  (dictionary-encoded keys, ``searchsorted`` match, ``repeat``/gather
  expansion) against a pure-Python dict probe of the same build table.
  The vectorized kernel must beat the Python loop by the recorded
  speedup floor — joins are on the hot path of every multi-table
  query, so a regression here is a regression everywhere;
* **Q3 end-to-end** — the planner-driven customer x orders x lineitem
  pipeline in repro mode (ns per lineitem row), measured at both
  forced build sides.  The two sides must return **bit-identical**
  results: the planner's build-side choice is a pure performance
  decision, which is exactly what reproducible aggregation buys;
* **Q3 build-row GROUP BY** — Q3's aggregate stage alone: lineitem
  morsels probe one cached orders build and feed the group table
  through the build-row rule (``GROUP BY l_orderkey, o_orderdate,
  o_shippriority``, every key read off the matched orders row), then
  finalize (ns per probe row).  This is the group-id path the join's
  once-per-build key factorisation serves.
"""

import datetime
import time

import numpy as np

from _common import emit, ns_per_element, record_kernel, record_speedup, table
from repro.engine import Database
from repro.engine.join import HashJoin
from repro.engine.operators import AggregateSpec, Batch, SumConfig
from repro.engine.sql import parse_expression
from repro.engine.vectorized import VectorizedGroupTable
from repro.tpch import load_tpch, run_q3
from repro.tpch.dbgen import generate_lineitem_arrays, generate_orders_arrays

SCALE = 0.01        # ~60k lineitem rows, ~15k orders, ~1.5k customers
MORSEL_SIZE = 4096
ROWS = int(SCALE * 6_000_000)
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


def _result_bits(result):
    out = []
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype.kind == "O":
            out.append(repr(arr.tolist()).encode())
        else:
            out.append(arr.tobytes())
    return tuple(out)


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


def measure_q3(build_side: str):
    db = Database(
        sum_mode="repro", workers=1, morsel_size=MORSEL_SIZE,
        join_build=build_side,
    )
    load_tpch(db, scale_factor=SCALE)
    run_q3(db)  # warm-up (key dictionaries, pools)
    best, result = measure_best(lambda: run_q3(db))
    return best, _result_bits(result)


def test_join_report():
    vector_seconds, python_seconds = probe_kernel_series()
    probe_speedup = python_seconds / vector_seconds
    record_kernel(
        "join_probe", ns_per_element(vector_seconds, PROBE_ROWS)
    )
    record_speedup("join_probe_vectorized", probe_speedup)

    left_seconds, left_bits = measure_q3("left")
    right_seconds, right_bits = measure_q3("right")
    record_kernel("q3_repro_build_left", ns_per_element(left_seconds, ROWS))
    record_kernel("q3_repro_build_right", ns_per_element(right_seconds, ROWS))
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
                ["Q3 repro, build=left", round(left_seconds, 4),
                 round(ns_per_element(left_seconds, ROWS), 1)],
                ["Q3 repro, build=right", round(right_seconds, 4),
                 round(ns_per_element(right_seconds, ROWS), 1)],
                [f"Q3 build-row GROUP BY (SF={GROUPBY_SCALE})",
                 round(groupby_seconds, 4),
                 round(ns_per_element(groupby_seconds, groupby_rows), 1)],
            ],
            title=(
                f"hash join: {BUILD_ROWS} build x {PROBE_ROWS} probe rows; "
                f"TPC-H Q3 at SF={SCALE}, workers=1"
            ),
        ),
        "Q3 runs customer |x| orders |x| lineitem through the planner\n"
        "(predicate pushdown into the scans, projection at the scans,\n"
        "build sides forced per run).  Repro-mode result bits must be\n"
        "identical for both build sides — plan choice is a pure\n"
        "performance decision under exact-merge aggregation.",
    )

    assert left_bits == right_bits, (
        "repro Q3 bits differ between join build sides"
    )
    assert probe_speedup >= PROBE_SPEEDUP_FLOOR, (
        f"vectorized probe speedup {probe_speedup:.2f}x below the "
        f"{PROBE_SPEEDUP_FLOOR}x floor"
    )
