"""Incremental materialized-view refresh vs. full recomputation.

The PR-5 acceptance gate: refreshing the TPC-H Q1 materialized view
after a **1% delta** of new lineitem rows must be at least **2.5x**
faster than recomputing the aggregate from scratch — while remaining
byte-identical to the from-scratch result (asserted here and in the
``view_maintenance`` leg of the reproducibility CI).  (The bound was
5x before late materialization and the batched ladder update roughly
halved the full recomputation; the floor was re-based — the refresh
itself did not get slower.)

Reported series (``sum_mode="repro"``, ``workers=1``):

* **full recompute** — the Q1 GROUP BY over the whole lineitem table
  (what every query pays without a view);
* **incremental refresh** — ``REFRESH MATERIALIZED VIEW`` after
  inserting a 1% delta: only the delta rows are merged into the view's
  group table (the one a SELECT builds).  The delta is insert-only; a
  refresh whose delta deletes a row rebuilds the view from its live
  rows, which costs about a full recompute.

Everything lands in ``BENCH_pr.json`` for the CI bench-regression
gate: ns/element per leg plus the ``view_refresh_incremental_over_full``
ratio whose committed floor of 2.5 is the acceptance bound.
"""

import time

import numpy as np

from _common import (
    emit,
    ns_per_element,
    record_kernel,
    record_speedup,
    table,
)
from repro.engine import Database
from repro.tpch import Q1_SQL, load_lineitem

SCALE = 0.02        # ~120k lineitem rows
MORSEL_SIZE = 8192
ROWS = int(SCALE * 6_000_000)
REPS = 5
DELTA_FRACTION = 0.01

#: The acceptance bound enforced through baseline.json's
#: ``view_refresh_incremental_over_full`` floor.
MIN_SPEEDUP = 2.5

Q1_VIEW_SQL = """
CREATE MATERIALIZED VIEW q1_view AS SELECT
    l_returnflag,
    l_linestatus,
    SUM(l_quantity) AS sum_qty,
    SUM(l_extendedprice) AS sum_base_price,
    SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
    SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
    AVG(l_quantity) AS avg_qty,
    AVG(l_extendedprice) AS avg_price,
    AVG(l_discount) AS avg_disc,
    COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY l_returnflag, l_linestatus
"""


def _result_bits(result):
    pieces = []
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype == object:
            pieces.append("|".join(map(repr, arr.tolist())).encode())
        else:
            pieces.append(arr.tobytes())
    return tuple(pieces)


def test_view_refresh_report():
    db = Database(sum_mode="repro", workers=1, morsel_size=MORSEL_SIZE)
    load_lineitem(db, scale_factor=SCALE)
    lineitem = db.table("lineitem")
    names = lineitem.schema.names()
    delta_rows = [
        dict(zip(names, row))
        for row in lineitem.rows()[: max(1, int(len(lineitem) * DELTA_FRACTION))]
    ]

    # Full recompute: the plain Q1 GROUP BY (no view exists yet).
    db.execute(Q1_SQL)  # warm-up
    full_s = float("inf")
    for _ in range(REPS):
        started = time.perf_counter()
        db.execute(Q1_SQL)
        full_s = min(full_s, time.perf_counter() - started)

    db.execute(Q1_VIEW_SQL)
    view = db.view("q1_view")
    assert view.maintenance == "incremental"

    # Incremental refresh of a 1% delta, best of REPS.
    incremental_s = float("inf")
    for _ in range(REPS):
        lineitem.insert_rows(delta_rows)
        assert not view.is_fresh()
        started = time.perf_counter()
        consumed = db.execute("REFRESH MATERIALIZED VIEW q1_view")
        incremental_s = min(incremental_s, time.perf_counter() - started)
        assert consumed == len(delta_rows)
        assert view.is_fresh()

    # Reproducibility: the served view bits equal the from-scratch
    # recomputation over the mutated table.
    assert "ViewScan(q1_view" in db.explain(Q1_SQL)
    served_bits = _result_bits(db.execute(Q1_SQL))
    db.execute("DROP MATERIALIZED VIEW q1_view")
    scratch_bits = _result_bits(db.execute(Q1_SQL))
    assert served_bits == scratch_bits

    ratio = full_s / incremental_s
    delta_count = len(delta_rows)
    record_kernel("view_full_recompute", ns_per_element(full_s, ROWS))
    record_kernel("view_refresh_1pct_delta", ns_per_element(incremental_s, ROWS))
    record_speedup("view_refresh_incremental_over_full", ratio)

    rows = [
        (
            "full recompute", ROWS,
            f"{full_s * 1e3:.1f}", f"{ns_per_element(full_s, ROWS):.0f}",
            "1.00x",
        ),
        (
            "incremental refresh", delta_count,
            f"{incremental_s * 1e3:.1f}",
            f"{ns_per_element(incremental_s, ROWS):.0f}",
            f"{ratio:.1f}x",
        ),
    ]
    emit(
        "bench_view_refresh",
        table(
            ["leg", "rows touched", "ms", "ns/el (vs table)", "speedup"],
            rows,
            title=(
                f"TPC-H Q1 materialized view, repro mode "
                f"({ROWS} rows, {DELTA_FRACTION:.0%} delta)"
            ),
        ),
        (
            f"incremental refresh {ratio:.1f}x faster than full "
            f"recompute (gate: >= {MIN_SPEEDUP}x via the "
            f"view_refresh_incremental_over_full floor in baseline.json); "
            f"served view bits identical to the from-scratch Q1."
        ),
    )

    assert ratio >= MIN_SPEEDUP, (
        f"incremental refresh only {ratio:.2f}x faster than full "
        f"recompute (gate: >= {MIN_SPEEDUP}x)"
    )
