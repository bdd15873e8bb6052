"""Materialized-view refresh vs. the SELECT it saves.

The PR-5 acceptance gate: refreshing the TPC-H Q1 materialized view
after a **1% delta** of new lineitem rows must be at least **2.5x**
faster than recomputing the aggregate from scratch — while remaining
byte-identical to the from-scratch result (asserted here and in the
``view_maintenance`` leg of the reproducibility CI).  (The bound was
5x before late materialization and the batched ladder update roughly
halved the full recomputation; the floor was re-based — the refresh
itself did not get slower.)  A second leg holds a MIN / MAX view to
the same 2.5x: every view merges its inserts, the extremes too.

Reported series (``sum_mode="repro"``, ``workers=1``), per leg:

* **full SELECT** — the view's GROUP BY over the whole lineitem table
  (what every query pays without a view);
* **1% delta refresh** — ``REFRESH MATERIALIZED VIEW`` after
  inserting a 1% delta: only the delta rows are merged into the view's
  group table (the one a SELECT builds).  The delta is insert-only; a
  refresh whose delta deletes a row rebuilds the view from its live
  rows, which costs about a full recompute.

Everything lands in ``BENCH_pr.json`` for the CI bench-regression
gate: ns/element per leg plus the ``view_refresh_incremental_over_full``
(Q1) and ``view_refresh_minmax_over_full`` ratios, whose committed
floors of 2.5 are the acceptance bounds.
"""

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
from repro.tpch import Q1_SQL, load_lineitem

SCALE = 0.02        # ~120k lineitem rows
MORSEL_SIZE = 8192
ROWS = int(SCALE * 6_000_000)
REPS = 5
DELTA_FRACTION = 0.01

#: The acceptance bound enforced through baseline.json's
#: ``view_refresh_incremental_over_full`` and
#: ``view_refresh_minmax_over_full`` floors.
MIN_SPEEDUP = 2.5

Q1_VIEW_SQL = """
SELECT
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

MINMAX_SQL = """
SELECT
    l_returnflag,
    l_linestatus,
    MIN(l_quantity) AS min_qty,
    MAX(l_quantity) AS max_qty,
    MIN(l_extendedprice) AS min_price,
    MAX(l_extendedprice) AS max_price,
    MIN(l_discount) AS min_disc,
    MAX(l_discount) AS max_disc
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


def _best_of(db, sql) -> float:
    best = float("inf")
    for _ in range(REPS):
        started = time.perf_counter()
        db.execute(sql)
        best = min(best, time.perf_counter() - started)
    return best


def _refresh_leg(db, name, view_sql, query, delta_rows):
    """``(full_s, refresh_s)``, best of REPS: ``query`` over the whole
    table with no view, and a REFRESH of the view ``view_sql`` defines
    after each 1% delta.  The served bits are asserted equal to the
    from-scratch ``query`` over the grown table."""
    db.execute(query)  # warm-up
    full_s = _best_of(db, query)
    db.execute(f"CREATE MATERIALIZED VIEW {name} AS {view_sql}")
    view = db.view(name)
    lineitem = db.table("lineitem")
    refresh_s = float("inf")
    for _ in range(REPS):
        lineitem.insert_rows(delta_rows)
        assert not view.is_fresh()
        started = time.perf_counter()
        consumed = db.execute(f"REFRESH MATERIALIZED VIEW {name}")
        refresh_s = min(refresh_s, time.perf_counter() - started)
        assert consumed == len(delta_rows)
        assert view.is_fresh()
    assert f"ViewScan({name}" in db.explain(query)
    served_bits = _result_bits(db.execute(query))
    db.execute(f"DROP MATERIALIZED VIEW {name}")
    assert served_bits == _result_bits(db.execute(query))
    return full_s, refresh_s


def test_view_refresh_report():
    db = Database(sum_mode="repro", workers=1, morsel_size=MORSEL_SIZE)
    load_lineitem(db, scale_factor=SCALE)
    lineitem = db.table("lineitem")
    names = lineitem.schema.names()
    delta_rows = [
        dict(zip(names, row))
        for row in lineitem.rows()[: max(1, int(len(lineitem) * DELTA_FRACTION))]
    ]
    delta_count = len(delta_rows)
    #: (leg, full-SELECT kernel, refresh kernel, ratio, timings)
    legs = (
        ("Q1", "view_full_recompute", "view_refresh_1pct_delta",
         "view_refresh_incremental_over_full",
         _refresh_leg(db, "q1_view", Q1_VIEW_SQL, Q1_SQL, delta_rows)),
        ("MIN/MAX", "view_refresh_minmax_full_select",
         "view_refresh_minmax_1pct_delta", "view_refresh_minmax_over_full",
         _refresh_leg(db, "minmax_view", MINMAX_SQL,
                      MINMAX_SQL + "ORDER BY l_returnflag, l_linestatus",
                      delta_rows)),
    )
    rows, ratios = [], {}
    for leg, full_kernel, refresh_kernel, ratio_name, timings in legs:
        full_s, refresh_s = timings
        ratio = ratios[leg] = full_s / refresh_s
        record_kernel(full_kernel, ns_per_element(full_s, ROWS))
        record_kernel(refresh_kernel, ns_per_element(refresh_s, ROWS))
        record_speedup(ratio_name, ratio)
        record_config(ratio_name, rows=ROWS, delta_rows=delta_count,
                      morsel_size=MORSEL_SIZE, sum_mode="repro", workers=1)
        rows += [
            (
                f"{leg} full SELECT", ROWS,
                f"{full_s * 1e3:.1f}", f"{ns_per_element(full_s, ROWS):.0f}",
                "1.00x",
            ),
            (
                f"{leg} 1% delta refresh", delta_count,
                f"{refresh_s * 1e3:.1f}",
                f"{ns_per_element(refresh_s, ROWS):.0f}",
                f"{ratio:.1f}x",
            ),
        ]
    emit(
        "bench_view_refresh",
        table(
            ["leg", "rows touched", "ms", "ns/el (vs table)", "speedup"],
            rows,
            title=(
                f"TPC-H lineitem materialized views, repro mode "
                f"({ROWS} rows, {DELTA_FRACTION:.0%} delta)"
            ),
        ),
        (
            f"1% delta refresh {ratios['Q1']:.1f}x (Q1) and "
            f"{ratios['MIN/MAX']:.1f}x (MIN/MAX) faster than the full "
            f"SELECT (gate: >= {MIN_SPEEDUP}x via the "
            f"view_refresh_incremental_over_full and "
            f"view_refresh_minmax_over_full floors in baseline.json); "
            f"served view bits identical to the from-scratch SELECT."
        ),
    )

    for leg, ratio in ratios.items():
        assert ratio >= MIN_SPEEDUP, (
            f"{leg} refresh only {ratio:.2f}x faster than the full "
            f"SELECT (gate: >= {MIN_SPEEDUP}x)"
        )
