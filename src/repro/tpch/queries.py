"""TPC-H queries used by the paper's end-to-end evaluation.

Query 1 is "aggregation-intensive": four SUMs, three AVGs and a COUNT
over ~95 % of ``lineitem``, grouped by two one-character flags (at most
six groups).  Table IV measures its CPU time under four SUM
implementations; :func:`run_q1` reproduces that measurement on our
engine, and :func:`q1_reference` provides an exact (fsum) oracle.

Query 6 (also shipped) is the no-grouping aggregation counterpart.

Queries 3 and 5 exercise the planner stack end to end: multi-table
FROM lists whose WHERE equalities become hash-join keys, filters pushed
below the joins into the scans, and a reproducible SUM aggregated on
the probe side of the join pipeline.  In repro mode their
result bits are identical for every worker count, morsel size, and
join build side.  :func:`q3_reference` / :func:`q5_reference` are
``math.fsum`` oracles over hand-rolled dictionary joins.
"""

from __future__ import annotations

import math

import numpy as np

from ..engine.session import Database

__all__ = [
    "Q1_SQL", "Q3_SQL", "Q5_SQL", "Q6_SQL",
    "run_q1", "run_q3", "run_q5", "run_q6",
    "q1_reference", "q3_reference", "q5_reference",
]

Q1_SQL = """
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
ORDER BY l_returnflag, l_linestatus
"""

Q6_SQL = """
SELECT SUM(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01'
  AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24
"""

Q3_SQL = """
SELECT
    l_orderkey,
    SUM(l_extendedprice * (1 - l_discount)) AS revenue,
    o_orderdate,
    o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING'
  AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '1995-03-15'
  AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate, l_orderkey
LIMIT 10
"""

Q5_SQL = """
SELECT
    n_name,
    SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1994-01-01'
  AND o_orderdate < DATE '1995-01-01'
GROUP BY n_name
ORDER BY revenue DESC, n_name
"""


def run_q1(db: Database):
    """Execute Query 1; ``db.last_timings`` holds the operator breakdown."""
    return db.execute(Q1_SQL)


def run_q6(db: Database):
    """Execute Query 6."""
    return db.execute(Q6_SQL)


def run_q3(db: Database):
    """Execute Query 3 (customer x orders x lineitem)."""
    return db.execute(Q3_SQL)


def run_q5(db: Database):
    """Execute Query 5 (six-table local-supplier-volume join)."""
    return db.execute(Q5_SQL)


def q1_reference(db: Database) -> dict:
    """Exact Q1 oracle: per-group sums via ``math.fsum``.

    Returns ``{(returnflag, linestatus): {column: exact_value}}``.
    """
    table = db.table("lineitem")
    data = table.scan()
    import datetime

    cutoff = datetime.date(1998, 12, 1).toordinal() - 90
    mask = data["l_shipdate"] <= cutoff
    keys = list(zip(data["l_returnflag"][mask], data["l_linestatus"][mask]))
    qty = data["l_quantity"][mask]
    price = data["l_extendedprice"][mask]
    disc = data["l_discount"][mask]
    tax = data["l_tax"][mask]
    disc_price = price * (1 - disc)
    charge = disc_price * (1 + tax)

    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out = {}
    for key, idx in groups.items():
        idx = np.asarray(idx)
        n = len(idx)
        out[key] = {
            "sum_qty": math.fsum(qty[idx]),
            "sum_base_price": math.fsum(price[idx]),
            "sum_disc_price": math.fsum(disc_price[idx]),
            "sum_charge": math.fsum(charge[idx]),
            "avg_qty": math.fsum(qty[idx]) / n,
            "avg_price": math.fsum(price[idx]) / n,
            "avg_disc": math.fsum(disc[idx]) / n,
            "count_order": n,
        }
    return out


def q3_reference(db: Database) -> dict:
    """Exact Q3 oracle via dictionary joins + ``math.fsum``.

    Returns ``{(l_orderkey, o_orderdate, o_shippriority): revenue}``
    for **all** qualifying groups (no LIMIT applied).
    """
    import datetime

    cutoff = datetime.date(1995, 3, 15).toordinal()
    customer = db.table("customer").scan()
    orders = db.table("orders").scan()
    lineitem = db.table("lineitem").scan()

    building = set(
        customer["c_custkey"][customer["c_mktsegment"] == "BUILDING"].tolist()
    )
    order_info: dict[int, tuple[int, int]] = {}
    for key, cust, date, priority in zip(
        orders["o_orderkey"].tolist(), orders["o_custkey"].tolist(),
        orders["o_orderdate"].tolist(), orders["o_shippriority"].tolist(),
    ):
        if date < cutoff and cust in building:
            order_info[key] = (date, priority)

    terms: dict[tuple, list[float]] = {}
    mask = lineitem["l_shipdate"] > cutoff
    revenue = (
        lineitem["l_extendedprice"][mask]
        * (1 - lineitem["l_discount"][mask])
    )
    for orderkey, value in zip(
        lineitem["l_orderkey"][mask].tolist(), revenue.tolist()
    ):
        info = order_info.get(orderkey)
        if info is not None:
            terms.setdefault((orderkey, *info), []).append(value)
    return {key: math.fsum(values) for key, values in terms.items()}


def q5_reference(db: Database) -> dict:
    """Exact Q5 oracle: ``{n_name: revenue}`` via dictionary joins."""
    import datetime

    lo = datetime.date(1994, 1, 1).toordinal()
    hi = datetime.date(1995, 1, 1).toordinal()
    customer = db.table("customer").scan()
    orders = db.table("orders").scan()
    lineitem = db.table("lineitem").scan()
    supplier = db.table("supplier").scan()
    nation = db.table("nation").scan()
    region = db.table("region").scan()

    asia = set(
        region["r_regionkey"][region["r_name"] == "ASIA"].tolist()
    )
    nation_name = {
        key: name
        for key, name, regionkey in zip(
            nation["n_nationkey"].tolist(), nation["n_name"].tolist(),
            nation["n_regionkey"].tolist(),
        )
        if regionkey in asia
    }
    cust_nation = dict(
        zip(customer["c_custkey"].tolist(), customer["c_nationkey"].tolist())
    )
    supp_nation = dict(
        zip(supplier["s_suppkey"].tolist(), supplier["s_nationkey"].tolist())
    )
    order_cust = {
        key: cust
        for key, cust, date in zip(
            orders["o_orderkey"].tolist(), orders["o_custkey"].tolist(),
            orders["o_orderdate"].tolist(),
        )
        if lo <= date < hi
    }

    terms: dict[str, list[float]] = {}
    revenue = lineitem["l_extendedprice"] * (1 - lineitem["l_discount"])
    for orderkey, suppkey, value in zip(
        lineitem["l_orderkey"].tolist(), lineitem["l_suppkey"].tolist(),
        revenue.tolist(),
    ):
        cust = order_cust.get(orderkey)
        if cust is None:
            continue
        supplier_nation = supp_nation.get(suppkey)
        if supplier_nation is None or cust_nation.get(cust) != supplier_nation:
            continue
        name = nation_name.get(supplier_nation)
        if name is None:
            continue
        terms.setdefault(name, []).append(value)
    return {name: math.fsum(values) for name, values in terms.items()}
