"""The four workloads: seeded inputs, the statement each one times, and
the oracles that decide whether a served result is right.

Every workload's database also carries the small ``obs(k, v)`` table
and its materialized view ``obs_by_k``: each run closes with the same
acknowledged-write cycles, a SIGKILL and a recovery, so the durability
metrics exist on every workload (on ``durable_mixed`` the cycles *are*
the workload).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np

import repro
from repro import tpch
from repro.core.params import DEFAULT_LEVELS, DEFAULT_W
from repro.engine import DOUBLE, INT, Schema, Table
from repro.workloads import make_pairs

from common import ORACLE_KNOBS, Sizes

OBS_COLUMNS = [("k", INT), ("v", DOUBLE)]
VIEW_NAME = "obs_by_k"
VIEW_SQL = "SELECT k, SUM(v) AS s, COUNT(*) AS c FROM obs GROUP BY k"
CREATE_VIEW_SQL = f"CREATE MATERIALIZED VIEW {VIEW_NAME} AS {VIEW_SQL}"
REFRESH_SQL = f"REFRESH MATERIALIZED VIEW {VIEW_NAME}"
#: the filter keeps this statement off the view, so it always scans
FILTERED_SQL = (
    "SELECT k, SUM(v) AS s, COUNT(*) AS c FROM obs WHERE v > 0 GROUP BY k"
)
PAIRS_SQL = "SELECT k, SUM(v) AS s FROM pairs GROUP BY k"
DELETE_EVERY = 8

_Q1_CUTOFF = datetime.date(1998, 12, 1).toordinal() - 90
_Q3_CUTOFF = datetime.date(1995, 3, 15).toordinal()


@dataclass
class TableData:
    name: str
    columns: list            # [(column name, SqlType)]
    arrays: dict             # column name -> storage array

    @property
    def nrows(self) -> int:
        return len(next(iter(self.arrays.values())))

    def permuted(self, rng) -> "TableData":
        """The same relation in another physical row order."""
        order = rng.permutation(self.nrows)
        return TableData(
            self.name, self.columns,
            {name: arr[order] for name, arr in self.arrays.items()},
        )

    def user_bytes(self) -> int:
        """Bytes of user data: fixed-width columns at their storage
        width (INT 4, DOUBLE 8, DATE 4), strings at their length."""
        total = 0
        for name, sql_type in self.columns:
            arr = self.arrays[name]
            if sql_type.numpy_dtype == np.dtype(object):
                total += sum(len(value) for value in arr.tolist())
            else:
                total += len(arr) * sql_type.numpy_dtype.itemsize
        return total


def load_tables(db, tables) -> None:
    """Bulk-load ``tables`` into ``db`` (logged as one attach record
    each when the database is durable)."""
    for data in tables:
        table = Table(data.name, Schema(list(data.columns)))
        table.bulk_load(data.arrays)
        db.catalog.add(table)


# -- the obs(k, v) DML stream --------------------------------------------------

def _magnitudes(rng, n: int) -> np.ndarray:
    """Values +-2**U(-30, 30): sixty binades of mixed sign, where IEEE
    sums depend on order and the ladder has to work."""
    return rng.choice([-1.0, 1.0], size=n) * np.exp2(rng.uniform(-30, 30, n))


class ObsStream:
    """Seeded DML over ``obs``.  Values and row order come from the
    seed; the *multiset of keys* of every batch does not, so row counts
    (and with them every byte count) are the same for every seed."""

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self._rng = np.random.default_rng([seed, 11])

    def initial(self) -> TableData:
        n = self.sizes.obs_rows
        keys = self._rng.permutation(np.arange(n) % self.sizes.obs_keys)
        return TableData(
            "obs", OBS_COLUMNS,
            {"k": keys.astype(np.int64), "v": _magnitudes(self._rng, n)},
        )

    def insert_sql(self, cycle: int) -> str:
        n = self.sizes.batch_rows
        keys = self._rng.permutation(
            (cycle * n + np.arange(n)) % self.sizes.obs_keys
        )
        values = _magnitudes(self._rng, n)
        rows = ", ".join(
            f"({k}, {v!r})" for k, v in zip(keys.tolist(), values.tolist())
        )
        return f"INSERT INTO obs VALUES {rows}"

    def delete_sql(self, cycle: int) -> str | None:
        if cycle % DELETE_EVERY != DELETE_EVERY - 1:
            return None
        return f"DELETE FROM obs WHERE k = {cycle % self.sizes.obs_keys}"


# -- result comparison ---------------------------------------------------------

def result_bits(result) -> list:
    """A result as comparable bits: raw bytes per numeric column,
    values per string column."""
    return [list(result.names)] + [
        arr.tolist() if arr.dtype == object else arr.tobytes()
        for arr in result.arrays
    ]


def close_to(result, expected, rel: float = 1e-9) -> bool:
    """IEEE-mode acceptance: same keys, floats within ``rel``."""
    if list(result.names) != list(expected.names):
        return False
    for got, want in zip(result.arrays, expected.arrays):
        if got.shape != want.shape:
            return False
        if got.dtype.kind == "f":
            if not np.all(np.abs(got - want) <= rel * np.abs(want)):
                return False
        elif got.tolist() != want.tolist():
            return False
    return True


class FsumCheck:
    """Reported repro sums against ``math.fsum`` of the same rows.

    ``ok`` holds while every sum is within the algorithm's own a-priori
    bound, ``n * 2**-(W*(L-1)) * max|v|`` at the default ``W=40, L=2``
    (paper Table I/II); ``worst_rel`` is the largest error seen relative
    to the sum of magnitudes — the number a user would call accuracy.
    """

    _UNIT = 2.0 ** -(DEFAULT_W["binary64"] * (DEFAULT_LEVELS - 1))

    def __init__(self):
        self.ok = True
        self.sums = 0
        self.worst_rel = 0.0

    def add(self, values: np.ndarray, reported: float) -> None:
        if len(values) == 0:
            self.ok = False
            return
        magnitudes = np.abs(values)
        error = abs(reported - math.fsum(values.tolist()))
        self.ok &= error <= len(values) * self._UNIT * float(magnitudes.max())
        self.worst_rel = max(
            self.worst_rel, error / math.fsum(magnitudes.tolist())
        )
        self.sums += 1

    def add_groups(self, keys, values, result_keys, result_sums) -> None:
        """Every group's reported sum against its own rows."""
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        uniques, starts = np.unique(keys, return_index=True)
        if uniques.tolist() != np.asarray(result_keys).tolist():
            self.ok = False
            return
        bounds = np.append(starts, len(keys))
        for g in range(len(uniques)):
            self.add(values[bounds[g]:bounds[g + 1]], float(result_sums[g]))


# -- workloads -----------------------------------------------------------------

class Workload:
    """One set of inputs plus the statement timed on them."""

    name = ""
    sql = ""
    #: True when the write cycles are the timed window itself
    mixed = False
    #: the table the statement groups, and its GROUP BY columns
    group_table = ""
    group_columns: tuple = ()

    def read_tables(self, seed: int, sizes: Sizes) -> list:
        """The tables the timed statement reads, besides ``obs``."""
        return []

    def fsum_check(self, scan, result) -> FsumCheck:
        """Accuracy oracle: the repro sums of ``result`` against
        ``math.fsum`` over ``scan`` (table name -> column arrays)."""
        raise NotImplementedError

    def aggregation_input(self, scan) -> tuple:
        """``(group keys, values)`` the statement's main SUM sees: the
        rows its WHERE keeps, before any group-id assignment."""
        raise NotImplementedError


class Q1LowCard(Workload):
    name = "q1_lowcard"
    sql = tpch.Q1_SQL
    group_table = "lineitem"
    group_columns = ("l_returnflag", "l_linestatus")

    def read_tables(self, seed, sizes):
        return [TableData(
            "lineitem", tpch.LINEITEM_COLUMNS,
            tpch.generate_lineitem_arrays(sizes.scale_factor, seed),
        )]

    def fsum_check(self, scan, result):
        check = FsumCheck()
        item = scan["lineitem"]
        shipped = item["l_shipdate"] <= _Q1_CUTOFF
        price, disc = item["l_extendedprice"], item["l_discount"]
        disc_price = price * (1 - disc)
        exprs = {
            "sum_qty": item["l_quantity"],
            "sum_base_price": price,
            "sum_disc_price": disc_price,
            "sum_charge": disc_price * (1 + item["l_tax"]),
        }
        flags = zip(result.column("l_returnflag"),
                    result.column("l_linestatus"))
        for row, (flag, status) in enumerate(flags):
            rows = (shipped & (item["l_returnflag"] == flag)
                    & (item["l_linestatus"] == status))
            for name, values in exprs.items():
                check.add(values[rows], float(result.column(name)[row]))
        return check

    def aggregation_input(self, scan):
        item = scan["lineitem"]
        keep = item["l_shipdate"] <= _Q1_CUTOFF
        keys = np.char.add(item["l_returnflag"].astype(str),
                           item["l_linestatus"].astype(str))
        return keys[keep], item["l_extendedprice"][keep]


class Q3JoinTopK(Workload):
    name = "q3_join_topk"
    sql = tpch.Q3_SQL
    group_table = "lineitem"
    group_columns = ("l_orderkey",)

    def read_tables(self, seed, sizes):
        sf = sizes.scale_factor
        return [
            TableData("customer", tpch.CUSTOMER_COLUMNS,
                      tpch.generate_customer_arrays(sf, seed)),
            TableData("orders", tpch.ORDERS_COLUMNS,
                      tpch.generate_orders_arrays(sf, seed)),
            TableData("lineitem", tpch.LINEITEM_COLUMNS,
                      tpch.generate_lineitem_arrays(sf, seed)),
        ]

    def fsum_check(self, scan, result):
        check = FsumCheck()
        item = scan["lineitem"]
        late = item["l_shipdate"] > _Q3_CUTOFF
        revenue = item["l_extendedprice"] * (1 - item["l_discount"])
        for key, reported in zip(result.column("l_orderkey").tolist(),
                                 result.column("revenue").tolist()):
            check.add(revenue[late & (item["l_orderkey"] == key)], reported)
        return check

    def aggregation_input(self, scan):
        item = scan["lineitem"]
        keep = item["l_shipdate"] > _Q3_CUTOFF
        revenue = item["l_extendedprice"] * (1 - item["l_discount"])
        return item["l_orderkey"][keep], revenue[keep]


class GroupByHighCard(Workload):
    name = "groupby_highcard"
    sql = PAIRS_SQL
    group_table = "pairs"
    group_columns = ("k",)

    def read_tables(self, seed, sizes):
        keys, values = make_pairs(
            sizes.pairs_rows, sizes.pairs_groups, "Exp(1)", np.float64, seed
        )
        return [TableData(
            "pairs", OBS_COLUMNS, {"k": keys.astype(np.int64), "v": values},
        )]

    def fsum_check(self, scan, result):
        check = FsumCheck()
        pairs = scan["pairs"]
        check.add_groups(
            pairs["k"], pairs["v"], result.column("k"), result.column("s")
        )
        return check

    def aggregation_input(self, scan):
        return scan["pairs"]["k"], scan["pairs"]["v"]


class DurableMixed(Workload):
    name = "durable_mixed"
    sql = FILTERED_SQL
    mixed = True
    group_table = "obs"
    group_columns = ("k",)

    def fsum_check(self, scan, result):
        check = FsumCheck()
        obs = scan["obs"]
        positive = obs["v"] > 0
        check.add_groups(
            obs["k"][positive], obs["v"][positive],
            result.column("k"), result.column("s"),
        )
        return check

    def aggregation_input(self, scan):
        keep = scan["obs"]["v"] > 0
        return scan["obs"]["k"][keep], scan["obs"]["v"][keep]


BY_NAME = {
    workload.name: workload
    for workload in (Q1LowCard(), Q3JoinTopK(), GroupByHighCard(),
                     DurableMixed())
}


# -- the in-memory mirror ------------------------------------------------------

class Mirror:
    """The oracle: an in-memory database over a *row-permuted copy* of
    the inputs, run with knobs unlike the served ones.  Repro-mode bits
    may depend on neither, so whatever this session answers is what the
    server must answer, byte for byte.  DML is applied here too (outside
    any timed span) so the oracle follows the served database."""

    def __init__(self, tables, seed: int):
        rng = np.random.default_rng([seed, 13])
        self.db = repro.open()
        load_tables(self.db, [data.permuted(rng) for data in tables])
        self.session = self.db.session(sum_mode="repro", **ORACLE_KNOBS)

    def execute(self, sql: str):
        return self.session.execute(sql)

    def scan(self) -> dict:
        return {
            name: self.db.table(name).scan() for name in self.db.catalog.names()
        }

    def live_rows(self, name: str) -> int:
        return len(self.db.table(name))

    def close(self) -> None:
        self.db.close()
