"""Tests for the TPC-H substrate (dbgen + queries)."""

import datetime
import struct

import numpy as np
import pytest

from repro.engine import Database
from repro.tpch import (
    Q1_SQL,
    Q6_SQL,
    generate_lineitem_arrays,
    lineitem_table,
    load_lineitem,
    q1_reference,
    run_q1,
    run_q6,
    shuffled_copy,
)


@pytest.fixture(scope="module")
def db():
    database = Database(sum_mode="repro")
    load_lineitem(database, scale_factor=0.002)
    return database


class TestDbgen:
    def test_row_count_scales(self):
        arrays = generate_lineitem_arrays(scale_factor=0.001)
        assert len(arrays["l_quantity"]) == 6000

    def test_determinism(self):
        a = generate_lineitem_arrays(0.0005, seed=7)
        b = generate_lineitem_arrays(0.0005, seed=7)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_seed_changes_data(self):
        a = generate_lineitem_arrays(0.0005, seed=1)
        b = generate_lineitem_arrays(0.0005, seed=2)
        assert not np.array_equal(a["l_extendedprice"], b["l_extendedprice"])

    def test_spec_distributions(self):
        arrays = generate_lineitem_arrays(0.002)
        qty = arrays["l_quantity"]
        assert qty.min() >= 1 and qty.max() <= 50
        disc = arrays["l_discount"]
        assert disc.min() >= 0.0 and disc.max() <= 0.10
        tax = arrays["l_tax"]
        assert tax.min() >= 0.0 and tax.max() <= 0.08
        assert set(np.unique(arrays["l_returnflag"])) <= {"A", "N", "R"}
        assert set(np.unique(arrays["l_linestatus"])) <= {"F", "O"}

    def test_flag_consistency_with_dates(self):
        arrays = generate_lineitem_arrays(0.002)
        cutoff = datetime.date(1995, 6, 17).toordinal()
        n_flags = arrays["l_returnflag"] == "N"
        assert np.all(arrays["l_receiptdate"][n_flags] > cutoff)
        f_status = arrays["l_linestatus"] == "F"
        assert np.all(arrays["l_shipdate"][f_status] <= cutoff)

    def test_extendedprice_positive(self):
        arrays = generate_lineitem_arrays(0.001)
        assert arrays["l_extendedprice"].min() > 0

    def test_lineitem_table_loads(self):
        table = lineitem_table(0.0005)
        assert len(table) == 3000

    def test_shuffled_copy_same_content(self, db):
        shuffled = shuffled_copy(db, seed=5)
        original = db.table("lineitem")
        assert len(shuffled) == len(original)
        assert np.isclose(
            shuffled.column_array("l_extendedprice").sum(),
            original.column_array("l_extendedprice").sum(),
        )
        assert not np.array_equal(
            shuffled.column_array("l_orderkey"),
            original.column_array("l_orderkey"),
        )


class TestQ1:
    def test_group_keys(self, db):
        res = run_q1(db)
        keys = [(r[0], r[1]) for r in res.rows()]
        assert keys == sorted(keys)
        assert all(flag in ("A", "N", "R") for flag, _ in keys)

    def test_matches_fsum_oracle(self, db):
        res = run_q1(db)
        reference = q1_reference(db)
        for row in res.rows():
            ref = reference[(row[0], row[1])]
            assert row[2] == pytest.approx(ref["sum_qty"], abs=1e-6)
            assert row[3] == pytest.approx(ref["sum_base_price"], rel=1e-12)
            assert row[4] == pytest.approx(ref["sum_disc_price"], rel=1e-12)
            assert row[5] == pytest.approx(ref["sum_charge"], rel=1e-12)
            assert row[6] == pytest.approx(ref["avg_qty"], rel=1e-12)
            assert row[9] == ref["count_order"]

    def test_where_clause_filters(self, db):
        res = run_q1(db)
        total = sum(r[9] for r in res.rows())
        assert total < len(db.table("lineitem"))

    def test_repro_q1_bit_stable_across_shuffles(self, db):
        def bits(result):
            return [
                tuple(struct.pack("<d", x) for x in row[2:9])
                for row in result.rows()
            ]

        reference = bits(run_q1(db))
        for seed in (11, 22):
            shuffled_db = Database(sum_mode="repro")
            shuffled_db.catalog.add(shuffled_copy(db, seed=seed))
            assert bits(run_q1(shuffled_db)) == reference

    def test_ieee_q1_not_bit_stable(self, db):
        def bits(result):
            return [
                tuple(struct.pack("<d", x) for x in row[2:9])
                for row in result.rows()
            ]

        ieee_db = Database(sum_mode="ieee")
        ieee_db.catalog.add(db.table("lineitem"))
        reference = bits(run_q1(ieee_db))
        diffs = 0
        for seed in (11, 22, 33):
            shuffled_db = Database(sum_mode="ieee")
            shuffled_db.catalog.add(shuffled_copy(db, seed=seed))
            if bits(run_q1(shuffled_db)) != reference:
                diffs += 1
        assert diffs > 0

    def test_timings_recorded(self, db):
        run_q1(db)
        seconds = db.last_pipeline_stats.seconds
        assert "aggregation" in seconds
        assert sum(seconds.values()) > 0


class TestQ6:
    def test_q6_runs_and_filters(self, db):
        revenue = run_q6(db).scalar()
        assert revenue > 0

    def test_q6_matches_manual(self, db):
        table = db.table("lineitem")
        data = table.scan()
        lo = datetime.date(1994, 1, 1).toordinal()
        hi = datetime.date(1995, 1, 1).toordinal()
        mask = (
            (data["l_shipdate"] >= lo)
            & (data["l_shipdate"] < hi)
            & (data["l_discount"] >= 0.05)
            & (data["l_discount"] <= 0.07)
            & (data["l_quantity"] < 24)
        )
        import math

        expected = math.fsum(
            (data["l_extendedprice"][mask] * data["l_discount"][mask]).tolist()
        )
        assert run_q6(db).scalar() == pytest.approx(expected, rel=1e-12)
