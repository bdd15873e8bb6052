"""Tests for the multi-table TPC-H substrate (Q3/Q5 joins)."""

import itertools

import numpy as np
import pytest

from repro.engine import Database
from repro.tpch import (
    Q3_SQL,
    Q5_SQL,
    generate_customer_arrays,
    generate_orders_arrays,
    generate_supplier_arrays,
    load_tpch,
    nation_arrays,
    q3_reference,
    q5_reference,
    region_arrays,
    run_q3,
    run_q5,
)

SCALE = 0.002


def _bits(result):
    return tuple(
        np.asarray(arr).tobytes()
        if np.asarray(arr).dtype.kind != "O"
        else repr(np.asarray(arr).tolist()).encode()
        for arr in result.arrays
    )


@pytest.fixture(scope="module")
def db():
    database = Database(sum_mode="repro")
    load_tpch(database, scale_factor=SCALE)
    return database


class TestDbgenTables:
    def test_row_counts_scale(self, db):
        assert len(db.table("orders")) == 3000
        assert len(db.table("customer")) == 300
        assert len(db.table("supplier")) == 20
        assert len(db.table("nation")) == 25
        assert len(db.table("region")) == 5

    def test_determinism(self):
        for generate in (
            generate_orders_arrays, generate_customer_arrays,
            generate_supplier_arrays,
        ):
            a = generate(0.001, seed=7)
            b = generate(0.001, seed=7)
            for name in a:
                assert np.array_equal(a[name], b[name]), name

    def test_foreign_keys_consistent(self, db):
        lineitem = db.table("lineitem").scan()
        orders = db.table("orders").scan()
        customer = db.table("customer").scan()
        # Every l_orderkey has an order; every o_custkey has a customer.
        assert set(np.unique(lineitem["l_orderkey"])) <= set(
            orders["o_orderkey"].tolist()
        )
        assert set(np.unique(orders["o_custkey"])) <= set(
            customer["c_custkey"].tolist()
        )
        assert set(np.unique(lineitem["l_suppkey"])) <= set(
            db.table("supplier").scan()["s_suppkey"].tolist()
        )

    def test_nation_region_mapping(self):
        nations = nation_arrays()
        regions = region_arrays()
        assert len(nations["n_nationkey"]) == 25
        assert set(nations["n_regionkey"].tolist()) <= set(
            regions["r_regionkey"].tolist()
        )
        assert "CHINA" in nations["n_name"].tolist()
        assert "ASIA" in regions["r_name"].tolist()


class TestQ3:
    def test_matches_fsum_oracle(self, db):
        result = run_q3(db)
        reference = q3_reference(db)
        assert len(result) == min(10, len(reference))
        for orderkey, revenue, orderdate, priority in result.rows():
            key = (orderkey, orderdate.toordinal(), priority)
            assert revenue == pytest.approx(reference[key], rel=1e-12)

    def test_ordering_and_limit(self, db):
        revenues = run_q3(db).column("revenue")
        assert len(revenues) == 10
        assert list(revenues) == sorted(revenues, reverse=True)

    def test_repro_bits_stable_across_execution_knobs(self, db, build_side):
        reference = _bits(run_q3(db))
        for workers in (1, 2):
            with Database(sum_mode="repro", workers=workers) as other:
                for name in ("lineitem", "orders", "customer", "supplier",
                             "nation", "region"):
                    other.catalog.add(db.table(name))
                for morsel, build in itertools.product(
                    (64, 4096), ("left", "right")
                ):
                    other.execute(f"SET morsel_size = {morsel}")
                    with build_side(build):
                        assert _bits(run_q3(other)) == reference, (
                            workers, morsel, build
                        )

    def test_bits_equal_built_on_either_side(self, db, build_side):
        """Built on its left inputs Q3 takes group ids from the orders
        build row; built on its right inputs (lineitem, then orders)
        it registers the generic keys.  Same repro bits."""
        plans, bits = {}, {}
        for build in ("left", "right"):
            with build_side(build):
                plans[build] = db.explain(Q3_SQL)
                bits[build] = _bits(run_q3(db))
        for build, plan in plans.items():
            probes = [line for line in plan.splitlines()
                      if "HashJoinProbe(" in line]
            assert len(probes) == 2
            assert all(f"build={build}," in line for line in probes), plan
        assert "group_ids=build_row(" in plans["left"]
        assert "group_ids=" not in plans["right"]
        assert bits["left"] == bits["right"], (
            "repro Q3 bits differ between join build sides"
        )

    def test_explain_shows_planner_decisions(self, db, engine_path):
        text = db.explain(Q3_SQL)
        assert "HashJoinProbe" in text
        assert "build=" in text
        assert "filter=" in text  # predicate pushed into the scans
        assert "columns=[" in text  # projection pushdown at the scans
        # l_orderkey is an integer probe key, the two o_ columns sit on
        # the probe's build row: the build row decides the group.
        assert ("Aggregate[morsel_size=65536, "
                "group_ids=build_row(l_orderkey = o_orderkey)]") in text
        # ... and the row-order reference, which reads every key off the
        # batch and never sees a build row, returns the same bits.
        taken = run_q3(db)
        with engine_path("scalar"):
            reference = Database(sum_mode="repro")
            for name in ("lineitem", "orders", "customer"):
                reference.catalog.add(db.table(name))
            expected = run_q3(reference)
        assert [np.asarray(a).tobytes() for a in taken.arrays] == [
            np.asarray(a).tobytes() for a in expected.arrays]


class TestQ5:
    def test_matches_fsum_oracle(self, db):
        result = run_q5(db)
        reference = q5_reference(db)
        assert {name for name, _ in result.rows()} == set(reference)
        for name, revenue in result.rows():
            assert revenue == pytest.approx(reference[name], rel=1e-12)

    def test_six_table_plan_builds(self, db):
        text = db.explain(Q5_SQL)
        assert text.count("HashJoinProbe") == 5
        assert "Scan(region" in text
        # n_name rides the nation probe's build row; the region probe
        # after it only re-selects the hidden build-row column.
        assert "group_ids=build_row(s_nationkey = n_nationkey)" in text
        assert text.index("keys=[n_regionkey = r_regionkey]") < text.index(
            "keys=[s_nationkey = n_nationkey]")  # rendered top-down

    def test_ieee_join_aggregate_can_drift(self, db):
        """The motivating contrast: IEEE-mode join aggregation may
        change bits when the physical order changes; repro mode cannot
        (asserted above).  We only require *determinism per config*
        here — drift is possible, not guaranteed, at tiny scales."""
        ieee = Database(sum_mode="ieee")
        for name in ("lineitem", "orders", "customer", "supplier",
                     "nation", "region"):
            ieee.catalog.add(db.table(name))
        first = run_q5(ieee).rows()
        second = run_q5(ieee).rows()
        assert first == second
