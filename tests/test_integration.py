"""Cross-layer integration tests: the paper's claims, end to end.

Each test exercises several packages together the way a downstream
user would, pinning the properties the paper promises:

1. any execution strategy -> same bits (the reproducibility claim);
2. the engine, the aggregation library, and the raw kernels agree;
3. the Figure 9 tuning rule is consistent with the cost model.
"""

import math
import struct

import numpy as np
import pytest

import repro
from repro.aggregation import GroupByResult
from repro.engine import Database
from repro.tpch import load_lineitem, run_q1, shuffled_copy
from paper.workloads import AggregationWorkload


def _sql_group_sum(keys, values, mode, **knobs):
    """``SELECT k, SUM(v) ... GROUP BY k`` over the two arrays, as a
    :class:`GroupByResult` (groups in SQL's order)."""
    db = Database(sum_mode=mode, **knobs)
    key_type = "DOUBLE" if keys.dtype.kind == "f" else "INT"
    value_type = "FLOAT" if values.dtype == np.float32 else "DOUBLE"
    db.execute(f"CREATE TABLE t (k {key_type}, v {value_type})")
    db.table("t").bulk_load({"k": keys, "v": values})
    res = db.execute("SELECT k, SUM(v) FROM t GROUP BY k")
    return GroupByResult(res.arrays[0], res.arrays[1])


@pytest.fixture(scope="module")
def workload():
    return AggregationWorkload(30_000, 200, "Exp(1)", seed=11)


class TestEveryExecutionStrategySameBits:
    def test_permutations_and_strategies_jointly(self, workload, rng):
        """Library, SQL at two morsel sizes and two levels: the bits of
        each setting survive every permutation of the input."""
        for levels in (2, 3):
            reference = repro.group_sum(workload.keys, workload.values,
                                        levels=levels)
            for seed in range(3):
                pk, pv = workload.permutation(seed)
                assert reference.bit_equal(
                    repro.group_sum(pk, pv, levels=levels))
                assert _sql_group_sum(pk, pv, "repro", levels=levels,
                                      morsel_size=(1024, 65536)[seed % 2]
                                      ).bit_equal(reference)

    def test_scalar_sum_equals_group_of_one(self, workload):
        total = repro.reproducible_sum(workload.values)
        grouped = repro.group_sum(
            np.zeros(len(workload.values), dtype=np.uint32), workload.values
        )
        assert repro.same_bits(total, grouped.sums[0])


class TestEngineMatchesLibrary:
    def test_sql_sum_equals_group_sum(self, workload, rng):
        """Both modes, INT / DOUBLE keys (NaN, +-0.0, +-inf among them)
        and DOUBLE / FLOAT values, several morsels: key and sum bits
        equal SQL's at ``workers=1``."""
        special = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5, -2.0])
        float_keys = rng.choice(special, size=5_000)
        float_keys[::97] = -np.nan
        cases = [
            (workload.keys.astype(np.int64), workload.values, "double"),
            (float_keys, rng.exponential(size=5_000) - 0.5, "double"),
            (workload.keys.astype(np.int64),
             workload.values.astype(np.float32), "float"),
        ]
        for mode in ("repro", "ieee"):
            for keys, values, dtype in cases:
                lib = repro.group_sum(keys, values, mode == "repro", dtype)
                sql = _sql_group_sum(keys, values, mode, morsel_size=4096)
                assert sql.sums.dtype == lib.sums.dtype, (mode, dtype)
                sql_keys = sql.keys.astype(lib.keys.dtype)  # INT is int32
                assert sql_keys.tobytes() == lib.keys.tobytes(), (mode, dtype)
                assert sql.sums.tobytes() == lib.sums.tobytes(), (mode, dtype)

    def test_rsum_sql_equals_reproducible_sum(self, workload):
        """DOUBLE and FLOAT columns, levels 2-4 as the session's
        ``levels`` and as ``RSUM(v, L)``, values holding NaN, +-inf,
        subnormals and -0.0: SQL's bits equal the library sum's, and a
        summer fed two halves and merged."""
        base = workload.values[:5_000]
        tiny = np.array([5e-324, 1e-310, -2.5e-320, 1e-40, -1e-42, -0.0])
        cases = {
            "plain": base,
            "subnormal": np.concatenate([base * 1e-300, tiny]),
            "negzero": np.array([-0.0, -0.0]),
            "posinf": np.concatenate([base, tiny, [np.inf]]),
            "neginf": np.concatenate([[-np.inf], base]),
            "nan": np.concatenate([base, [np.nan], tiny]),
            "infs": np.array([np.inf, 1.0, -np.inf]),
        }
        for column, dtype in (("DOUBLE", "double"), ("FLOAT", "float")):
            for name, values in cases.items():
                values = values.astype(np.float64 if dtype == "double"
                                       else np.float32)
                for levels in (2, 3, 4):
                    library = repro.reproducible_sum(values, dtype, levels)
                    left = repro.ReproducibleSummer(dtype, levels)
                    right = repro.ReproducibleSummer(dtype, levels)
                    left.add_array(values[: values.size // 2])
                    right.add_array(values[values.size // 2:])
                    left.merge(right)
                    results = [left.result()]
                    for mode, sql in (
                        ("repro", "SELECT SUM(v) FROM t"),
                        ("ieee", f"SELECT RSUM(v, {levels}) FROM t"),
                    ):
                        db = Database(sum_mode=mode, levels=levels,
                                      morsel_size=1024)
                        db.execute(f"CREATE TABLE t (v {column})")
                        db.table("t").bulk_load({"v": values})
                        results.append(db.execute(sql).arrays[0])
                    for got in results:
                        got = np.asarray(got).reshape(-1)
                        assert got.dtype == library.dtype, (name, dtype)
                        assert got.tobytes() == library.tobytes(), (
                            name, dtype, levels)

    def test_tpch_q1_stable_under_everything(self):
        db = Database(sum_mode="repro")
        load_lineitem(db, scale_factor=0.001)

        def bits(res):
            return [
                tuple(struct.pack("<d", x) for x in row[2:9])
                for row in res.rows()
            ]

        reference = bits(run_q1(db))
        shuffled = Database(sum_mode="repro")
        shuffled.catalog.add(shuffled_copy(db, seed=3))
        assert bits(run_q1(shuffled)) == reference


class TestTuningConsistency:
    def test_model_agrees_with_figure9_rule(self):
        """The offline rule and the cost model pick similar depths."""
        from paper.simulator import CostModel, dtype_model
        from paper.tuning import choose_partition_depth

        model = CostModel()
        dt = dtype_model("repro<float,2>").buffered()
        for exp in (4, 8, 14, 20, 24):
            rule = choose_partition_depth(2**exp)
            modelled = model.best_depth(dt, 2**exp)
            assert abs(rule - modelled) <= 1, exp

    def test_accuracy_claim_end_to_end(self, workload):
        """L=2 repro aggregation is at least as accurate as IEEE."""
        result = repro.group_sum(workload.keys, workload.values, levels=2)
        conventional = repro.group_sum(
            workload.keys, workload.values, reproducible=False
        )
        worst_repro = 0.0
        worst_conv = 0.0
        for key in result.keys:
            exact = math.fsum(workload.values[workload.keys == key])
            worst_repro = max(
                worst_repro, abs(result.as_dict()[int(key)] - exact)
            )
            worst_conv = max(
                worst_conv, abs(conventional.as_dict()[int(key)] - exact)
            )
        assert worst_repro <= worst_conv + 1e-12
