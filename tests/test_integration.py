"""Cross-layer integration tests: the paper's claims, end to end.

Each test exercises several packages together the way a downstream
user would, pinning the properties the paper promises:

1. any execution strategy -> same bits (the reproducibility claim);
2. the engine, the aggregation library, and the raw kernels agree;
3. the tuning rules (Equation 4 / Figure 9 thresholds) are consistent
   between the tuner, the facade, and the cost model.
"""

import math
import struct

import numpy as np
import pytest

import repro
from repro.aggregation import (
    BufferedReproSpec,
    ReproSpec,
    hash_aggregate,
    partition_and_aggregate,
    shared_aggregate,
    sort_aggregate,
)
from repro.engine import Database
from repro.tpch import load_lineitem, run_q1, shuffled_copy
from paper.workloads import AggregationWorkload


@pytest.fixture(scope="module")
def workload():
    return AggregationWorkload(30_000, 200, "Exp(1)", seed=11)


class TestEveryExecutionStrategySameBits:
    def test_matrix_of_strategies(self, workload):
        keys, values = workload.keys, workload.values
        spec2 = ReproSpec("double", 2)
        candidates = [
            hash_aggregate(keys, values, spec2),
            hash_aggregate(keys, values, spec2, engine="hash"),
            hash_aggregate(keys, values, spec2, hashing="multiplicative"),
            partition_and_aggregate(keys, values, spec2, depth=0, threads=6),
            partition_and_aggregate(keys, values, spec2, depth=1, fanout=16),
            partition_and_aggregate(keys, values, spec2, depth=2, fanout=16,
                                    threads=3),
            sort_aggregate(keys, values, spec2),
            shared_aggregate(keys, values, spec2, threads=5, seed=99),
            hash_aggregate(keys, values, BufferedReproSpec("double", 2, 7)),
            hash_aggregate(keys, values, BufferedReproSpec("double", 2, 333)),
        ]
        reference = candidates[0].sorted_by_key()
        for i, other in enumerate(candidates[1:], 1):
            assert reference.bit_equal(other.sorted_by_key()), f"strategy {i}"

    def test_permutations_and_strategies_jointly(self, workload, rng):
        reference = repro.group_sum(workload.keys, workload.values)
        for seed in range(3):
            pk, pv = workload.permutation(seed)
            method = ("hash", "partition", "shared")[seed % 3]
            result = repro.group_sum(pk, pv, method=method, fanout=16)
            assert reference.bit_equal(result)

    def test_scalar_sum_equals_group_of_one(self, workload):
        total = repro.reproducible_sum(workload.values)
        grouped = repro.group_sum(
            np.zeros(len(workload.values), dtype=np.uint32), workload.values
        )
        assert repro.same_bits(total, grouped.sums[0])


class TestEngineMatchesLibrary:
    def test_sql_sum_equals_group_sum(self, workload):
        db = Database(sum_mode="repro")
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        db.table("t").bulk_load(
            {"k": workload.keys.astype(np.int64), "v": workload.values}
        )
        res = db.execute("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k")
        lib = repro.group_sum(workload.keys, workload.values)
        sql_sums = res.arrays[1]
        assert np.array_equal(
            sql_sums.view(np.uint64), lib.sums.view(np.uint64)
        )

    def test_rsum_sql_equals_reproducible_sum(self, workload):
        db = Database(sum_mode="ieee")
        db.execute("CREATE TABLE t (v DOUBLE)")
        db.table("t").bulk_load({"v": workload.values})
        sql_value = db.execute("SELECT RSUM(v, 2) FROM t").scalar()
        assert repro.same_bits(
            sql_value, repro.reproducible_sum(workload.values, levels=2)
        )

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
    def test_facade_uses_equation4(self, workload):
        """group_sum with default buffering must agree bitwise with an
        explicit Equation-4 buffer size (sanity of the plumbing)."""
        from repro.core import optimal_buffer_size

        bsz = optimal_buffer_size(200, 8)
        auto = repro.group_sum(workload.keys, workload.values)
        explicit = repro.group_sum(
            workload.keys, workload.values, buffer_size=bsz
        )
        assert auto.bit_equal(explicit)

    def test_model_agrees_with_figure9_rule(self):
        """The offline rule and the cost model pick similar depths."""
        from repro.core import choose_partition_depth
        from paper.simulator import CostModel, dtype_model

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
