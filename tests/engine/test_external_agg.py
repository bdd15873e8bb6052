"""Out-of-core aggregation: bits invariant under the memory budget.

The paper's buffered, partition-based aggregation is designed so
reproducible sums survive any partitioning of the input; these tests
assert the engine-level consequence: for the repro sum modes, result
bits are identical across ``memory_budget_bytes`` (unbounded,
spill-forcing, pathological), spill partition fan-out, merge fan-in
(number of merge passes), and worker count — memory is a pure
performance knob.
"""

import numpy as np
import pytest

from repro.aggregation.external_agg import (
    partition_ids_for_batch,
    stable_key_hash,
)
from repro.engine import Database, parse_expression
from repro.engine.operators import Batch
from repro.engine.types import DOUBLE

QUERY = (
    "SELECT k, s, SUM(v) AS sv, RSUM(v, 3) AS rv, AVG(v) AS av, "
    "COUNT(*) AS c, COUNT(DISTINCT v) AS dv, MIN(v) AS lo, MAX(v) AS hi, "
    "STDDEV(v) AS sd FROM obs GROUP BY k, s ORDER BY k, s"
)


def _build(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE obs (k INT, s VARCHAR(1), v DOUBLE)")
    rng = np.random.default_rng(20180418)
    n = 1500
    keys = rng.integers(0, 31, size=n)
    labels = np.array(["x", "y", "z"], dtype=object)[rng.integers(0, 3, n)]
    values = rng.choice([-1.0, 1.0], size=n) * np.exp2(
        rng.uniform(-30, 30, size=n)
    )
    values[::101] = 0.0
    values[1::103] = -0.0
    values[2::107] = np.nan
    values[3::109] = np.inf
    db.table("obs").bulk_load(
        {"k": keys.tolist(), "s": labels.tolist(), "v": values.tolist()}
    )
    return db


def _bits(result):
    pieces = []
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype == object:
            pieces.append("|".join(map(repr, arr.tolist())).encode())
        else:
            pieces.append(arr.tobytes())
    return tuple(pieces)


# ---------------------------------------------------------------------------
# Bit invariance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["repro", "sorted"])
def test_bits_invariant_under_budget_and_fanout(mode):
    reference = _bits(_build(sum_mode=mode).execute(QUERY))
    for budget in (2048, 1):
        for partitions in (1, 5):
            for fanin in (0, 2):
                db = _build(
                    sum_mode=mode, workers=3, morsel_size=193,
                    memory_budget=budget, spill_partitions=partitions,
                    spill_merge_fanin=fanin,
                )
                assert _bits(db.execute(QUERY)) == reference, (
                    mode, budget, partitions, fanin,
                )
                stats = db.last_pipeline_stats
                assert stats.external
                assert stats.spilled_runs > 0


def test_pathological_budget_takes_multiple_merge_passes():
    db = _build(
        sum_mode="repro", morsel_size=97, memory_budget=1,
        spill_partitions=2, spill_merge_fanin=2,
    )
    reference = _bits(_build(sum_mode="repro").execute(QUERY))
    assert _bits(db.execute(QUERY)) == reference
    stats = db.last_pipeline_stats
    assert stats.merge_passes > 0
    assert stats.spilled_bytes > 0


def test_promotion_keeps_no_spill_runs_in_memory():
    """External chosen by the planner, but the data fits: the
    aggregator must never touch disk (the promotion fast path)."""
    # Budget below the planner's pessimistic estimate (~900 KB for
    # 1500 rows) but above the actual ~150 KB resident state.
    db = _build(sum_mode="repro", memory_budget=1 << 18)
    reference = _bits(_build(sum_mode="repro").execute(QUERY))
    assert _bits(db.execute(QUERY)) == reference
    stats = db.last_pipeline_stats
    assert stats.external
    assert stats.spilled_runs == 0


@pytest.mark.parametrize("workers", (1, 2))
def test_spilled_query_reports_its_ladder_path(workers):
    """Ladder rows are counted where they are fed, so a spilled query
    reports as many as the in-memory one — the counters used to die
    with every spilled partition's table (0 / 0 / None under a budget,
    and an empty ``last_timings.counters``)."""
    query = "SELECT k, SUM(v) FROM t GROUP BY k"
    totals = {}
    for budget in (None, 4096):
        db = Database(sum_mode="repro", memory_budget=budget,
                      workers=workers, morsel_size=512)
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        rng = np.random.default_rng(7)
        db.table("t").bulk_load({"k": rng.integers(0, 400, 4000),
                                 "v": rng.normal(size=4000)})
        db.execute(query)
        stats = db.last_pipeline_stats
        assert stats.external is (budget is not None)
        assert (stats.spilled_runs > 0) is (budget is not None)
        totals[budget] = stats.ladder_rows_scatter + stats.ladder_rows_sorted
        counters = db.last_timings.counters
        assert counters["ladder_rows_scatter"] == stats.ladder_rows_scatter
        assert counters["ladder_rows_sorted"] == stats.ladder_rows_sorted
        if stats.ladder_rows_sorted:
            assert stats.ladder_first_decline is not None
    assert totals[None] == totals[4096] == 4000


def test_ieee_mode_external_executes():
    """IEEE mode may drift under the budget (the paper's point), but
    the external operator must still run it and count correctly."""
    db = _build(sum_mode="ieee", memory_budget=1, morsel_size=257)
    result = db.execute(QUERY)
    reference = _build(sum_mode="ieee").execute(QUERY)
    assert db.last_pipeline_stats.external
    assert result.column("c").tolist() == reference.column("c").tolist()
    assert result.column("dv").tolist() == reference.column("dv").tolist()


def test_global_aggregate_never_external():
    db = _build(sum_mode="repro", memory_budget=1)
    result = db.execute("SELECT SUM(v) AS s, COUNT(*) AS c FROM obs")
    assert not db.last_pipeline_stats.external
    assert result.column("c")[0] == 1500


# ---------------------------------------------------------------------------
# Planner / EXPLAIN / session surface
# ---------------------------------------------------------------------------


def test_explain_renders_external_choice():
    db = _build(sum_mode="repro", memory_budget=4096, spill_partitions=3)
    plan = db.explain(QUERY)
    assert "external(partitions=3, budget=4096B" in plan
    db.execute("SET memory_budget_bytes = unbounded")
    assert "external(" not in db.explain(QUERY)


def test_set_pragma_round_trip():
    db = _build(sum_mode="repro")
    assert db.memory_budget is None
    db.execute("SET memory_budget_bytes = 8192")
    assert db.memory_budget == 8192
    db.execute("SET memory_budget = 0")
    assert db.memory_budget is None
    db.execute("SET spill_partitions = 6")
    assert db.execution_context.spill_partitions == 6
    db.execute("SET spill_merge_fanin = 4")
    assert db.execution_context.spill_merge_fanin == 4
    db.execute("SET workers = 2")
    assert db.execution_context.workers == 2
    db.execute("SET join_build = left")
    assert db.execution_context.join_build == "left"


def test_set_pragma_validation():
    db = _build(sum_mode="repro")
    with pytest.raises(ValueError):
        db.execute("SET memory_budget_bytes = -1")
    with pytest.raises(ValueError):
        db.execute("SET spill_partitions = 0")
    with pytest.raises(ValueError):
        db.execute("SET spill_merge_fanin = 1")
    with pytest.raises(ValueError):
        db.execute("SET no_such_knob = 3")


def test_memory_budget_property_setter():
    db = Database(sum_mode="repro")
    db.memory_budget = 4096
    assert db.memory_budget == 4096
    db.memory_budget = None
    assert db.memory_budget is None
    with pytest.raises(ValueError):
        Database(memory_budget=-5)


def test_set_workers_resets_pool():
    db = _build(sum_mode="repro", workers=2, morsel_size=193)
    db.execute(QUERY)  # spins up the 2-worker pool
    db.execute("SET workers = 4")
    db.execute(QUERY)
    assert db.last_pipeline_stats.workers > 2


# ---------------------------------------------------------------------------
# Partition routing
# ---------------------------------------------------------------------------


def test_stable_key_hash_canonical_floats():
    payload_nan = np.uint64(0x7FF8000000000001).view(np.float64)
    assert stable_key_hash((float("nan"),)) == stable_key_hash(
        (float(payload_nan),)
    )
    assert stable_key_hash((-0.0,)) == stable_key_hash((0.0,))
    assert stable_key_hash((1.0, "a")) != stable_key_hash((1.0, "b"))


def test_partition_ids_group_rows_together():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 50, size=4000).astype(np.float64)
    keys[::17] = np.nan
    keys[1::19] = -0.0
    batch = Batch({"k": keys}, {"k": DOUBLE})
    group_exprs = (parse_expression("k"),)
    pids = partition_ids_for_batch(batch, group_exprs, 7)
    assert pids.shape == (4000,)
    assert pids.min() >= 0 and pids.max() < 7
    # Every row of a group lands in one partition: NaNs together,
    # -0.0 with 0.0.
    assert len(set(pids[np.isnan(keys)].tolist())) == 1
    zero = pids[keys == 0.0]
    assert len(set(zero.tolist())) <= 1
    # Same batch, same routing (process-deterministic).
    again = partition_ids_for_batch(batch, group_exprs, 7)
    assert np.array_equal(pids, again)


def test_partition_ids_single_partition_short_circuit():
    batch = Batch({"k": np.arange(5.0)}, {"k": DOUBLE})
    pids = partition_ids_for_batch(batch, (parse_expression("k"),), 1)
    assert not pids.any()
