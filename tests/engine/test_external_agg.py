"""Out-of-core aggregation: bits invariant under the memory budget.

The paper's buffered, partition-based aggregation is designed so
reproducible sums survive any partitioning of the input; these tests
assert the engine-level consequence: for repro mode, result
bits, dtypes and row order are identical across ``memory_budget``
(unbounded, spill-forcing, pathological) and the spill partition
fan-out (a module constant, patched here) — memory is a pure
performance knob — and that the finish really is per partition:
no table as large as the whole state is ever finalized, and
``peak_resident_bytes`` says so.
"""

import numpy as np
import pytest

from repro.aggregation import external_agg
from repro.aggregation.external_agg import partition_ids
from repro.engine import Database, parse_expression
from repro.engine.content_hash import row_hashes, value_hash
from repro.engine.operators import Batch
from repro.engine.types import DOUBLE
from repro.engine.vectorized import VectorizedGroupTable
from repro.errors import ConfigError, ReproError
from repro.tpch import Q1_SQL, load_lineitem

AGGREGATES = (
    "SUM(v) AS sv, RSUM(v, 3) AS rv, AVG(v) AS av, "
    "COUNT(*) AS c, COUNT(DISTINCT v) AS dv, MIN(v) AS lo, MAX(v) AS hi, "
    "STDDEV(v) AS sd"
)
QUERY = f"SELECT k, s, {AGGREGATES} FROM obs GROUP BY k, s ORDER BY k, s"


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
            pieces.append(arr.dtype.str.encode() + arr.tobytes())
    return tuple(pieces)


# ---------------------------------------------------------------------------
# Bit invariance
# ---------------------------------------------------------------------------


#: repro at the default ladder depth and one level deeper: a run file
#: carries every level of every state.
REPRO_CONFIGS = [
    pytest.param("repro", 2, id="repro"),
    pytest.param("repro", 3, id="repro-levels3"),
]


@pytest.mark.parametrize("mode, levels", REPRO_CONFIGS)
def test_bits_invariant_under_budget_and_fanout(mode, levels, monkeypatch):
    reference = _bits(_build(sum_mode=mode, levels=levels).execute(QUERY))
    for budget in (2048, 1):
        for partitions in (1, 5):
            monkeypatch.setattr(external_agg, "SPILL_PARTITIONS", partitions)
            db = _build(sum_mode=mode, levels=levels, morsel_size=193,
                        memory_budget=budget)
            assert _bits(db.execute(QUERY)) == reference, (
                mode, levels, budget, partitions,
            )
            stats = db.last_pipeline_stats
            assert stats.external
            assert stats.spilled_runs > 0


#: key shape -> (GROUP BY list, rows -> column data).  Every shape the
#: router has a lane for: plain ints, floats whose NaN payloads and
#: signed zeros must collapse exactly like the group table collapses
#: them, a dictionary-encoded string column with NULLs, a composite,
#: and a key that is an expression.
_PAYLOAD_NAN = np.uint64(0x7FF8000000000001).view(np.float64)
KEY_SHAPES = {
    "int": "k",
    "double": "d",
    "varchar": "s",
    "composite": "k, s",
    "expression": "k * 2 + 1",
}


def _shape_db(nrows, **kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE obs (k INT, d DOUBLE, s VARCHAR(2), v DOUBLE)")
    rng = np.random.default_rng(19)
    doubles = rng.integers(-6, 6, size=nrows).astype(np.float64)
    doubles[::7] = np.nan
    doubles[1::11] = _PAYLOAD_NAN
    doubles[2::5] = -0.0
    labels = np.array(["a", "bb", "c", None], dtype=object)
    values = rng.choice([-1.0, 1.0], size=nrows) * np.exp2(
        rng.uniform(-30, 30, size=nrows)
    )
    values[::101] = 0.0
    values[2::107] = np.nan
    values[3::109] = np.inf
    db.table("obs").bulk_load({
        "k": rng.integers(0, 90, size=nrows),
        "d": doubles,
        "s": labels[rng.integers(0, 4, size=nrows)].tolist(),
        "v": values,
    })
    return db


@pytest.mark.parametrize("mode, levels", REPRO_CONFIGS)
@pytest.mark.parametrize("shape", sorted(KEY_SHAPES))
def test_finish_per_partition_equals_in_memory(shape, mode, levels,
                                               monkeypatch):
    """Bits, dtypes and row order (no ORDER BY: the canonical order
    itself) equal the in-memory result on every leg, the empty table
    included."""
    keys = KEY_SHAPES[shape]
    query = (
        f"SELECT {keys}, {AGGREGATES}, SUM(k) AS sk FROM obs GROUP BY {keys}"
    )
    for nrows in (0, 320):
        reference = _bits(
            _shape_db(nrows, sum_mode=mode, levels=levels).execute(query)
        )
        for morsel_size in (97, 8192):
            db = _shape_db(nrows, sum_mode=mode, levels=levels,
                           morsel_size=morsel_size)
            for partitions in (1, 4, 5):
                monkeypatch.setattr(
                    external_agg, "SPILL_PARTITIONS", partitions
                )
                for budget in (None, 1 << 20, 4096, 1):
                    db.memory_budget = budget
                    leg = (nrows, morsel_size, partitions, budget)
                    assert _bits(db.execute(query)) == reference, leg
                    stats = db.last_pipeline_stats
                    if budget in (None, 1):
                        assert stats.external is (budget == 1), leg
                        assert (stats.spilled_runs > 0) is (
                            budget == 1 and nrows > 0
                        ), leg


def _probe_db(**kwargs):
    db = Database(sum_mode="repro", morsel_size=8192, **kwargs)
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    rng = np.random.default_rng(4)
    db.table("t").bulk_load({
        "k": rng.integers(0, 50_000, size=200_000),
        "v": rng.normal(size=200_000),
    })
    return db


def test_partitions_finalize_unordered_and_sort_once(monkeypatch):
    """Each spill partition finalizes in gid order and the finish sorts
    their concatenation once: a per-partition sort would be redone."""
    from repro.engine import pipeline

    expected = _bits(_build(sum_mode="repro").execute(QUERY))
    sorts, per_table = [], []
    real_sort = pipeline.canonical_key_order
    real_order = VectorizedGroupTable._canonical_order

    def sort(columns, distinct=False):
        sorts.append(distinct)
        return real_sort(columns, distinct)

    def order(table):
        per_table.append(table)
        return real_order(table)

    monkeypatch.setattr(pipeline, "canonical_key_order", sort)
    monkeypatch.setattr(VectorizedGroupTable, "_canonical_order", order)
    db = _build(sum_mode="repro", memory_budget=1)
    assert _bits(db.execute(QUERY)) == expected
    assert db.last_pipeline_stats.external
    assert sorts == [True] and per_table == []


def test_finish_never_holds_the_whole_state(monkeypatch):
    """200 000 rows into ~49 000 groups under a 1 MiB budget.  No table
    the size of the whole state is finalized, and
    ``peak_resident_bytes`` covers the finish — it used to be the
    scan-phase maximum while ``finalize`` ran on a table holding all of
    it."""
    finalized = []
    finalize = VectorizedGroupTable.finalize

    def spy(table, **kwargs):
        finalized.append(table.approx_bytes())
        return finalize(table, **kwargs)

    monkeypatch.setattr(VectorizedGroupTable, "finalize", spy)
    sinks = []
    sink_init = external_agg.ExternalGroupAggregator.__init__

    def remember(sink, *args, **kwargs):
        sink_init(sink, *args, **kwargs)
        sinks.append(sink)

    monkeypatch.setattr(
        external_agg.ExternalGroupAggregator, "__init__", remember
    )
    query = "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k"

    db = _probe_db()
    reference = _bits(db.execute(query))
    (whole,) = finalized
    assert db.last_pipeline_stats.peak_resident_bytes == whole

    finalized.clear()
    db = _probe_db(memory_budget=1 << 20)
    assert _bits(db.execute(query)) == reference
    stats = db.last_pipeline_stats
    assert stats.external and stats.spilled_runs > 0
    assert len(finalized) == external_agg.SPILL_PARTITIONS
    assert max(finalized) <= stats.peak_resident_bytes <= 0.5 * whole
    # ... and it covers the one sink's scan peak too
    (sink,) = sinks
    assert stats.peak_resident_bytes >= sink.peak_resident_bytes


def test_misrouted_key_raises_instead_of_returning_it_twice(monkeypatch):
    """Partitions are finalized separately, so a router that sends one
    key two ways would return that group twice; the final sort checks."""
    def by_position(batch, group_exprs, npartitions, dictionaries=None):
        return np.arange(batch.nrows, dtype=np.int64) % npartitions

    monkeypatch.setattr(external_agg, "partition_ids", by_position)
    db = _build(sum_mode="repro", memory_budget=4096, morsel_size=193)
    with pytest.raises(ReproError, match="more than one spill partition"):
        db.execute(QUERY)


def test_promotion_keeps_no_spill_runs_in_memory():
    """External chosen by the planner, but the data fits: the
    aggregator must never touch disk."""
    # Budget below the planner's pessimistic estimate (~900 KB for
    # 1500 rows: ``k`` is an INT, so only the rows bound the groups)
    # but above the actual ~150 KB resident state.
    db = _build(sum_mode="repro", memory_budget=1 << 18)
    reference = _bits(_build(sum_mode="repro").execute(QUERY))
    assert _bits(db.execute(QUERY)) == reference
    stats = db.last_pipeline_stats
    assert stats.external
    assert stats.spilled_runs == 0
    assert stats.spilled_bytes == 0


@pytest.mark.parametrize("workers", (1, 2))
def test_spilled_query_reports_its_ladder_path(workers):
    """Ladder rows are counted where they are fed, so a spilled query
    reports as many as the in-memory one — the counters used to die
    with every spilled partition's table (0 / 0 / None under a budget)
    — whether the in-memory one ran in-process or on executor
    processes."""
    query = "SELECT k, SUM(v) FROM t GROUP BY k"
    totals = {}
    for budget in (None, 4096):
        with Database(sum_mode="repro", memory_budget=budget,
                      workers=workers, morsel_size=512) as db:
            db.execute("CREATE TABLE t (k INT, v DOUBLE)")
            rng = np.random.default_rng(7)
            db.table("t").bulk_load({"k": rng.integers(0, 400, 4000),
                                     "v": rng.normal(size=4000)})
            db.execute(query)
        stats = db.last_pipeline_stats
        assert stats.external is (budget is not None)
        assert (stats.spilled_runs > 0) is (budget is not None)
        totals[budget] = stats.ladder_rows_scatter + stats.ladder_rows_reference
        if stats.ladder_rows_reference:
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


def test_explain_renders_external_choice(monkeypatch):
    monkeypatch.setattr(external_agg, "SPILL_PARTITIONS", 3)
    db = _build(sum_mode="repro", memory_budget=4096)
    plan = db.explain(QUERY)
    assert "external(partitions=3, budget=4096B" in plan
    db.execute("SET memory_budget = unbounded")
    assert "external(" not in db.explain(QUERY)


def test_planner_bounds_groups_by_dictionary_sizes():
    """TPC-H Q1 groups by two dictionary-encoded flags (3 x 2 values):
    the planner knows their state fits any sane budget, where it used
    to assume one group per row and go external.  A key it cannot
    bound still does."""
    db = Database(sum_mode="repro", memory_budget=1 << 20)
    load_lineitem(db, scale_factor=0.002)
    assert "external(" not in db.explain(Q1_SQL)
    assert "external(" in db.explain(
        "SELECT l_orderkey, SUM(l_quantity) FROM lineitem "
        "GROUP BY l_orderkey"
    )
    # ... and the two bounds combine: flags x an unbounded key.
    assert "external(" in db.explain(
        "SELECT l_returnflag, l_orderkey, SUM(l_quantity) FROM lineitem "
        "GROUP BY l_returnflag, l_orderkey"
    )


def test_set_pragma_round_trip():
    db = _build(sum_mode="repro")
    assert db.memory_budget is None
    db.execute("SET memory_budget = 8192")
    assert db.memory_budget == 8192
    db.execute("SET memory_budget = 0")
    assert db.memory_budget is None
    db.execute("SET workers = 2")
    assert db.execution_context.workers == 2


def test_set_pragma_validation():
    db = _build(sum_mode="repro")
    with pytest.raises(ValueError):
        db.execute("SET memory_budget = -1")
    with pytest.raises(ValueError):
        db.execute("SET no_such_knob = 3")


def test_retired_spill_names_fail_naming_their_successor():
    """One spelling of the budget, and no knob for the spill shape: the
    old names fail loudly on every surface, never silently ignored."""
    db = _build(sum_mode="repro")
    for name in ("memory_budget_bytes", "spill_partitions",
                 "spill_merge_fanin"):
        with pytest.raises(ConfigError, match="memory_budget") as err:
            db.execute(f"SET {name} = 4")
        assert name in str(err.value) and "retired" in str(err.value)
        assert name not in db.execution_context.PARAM_NAMES
    assert db.memory_budget is None
    for name in ("spill_partitions", "spill_merge_fanin"):
        with pytest.raises(TypeError, match=name):
            Database(**{name: 2})
        with pytest.raises(ReproError, match="memory_budget") as err:
            db.session(**{name: 2})
        assert name in str(err.value)
        with pytest.raises(ReproError, match=name):
            db.set_default(name, 2)
        assert not hasattr(db.execution_context, name)


def test_memory_budget_property_setter():
    db = Database(sum_mode="repro")
    db.memory_budget = 4096
    assert db.memory_budget == 4096
    db.memory_budget = None
    assert db.memory_budget is None
    with pytest.raises(ValueError):
        Database(memory_budget=-5)


def test_set_workers_splits_in_memory_plans_only():
    with _build(sum_mode="repro", workers=2, morsel_size=193) as db:
        db.execute(QUERY)
        assert db.last_pipeline_stats.workers == 2
        db.execute("SET workers = 3")
        db.execute(QUERY)
        assert db.last_pipeline_stats.workers == 3
        # an external plan has one spilling sink
        db.memory_budget = 1
        db.execute(QUERY)
        assert db.last_pipeline_stats.workers == 1


# ---------------------------------------------------------------------------
# Partition routing (the shared content hash)
# ---------------------------------------------------------------------------


def test_stable_key_hash_canonical_floats():
    assert value_hash(float("nan")) == value_hash(float(_PAYLOAD_NAN))
    assert value_hash(-0.0) == value_hash(0.0)
    assert value_hash("a") != value_hash("b")
    # The vectorized lanes agree with themselves the same way, and a
    # second column tells rows apart.
    floats = np.array([np.nan, _PAYLOAD_NAN, -0.0, 0.0, 1.0, 1.0])
    labels = np.array(["a", "a", "b", "b", "a", "b"], dtype=object)
    hashes = row_hashes([floats, labels])
    assert hashes[0] == hashes[1] and hashes[2] == hashes[3]
    assert hashes[4] != hashes[5]
    # A dictionary-encoded column hashes like its values.
    codes = np.array([0, 0, 1, 1, 0, 1])
    uniques = np.array(["a", "b"], dtype=object)
    memo = {}
    assert np.array_equal(row_hashes([floats, (codes, uniques)], memo), hashes)
    assert list(memo) == [id(uniques)]


def test_partition_ids_group_rows_together():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 50, size=4000).astype(np.float64)
    keys[::17] = np.nan
    keys[1::19] = -0.0
    batch = Batch({"k": keys}, {"k": DOUBLE})
    group_exprs = (parse_expression("k"),)
    pids = partition_ids(batch, group_exprs, 7)
    assert pids.shape == (4000,)
    assert pids.min() >= 0 and pids.max() < 7
    assert len(set(pids.tolist())) == 7
    # Every row of a group lands in one partition: NaNs together,
    # -0.0 with 0.0.
    assert len(set(pids[np.isnan(keys)].tolist())) == 1
    zero = pids[keys == 0.0]
    assert len(set(zero.tolist())) <= 1
    # Same batch, same routing (process-deterministic).
    again = partition_ids(batch, group_exprs, 7)
    assert np.array_equal(pids, again)


def test_partition_ids_single_partition_short_circuit():
    batch = Batch({"k": np.arange(5.0)}, {"k": DOUBLE})
    pids = partition_ids(batch, (parse_expression("k"),), 1)
    assert not pids.any()
