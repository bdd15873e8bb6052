"""The operators every plan runs, against the row-order reference.

Late materialization, build-row group ids and one ladder call per
morsel are *dispatch only*.  Key registration, ladder
updates and canonical finalize are the group table's own, so results
must be byte-identical to the scalar reference table (reached through
the ``engine_path`` fixture — no query can select it) in every sum
mode, for every ``(workers, morsel_size)`` split, and across the IEEE
special values (NaN / ±inf / -0.0) in keys and arguments.

The second half unit-tests the ladder entry point the table calls —
:func:`add_blocked_multi`, which scatters every row on its table's
prevailing ladder and hands the rest to the reference — against looped
:meth:`GroupedSummation.add_pairs` (more of the same, with the property
tests, in ``tests/aggregation/test_blocked_ladder.py``).
"""

import numpy as np
import pytest

from repro.aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.engine import Database
from repro.errors import ConfigError
from repro.fp.formats import BINARY32, BINARY64

MODES = ("repro", "ieee")

QUERY = (
    "SELECT k, s, SUM(v) AS sv, RSUM(v, 3) AS rv, AVG(v) AS av, "
    "COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi, STDDEV(v) AS sd "
    "FROM t GROUP BY k, s ORDER BY k, s"
)
#: No MIN/MAX: nothing in this query reads the morsel's sort.
SUMS_QUERY = (
    "SELECT k, SUM(v) AS sv, RSUM(v, 3) AS rv, COUNT(*) AS c "
    "FROM t GROUP BY k ORDER BY k"
)
FILTERED_QUERY = (
    "SELECT k, SUM(v) AS sv, COUNT(*) AS c FROM t "
    "WHERE v > 0 GROUP BY k ORDER BY k"
)


def result_bits(result):
    """Bit-exact encoding; object columns by value (an executor's
    strings are equal, not the same objects)."""
    return tuple(
        repr(arr.tolist()).encode() if arr.dtype == object else arr.tobytes()
        for arr in map(np.asarray, result.arrays)
    )


def make_db(columns, data, sum_mode="repro", workers=1, morsel_size=1 << 16):
    db = Database(sum_mode=sum_mode, workers=workers,
                  morsel_size=morsel_size)
    db.execute(f"CREATE TABLE t ({columns})")
    db.table("t").bulk_load(data)
    return db


@pytest.fixture
def run_both(engine_path):
    """(scalar reference, query table) results for one query — one
    database per (path, table, mode, workers), its morsel size ``SET``
    per call, so a worker count spawns one executor fleet per path."""
    dbs = {}

    def run(columns, data, query, sum_mode, workers=1, morsel_size=1 << 16):
        results = []
        for path in ("scalar", None):
            key = (path, columns, id(data), sum_mode, workers)
            with engine_path(path):
                if key not in dbs:
                    dbs[key] = data, make_db(columns, data, sum_mode, workers)
                db = dbs[key][1]
                db.execute(f"SET morsel_size = {morsel_size}")
                results.append(db.execute(query))
        return tuple(results)

    yield run
    for _, db in dbs.values():
        db.close()


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(7)
    n = 500
    keys = rng.integers(0, 6, size=n)
    labels = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, n)]
    values = (rng.choice([-1.0, 1.0], size=n)
              * rng.uniform(1.0, 2.0, size=n)
              * np.exp2(rng.uniform(-25, 25, size=n)))
    values[::97] = np.nan
    values[1::131] = np.inf
    values[2::151] = -np.inf
    values[3::89] = -0.0
    values[4::83] = 0.0
    return {"k": keys.tolist(), "s": labels.tolist(), "v": values.tolist()}


class TestBitEquivalence:
    @pytest.mark.parametrize("sum_mode", MODES)
    def test_bits_match_both_paths_for_every_split(self, dataset, sum_mode, run_both):
        baseline = None
        for workers in (1, 2):
            for morsel_size in (1, 7, 64, 1 << 16):
                scalar, table = run_both(
                    "k INT, s VARCHAR(1), v DOUBLE", dataset, QUERY,
                    sum_mode, workers, morsel_size,
                )
                bits = result_bits(table)
                assert bits == result_bits(scalar)
                if sum_mode != "ieee":
                    baseline = baseline or bits
                    assert bits == baseline

    @pytest.mark.parametrize("query", (SUMS_QUERY, FILTERED_QUERY))
    def test_order_insensitive_sums(self, dataset, query, run_both):
        for workers, morsel_size in ((1, 13), (2, 64), (1, 1 << 16)):
            scalar, table = run_both(
                "k INT, s VARCHAR(1), v DOUBLE", dataset, query,
                "repro", workers, morsel_size,
            )
            assert result_bits(table) == result_bits(scalar)

    def test_nan_and_signed_zero_keys(self, run_both):
        data = {
            "k": [float("nan"), 2.0, float("nan"), -0.0, 0.0, float("inf"),
                  float("nan"), float("inf"), 2.0],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        }
        query = ("SELECT k, SUM(v), MIN(v), MAX(v), COUNT(*) FROM t "
                 "GROUP BY k ORDER BY k")
        for workers, morsel_size in ((1, 1), (1, 2), (2, 16)):
            scalar, table = run_both(
                "k DOUBLE, v DOUBLE", data, query, "repro",
                workers, morsel_size,
            )
            assert result_bits(table) == result_bits(scalar)

    def test_empty_table_and_empty_morsels(self, run_both):
        # Empty input, and a filter that empties every morsel: the
        # table must handle zero-row updates.
        for data, query, expect in (
            ({"k": [], "v": []}, "SELECT k, SUM(v) FROM t GROUP BY k", []),
            ({"k": [1, 2], "v": [1.0, 2.0]},
             "SELECT k, SUM(v) FROM t WHERE v > 1e300 GROUP BY k", []),
        ):
            scalar, table = run_both(
                "k INT, v DOUBLE", data, query, "repro", 2, 1
            )
            assert table.rows() == scalar.rows() == expect

    def test_all_distinct_groups(self, run_both):
        n = 300
        data = {"k": list(range(n)),
                "v": (np.linspace(-1.0, 1.0, n) * 2.0 ** 40).tolist()}
        scalar, table = run_both(
            "k INT, v DOUBLE", data,
            "SELECT k, SUM(v), AVG(v) FROM t GROUP BY k ORDER BY k",
            "repro", 2, 17,
        )
        assert result_bits(table) == result_bits(scalar)

    def test_float32_values(self, dataset, run_both):
        data = dict(dataset)
        data["v"] = [
            float(np.float32(v)) if np.isfinite(v) else v for v in data["v"]
        ]
        scalar, table = run_both(
            "k INT, s VARCHAR(1), v FLOAT", data, QUERY, "repro", 2, 64
        )
        assert result_bits(table) == result_bits(scalar)


BUILD_ROW_RULE = "group_ids=build_row("


class TestPlanChoices:
    """What the planner decides per plan, read off EXPLAIN — and that
    the decision never reaches the bits."""

    @pytest.fixture
    def joined(self, dataset):
        def build():
            db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
            db.execute("CREATE TABLE r (k INT, w DOUBLE)")
            db.table("r").bulk_load({"k": [0, 1, 2], "w": [1.0, 2.0, 3.0]})
            return db
        return build

    def test_inner_join_takes_the_build_row_rule(self, joined, engine_path):
        # An integer probe key the inner match made equal to its build
        # key: the probe's build row determines the group.
        query = "SELECT t.k, SUM(v) FROM t, r WHERE t.k = r.k GROUP BY t.k"
        db = joined()
        assert BUILD_ROW_RULE + "t.k = r.k)" in db.explain(query)
        with engine_path("scalar"):
            expected = result_bits(joined().execute(query))
        assert result_bits(db.execute(query)) == expected

    def test_left_outer_join_falls_back(self, joined, engine_path):
        # LEFT joins null-fill build columns after the probe (dtypes
        # change), so their group ids come from the generic key path.
        query = ("SELECT t.k, SUM(w) FROM t LEFT JOIN r ON t.k = r.k "
                 "GROUP BY t.k")
        db = joined()
        assert BUILD_ROW_RULE not in db.explain(query)
        with engine_path("scalar"):
            expected = result_bits(joined().execute(query))
        assert result_bits(db.execute(query)) == expected

    def test_count_distinct_falls_back(self, dataset, engine_path):
        # Per-group value sets ride the same table as every other
        # state; nothing about them shows in the plan.
        query = "SELECT k, COUNT(DISTINCT v), SUM(v) FROM t GROUP BY k"
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        assert "fused" not in db.explain(query)
        with engine_path("scalar"):
            reference = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
            expected = result_bits(reference.execute(query))
        assert result_bits(db.execute(query)) == expected

    def test_external_aggregation_falls_back(self, dataset):
        db = Database(sum_mode="repro", memory_budget=1)
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        db.table("t").bulk_load({"k": dataset["k"], "v": dataset["v"]})
        result = db.execute(SUMS_QUERY)
        assert db.last_pipeline_stats.external is True
        reference = make_db("k INT, v DOUBLE",
                            {"k": dataset["k"], "v": dataset["v"]})
        assert result_bits(result) == result_bits(
            reference.execute(SUMS_QUERY)
        )

    def test_explain_renders_the_operators(self, dataset):
        # One feeder: the plan is the operators themselves, and no
        # fused / unfused:<reason> qualifier exists to render.
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        plan = db.explain(FILTERED_QUERY)
        assert "Aggregate[morsel_size=65536](" in plan
        assert "Scan(t, columns=[k, v], filter=(v > 0))" in plan
        assert "fused" not in plan.lower()


class TestPlanCacheAcrossKnobs:
    """A cached plan holds no knob: every SELECT lowers it under the
    session's current ones.  Join builds survive a SET too."""

    @pytest.mark.parametrize("knob, attribute, value", (
        ("SET workers = 2", "workers", 2),
        ("SET memory_budget = 4096", "external", True),
    ), ids=("SET workers = 2-split", "SET memory_budget = 4096-external"))
    def test_execution_knobs_relower_a_cached_plan(self, dataset, knob,
                                                   attribute, value):
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        db.execute("CREATE TABLE r (k INT, w DOUBLE)")
        db.table("r").bulk_load({"k": [0, 1, 2], "w": [1.0, 2.0, 3.0]})
        context = db.execution_context
        # a LEFT join's build is served from the context's join cache
        # under any knob
        query = ("SELECT t.k, SUM(v) FROM t LEFT JOIN r ON t.k = r.k "
                 "GROUP BY t.k")
        joined = result_bits(db.execute(query))
        summed = result_bits(db.execute(SUMS_QUERY))
        assert getattr(db.last_pipeline_stats, attribute) != value
        assert context._join_cache and len(context._plan_cache) == 2
        try:
            db.execute(knob)
            assert len(context._plan_cache) == 2 and context._join_cache
            assert result_bits(db.execute(SUMS_QUERY)) == summed
            stats = db.last_pipeline_stats
            assert stats.plan_cache_hit
            assert getattr(stats, attribute) == value
            assert result_bits(db.execute(query)) == joined
            assert db.last_pipeline_stats.join_cache_hits == 1
        finally:
            db.close()

    def test_set_fused_is_an_unknown_name(self, dataset):
        # Not a knob: the name is unknown, not a silently ignored
        # switch, and nothing cached was dropped on the way.
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset)
        db.execute(SUMS_QUERY)
        for value in ("off", "'banana'"):
            with pytest.raises(ConfigError, match="fused") as err:
                db.execute(f"SET fused = {value}")
            assert "valid parameters: " in str(err.value)
        assert len(db.execution_context._plan_cache) == 1


def scatter_share(stats):
    """Share of a query's ladder rows that took the scatter."""
    total = stats.ladder_rows_scatter + stats.ladder_rows_reference
    return stats.ladder_rows_scatter / total if total else 0.0


class TestBlockedLadderPath:
    """The scatter must engage at the *default* knobs, and which path a
    row took must never reach the result bits."""

    Q1_SHAPED = (
        "SELECT f, s, SUM(q) AS sq, SUM(p) AS sp, SUM(p * (1 - d)) AS sd, "
        "SUM(p * (1 - d) * (1 + t)) AS sc, AVG(q) AS aq, AVG(d) AS ad, "
        "COUNT(*) AS c FROM t WHERE q < 49 GROUP BY f, s ORDER BY f, s"
    )

    @pytest.fixture(scope="class")
    def lineitems(self):
        rng = np.random.default_rng(23)
        n = 70_000
        return {
            "f": np.array(["A", "N", "R"], dtype=object)[rng.integers(0, 3, n)],
            "s": np.array(["F", "O"], dtype=object)[rng.integers(0, 2, n)],
            "q": rng.integers(1, 51, n).astype(np.float64),
            "p": rng.uniform(900.0, 105000.0, n).round(2),
            "d": rng.integers(0, 11, n) / 100.0,
            "t": rng.integers(0, 9, n) / 100.0,
        }

    COLUMNS = ("f VARCHAR(1), s VARCHAR(1), q DOUBLE, p DOUBLE, d DOUBLE, "
               "t DOUBLE")

    def test_default_knobs_reach_the_scatter(self, lineitems):
        db = Database(sum_mode="repro")  # every knob at its default
        db.execute(f"CREATE TABLE t ({self.COLUMNS})")
        db.table("t").bulk_load(lineitems)
        db.execute(self.Q1_SHAPED)
        stats = db.last_pipeline_stats
        # five ladder tables (q, p, two products, d), every group
        # seeded by its own rows: nothing is left for the reference
        kept = int((lineitems["q"] < 49).sum())
        assert stats.ladder_rows_scatter == 5 * kept
        assert stats.ladder_rows_reference == 0
        assert stats.ladder_first_decline is None
        # per query, not cumulative
        db.execute(self.Q1_SHAPED)
        assert db.last_pipeline_stats.ladder_rows_scatter == 5 * kept

    def test_bits_independent_of_blocking(self, lineitems, engine_path):
        with engine_path("scalar"):
            reference = make_db(self.COLUMNS, lineitems,
                                morsel_size=1 << 12)
            expected = result_bits(reference.execute(self.Q1_SHAPED))
        assert reference.last_pipeline_stats.ladder_rows_scatter == 0
        kept = int((lineitems["q"] < 49).sum())
        for workers in (1, 2):
            with make_db(self.COLUMNS, lineitems, workers=workers) as db:
                for morsel_size in (1024, 16384, 65536):
                    db.execute(f"SET morsel_size = {morsel_size}")
                    assert result_bits(db.execute(self.Q1_SHAPED)) == expected
                    stats = db.last_pipeline_stats
                    # every executor's tables seed themselves per morsel
                    assert (stats.ladder_rows_scatter
                            + stats.ladder_rows_reference) == 5 * kept
                    assert scatter_share(stats) >= 0.8

    def test_ieee_mode_counts_nothing(self, lineitems):
        db = make_db(self.COLUMNS, lineitems, sum_mode="ieee")
        db.execute(self.Q1_SHAPED)
        stats = db.last_pipeline_stats
        assert (stats.ladder_rows_scatter, stats.ladder_rows_reference,
                stats.ladder_first_decline) == (0, 0, None)

    # The three shapes the row partition opens up (the other three
    # workloads of BENCHMARK.json): many small groups first seen
    # mid-input, sixty binades of magnitudes behind a filter, and a SUM
    # behind two hash-join probes.
    def _pairs(self, rng):
        n, groups = 1 << 17, 1 << 14
        return ("k INT, v DOUBLE",
                {"k": rng.integers(0, groups, n), "v": rng.exponential(size=n)},
                (), "SELECT k, SUM(v) AS s FROM t GROUP BY k")

    def _obs(self, rng):
        n = 50_000
        values = (rng.choice([-1.0, 1.0], size=n)
                  * np.exp2(rng.uniform(-30, 30, n)))
        return ("k INT, v DOUBLE",
                {"k": rng.permutation(np.arange(n) % 256), "v": values}, (),
                "SELECT k, SUM(v) AS s, COUNT(*) AS c FROM t "
                "WHERE v > 0 GROUP BY k")

    def _q3(self, rng):
        n, orders, customers = 60_000, 15_000, 1_500
        return ("ok INT, p DOUBLE, d DOUBLE, sd INT",
                {"ok": rng.integers(0, orders, n),
                 "p": rng.uniform(900.0, 105000.0, n).round(2),
                 "d": rng.integers(0, 11, n) / 100.0,
                 "sd": rng.integers(0, 100, n)},
                (("o", "ok INT, ck INT, od INT",
                  {"ok": np.arange(orders),
                   "ck": rng.integers(0, customers, orders),
                   "od": rng.integers(0, 100, orders)}),
                 ("c", "ck INT, seg VARCHAR(10)",
                  {"ck": np.arange(customers),
                   "seg": np.array(["BUILDING", "MACHINERY", "AUTOMOBILE"],
                                   dtype=object)[
                       rng.integers(0, 3, customers)]})),
                "SELECT t.ok, SUM(t.p * (1 - t.d)) AS revenue, o.od "
                "FROM c JOIN o ON c.ck = o.ck JOIN t ON t.ok = o.ok "
                "WHERE c.seg = 'BUILDING' AND o.od < 50 AND t.sd > 50 "
                "GROUP BY t.ok, o.od ORDER BY revenue DESC LIMIT 10")

    @pytest.mark.parametrize("shape", ("_pairs", "_obs", "_q3"))
    def test_row_partition_shapes_scatter(self, shape, engine_path):
        columns, data, others, query = getattr(self, shape)(
            np.random.default_rng(29))

        def run(**knobs):
            db = Database(sum_mode="repro", **knobs)
            for name, cols, arrays in (("t", columns, data),) + others:
                db.execute(f"CREATE TABLE {name} ({cols})")
                db.table(name).bulk_load(arrays)
            with db:
                return result_bits(db.execute(query)), db.last_pipeline_stats

        with engine_path("scalar"):
            expected, _ = run()
        for knobs in ({}, {"workers": 2}):
            bits, stats = run(**knobs)
            assert bits == expected, knobs
            assert stats.workers == knobs.get("workers", 1)
            assert scatter_share(stats) >= 0.8, (knobs, stats.ladder_rows_reference)


# ---------------------------------------------------------------------------
# The blocked ladder update vs. the per-table reference
# ---------------------------------------------------------------------------

P64 = RsumParams(BINARY64)
P64L3 = RsumParams(BINARY64, levels=3)
P32 = RsumParams(BINARY32)

N, G = 1024, 4


def _check_scatter(params, ngroups, gids, cols, premut=None, reps=2,
                   expect_reference=0):
    """``add_blocked_multi`` vs looped ``add_pairs``; asserts how many
    rows (summed over tables) missed the scatter on the final rep and
    that bits agree either way."""
    gids = np.asarray(gids, dtype=np.int64)
    cols = [np.asarray(c, dtype=params.fmt.dtype) for c in cols]
    reference = [GroupedSummation(params, ngroups) for _ in cols]
    batched = [GroupedSummation(params, ngroups) for _ in cols]
    if premut:
        premut(reference)
        premut(batched)
    for _ in range(reps):
        for grouped, col in zip(reference, cols):
            grouped.add_pairs(gids, col)
        counters = LadderCounters()
        add_blocked_multi(batched, gids, cols, counters)
    assert counters.reference == expect_reference
    assert counters.scatter == gids.size * len(cols) - expect_reference
    for ref, got in zip(reference, batched):
        assert ref.state_tuples() == got.state_tuples()
        assert ref.finalize().tobytes() == got.finalize().tobytes()


def _seed_uniform(magnitude, ngroups=G):
    """Premutation: one value per group, so every table reaches the
    uniform-e0 steady state the scatter path requires."""
    def premut(tables):
        gg = np.arange(ngroups, dtype=np.int64)
        for table in tables:
            table.add_pairs(gg, np.full(ngroups, magnitude))
    return premut


def _seed_split(tables):
    """Premutation: group 0 huge, group 1 tiny — mixed per-group e0."""
    gg = np.array([0, 1], dtype=np.int64)
    for table in tables:
        table.add_pairs(gg, np.array([1e40, 1e-60]))


class TestBlockedLadderScatter:
    """The scatter of ``add_blocked_multi``, case by case: which rows
    scatter is asserted in row units, and the bits must match
    ``add_pairs`` whichever path a row took."""

    @pytest.fixture(scope="class")
    def rng(self):
        return np.random.default_rng(11)

    def test_steady_state_many_columns(self, rng):
        gids = rng.integers(0, G, N)
        cols = [rng.normal(size=N) * 100 for _ in range(5)]
        _check_scatter(P64, G, gids, cols, premut=_seed_uniform(150.0))

    def test_steady_state_zeros(self, rng):
        gids = rng.integers(0, G, N)
        values = np.where(rng.random(N) < 0.4, -0.0, rng.normal(size=N))
        _check_scatter(P64, G, gids, [values], premut=_seed_uniform(150.0))
        _check_scatter(P64, G, gids, [np.zeros(N), rng.normal(size=N)],
                       premut=_seed_uniform(150.0))

    def test_fresh_tables_reach_steady_state(self, rng):
        # Empty ladders are seeded by the rows themselves: every group
        # holds a value of the block maximum's class, so even the first
        # call scatters every row.
        gids = rng.integers(0, G, N)
        _check_scatter(P64, G, gids, [rng.normal(size=N)], reps=1)
        _check_scatter(P64, G, gids, [rng.normal(size=N)])

    def test_demote_declines_then_applies(self, rng):
        # Rep 1 raises every ladder through the reference; rep 2
        # finds the table uniform on the new one and scatters.
        gids = rng.integers(0, G, N)
        _check_scatter(P64, G, gids, [rng.normal(size=N) * 1e50],
                       premut=_seed_uniform(1.0))

    def test_three_levels(self, rng):
        gids = rng.integers(0, G, N)
        _check_scatter(P64L3, G, gids,
                       [rng.normal(size=N) * 1e-6, rng.normal(size=N) * 1e6])

    def test_tiny_near_emin(self, rng):
        gids = rng.integers(0, G, N)
        _check_scatter(P64, G, gids, [rng.normal(size=N) * 1e-300],
                       premut=_seed_uniform(1e-299))

    def test_nan_declines(self, rng):
        # only the NaN rows leave the scatter
        gids = rng.integers(0, G, N)
        values = np.where(rng.random(N) < 0.01, np.nan, rng.normal(size=N))
        _check_scatter(P64, G, gids, [values], premut=_seed_uniform(150.0),
                       expect_reference=int(np.isnan(values).sum()))

    def test_inf_declines(self, rng):
        # only the ±inf rows leave the scatter, as with NaN
        gids = rng.integers(0, G, N)
        values = np.where(rng.random(N) < 0.01, -np.inf, rng.normal(size=N))
        _check_scatter(P64, G, gids, [values], premut=_seed_uniform(150.0),
                       expect_reference=int(np.isinf(values).sum()))

    def test_binary32_applies(self, rng):
        # binary32 ladders run the kernel's float instance, cut by the
        # same int64 bound as binary64 (2**22 rows at W = 18)
        gids = rng.integers(0, G, N)
        _check_scatter(P32, G, gids, [rng.normal(size=N).astype(np.float32)],
                       premut=_seed_uniform(np.float32(150.0)))

    def test_block_rows_boundary_straddle(self, rng):
        # One int64 bound cuts the blocks, 2**min(22, 62-w) rows
        # whatever their groups: 4 096 at the widest w = 50.  Exactly
        # at the bound is one block, one addend past it two — with a
        # single group and with many groups of few rows alike (the
        # cuts are pinned in test_blocked_ladder.py).
        params = RsumParams(BINARY64, w=50)
        limit = GroupedSummation(params, 0).block_rows
        values = rng.uniform(50.0, 200.0, size=limit + 1)
        _check_scatter(params, 1, np.zeros(limit, dtype=np.int64),
                       [values[:limit]],
                       premut=_seed_uniform(150.0, ngroups=1), reps=1)
        _check_scatter(params, 1, np.zeros(limit + 1, dtype=np.int64),
                       [values],
                       premut=_seed_uniform(150.0, ngroups=1), reps=1)
        _check_scatter(params, G, np.arange(limit + 1) % G, [values],
                       premut=_seed_uniform(150.0), reps=1)

    def test_binary32_subnormal_anchor(self, rng):
        # Anchors near emin = -126: slices live in the subnormal range
        # where the float64 representation is still exact.
        gids = rng.integers(0, G, N)
        tiny = (rng.normal(size=N).astype(np.float32)
                * np.float32(1e-38))
        _check_scatter(P32, G, gids, [tiny],
                       premut=_seed_uniform(np.float32(1e-37)))

    def test_binary32_nan_inf_decline(self, rng):
        gids = rng.integers(0, G, N)
        v_nan = rng.normal(size=N).astype(np.float32)
        v_nan[13] = np.nan
        _check_scatter(P32, G, gids, [v_nan],
                       premut=_seed_uniform(np.float32(150.0)),
                       expect_reference=1)
        v_inf = rng.normal(size=N).astype(np.float32)
        v_inf[7] = np.inf
        _check_scatter(P32, G, gids, [v_inf],
                       premut=_seed_uniform(np.float32(150.0)),
                       expect_reference=1)

    def test_mixed_per_group_e0_declines(self, rng):
        # group 0 holds the prevailing ladder; the rows of every other
        # group (one on a lower ladder, two empty and not seeded by
        # values this small) take the reference
        gids = rng.integers(0, G, N)
        _check_scatter(P64, G, gids, [rng.normal(size=N)],
                       premut=_seed_split,
                       expect_reference=int((gids != 0).sum()))

    def test_out_of_range_gids_raise_the_reference_error(self):
        tables = [GroupedSummation(P64, 2)]
        tables[0].add_pairs(np.array([0, 1], dtype=np.int64),
                            np.array([1.0, 1.0]))
        before = tables[0].state_tuples()
        for bad in ([0, 5], [-1, 0]):
            with pytest.raises(IndexError):
                add_blocked_multi(tables, np.array(bad, dtype=np.int64),
                                  [np.array([1.0, 2.0])])
        assert tables[0].state_tuples() == before

    def test_mixed_params_rejected(self):
        tables = [GroupedSummation(P64, 2), GroupedSummation(P64L3, 2)]
        with pytest.raises(ValueError):
            add_blocked_multi(tables, np.array([0, 1], dtype=np.int64),
                              [np.ones(2), np.ones(2)])

    def test_empty_input(self):
        tables = [GroupedSummation(P64, 2)]
        counters = LadderCounters()
        add_blocked_multi(tables, np.empty(0, dtype=np.int64),
                          [np.empty(0)], counters)
        assert (counters.scatter, counters.reference) == (0, 0)
        assert tables[0].finalize().tolist() == [0.0, 0.0]
