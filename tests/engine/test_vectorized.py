"""Query-table-vs-scalar equivalence: the batched kernels of
:mod:`repro.engine.vectorized` must be invisible in the result bits.
The scalar reference is reached through the ``engine_path`` fixture
(no query, constructor argument or ``SET`` can select it).

For repro mode this is the paper's exactness claim carried one
layer up: re-ordering a morsel by group id and accumulating quanta with
segment reductions cannot change the final bits, for any
``(workers, morsel_size)`` split.  For IEEE mode the engine makes a
*stronger* promise than reproducibility requires: the query table
keeps the scalar table's physical-row-order accumulation, so even the
order-sensitive mode returns identical bits (and, a fortiori, identical
group sets).
"""

import numpy as np
import pytest

from repro.aggregation.grouped import GroupedSummation
from repro.core.params import RsumParams
from repro.engine import Database, ExprCache
from repro.engine.operators import AggregateSpec, SumConfig
from repro.engine.sql import parse_expression
from repro.engine.vectorized import VectorizedGroupTable
from repro.errors import ConfigError, ReproError
from repro.fp.formats import BINARY32, BINARY64

WORKERS = (1, 2)
MORSEL_SIZES = (1, 7, 64, 1 << 16)

QUERY = (
    "SELECT k, s, SUM(v) AS sv, RSUM(v, 3) AS rv, AVG(v) AS av, "
    "COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi, STDDEV(v) AS sd "
    "FROM t GROUP BY k, s ORDER BY k, s"
)


def result_bits(result):
    return tuple(
        repr(arr.tolist()).encode() if arr.dtype == object else arr.tobytes()
        for arr in map(np.asarray, result.arrays)
    )


def make_db(columns, data, sum_mode="repro", workers=1, morsel_size=1 << 16,
            **knobs):
    db = Database(sum_mode=sum_mode, workers=workers, morsel_size=morsel_size,
                  **knobs)
    db.execute(f"CREATE TABLE t ({columns})")
    db.table("t").bulk_load(data)
    return db


@pytest.fixture
def run_both(engine_path):
    """``(scalar reference result, query-table result)`` for one query.

    One database per (path, table, mode, workers), its morsel size
    ``SET`` per call: a worker count spawns one executor fleet per path
    (forked under the path's table), not one per case."""
    dbs = {}

    def run(columns, data, query, sum_mode, workers=1, morsel_size=1 << 16,
            levels=2):
        results = []
        for path in ("scalar", None):
            key = (path, columns, id(data), sum_mode, workers, levels)
            with engine_path(path):
                if key not in dbs:
                    dbs[key] = data, make_db(columns, data, sum_mode, workers,
                                             levels=levels)
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
    exponents = rng.uniform(-25, 25, size=n)
    values = (rng.choice([-1.0, 1.0], size=n)
              * rng.uniform(1.0, 2.0, size=n) * np.exp2(exponents))
    # Sprinkle the IEEE special values the kernels must canonicalise.
    values[::97] = np.nan
    values[1::131] = np.inf
    values[2::151] = -np.inf
    values[3::89] = -0.0
    values[4::83] = 0.0
    return {
        "k": keys.tolist(),
        "s": labels.tolist(),
        "v": values.tolist(),
    }


#: (mode, ladder levels): both modes, and repro one level deeper
SUM_CONFIGS = [
    pytest.param("repro", 2, id="repro"),
    pytest.param("ieee", 2, id="ieee"),
    pytest.param("repro", 3, id="repro-levels3"),
]


class TestBitEquivalence:
    @pytest.mark.parametrize("sum_mode, levels", SUM_CONFIGS)
    def test_bits_match_scalar_for_every_split(self, dataset, sum_mode, levels,
                                               run_both):
        baseline = None
        for workers in WORKERS:
            for morsel_size in MORSEL_SIZES:
                scalar_result, vector_result = run_both(
                    "k INT, s VARCHAR(1), v DOUBLE", dataset, QUERY,
                    sum_mode, workers, morsel_size, levels,
                )
                assert result_bits(vector_result) == result_bits(scalar_result)
                if sum_mode != "ieee":
                    # Repro modes: additionally split-invariant.
                    if baseline is None:
                        baseline = result_bits(vector_result)
                    assert result_bits(vector_result) == baseline

    def test_float32_values(self, dataset, run_both):
        data = dict(dataset)
        data["v"] = [
            float(np.float32(v)) if np.isfinite(v) else v for v in data["v"]
        ]
        scalar_result, vector_result = run_both(
            "k INT, s VARCHAR(1), v FLOAT", data, QUERY, "repro", 2, 64
        )
        assert result_bits(vector_result) == result_bits(scalar_result)

    def test_decimal_sum_exact_path(self, dataset, run_both):
        data = {"k": dataset["k"], "v": [i / 100.0 for i in range(500)]}
        query = ("SELECT k, SUM(v) AS sv, AVG(v) AS av FROM t "
                 "GROUP BY k ORDER BY k")
        scalar_result, vector_result = run_both(
            "k INT, v DECIMAL(12, 2)", data, query, "repro", 2, 32
        )
        assert result_bits(vector_result) == result_bits(scalar_result)

    def test_nan_and_signed_zero_keys(self, run_both):
        data = {
            "k": [float("nan"), 2.0, float("nan"), -0.0, 0.0, float("inf"),
                  float("nan"), float("inf"), 2.0],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        }
        query = "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k ORDER BY k"
        baseline = None
        for workers in WORKERS:
            for morsel_size in (1, 2, 16):
                scalar_result, vector_result = run_both(
                    "k DOUBLE, v DOUBLE", data, query, "repro",
                    workers, morsel_size,
                )
                bits = result_bits(vector_result)
                assert bits == result_bits(scalar_result)
                baseline = baseline or bits
                assert bits == baseline
        # NaN keys coalesce into one group; -0.0 joins 0.0.
        db = make_db("k DOUBLE, v DOUBLE", data)
        rows = db.execute(query).rows()
        assert len(rows) == 4

    def test_empty_table(self, run_both):
        for query, expect in (
            ("SELECT COUNT(*) FROM t", [(0,)]),
            ("SELECT SUM(v) FROM t", [(0.0,)]),
            ("SELECT k, SUM(v) FROM t GROUP BY k", []),
        ):
            scalar_result, vector_result = run_both(
                "k INT, v DOUBLE", {"k": [], "v": []}, query, "repro"
            )
            assert vector_result.rows() == scalar_result.rows() == expect

    def test_single_group_and_all_distinct_extremes(self, run_both):
        n = 300
        values = (np.linspace(-1.0, 1.0, n) * 2.0 ** np.arange(n % 50 + 1).sum()
                  ).tolist()
        one_group = {"k": [1] * n, "v": values}
        all_distinct = {"k": list(range(n)), "v": values}
        query = "SELECT k, SUM(v), AVG(v) FROM t GROUP BY k ORDER BY k"
        for data in (one_group, all_distinct):
            scalar_result, vector_result = run_both(
                "k INT, v DOUBLE", data, query, "repro", 2, 17
            )
            assert result_bits(vector_result) == result_bits(scalar_result)

    def test_expression_keys_and_args(self, dataset, run_both):
        query = (
            "SELECT k + 1, SUM(v * 2 + 1), VARIANCE(ABS(v)) FROM t "
            "WHERE NOT (v > 1e300) GROUP BY k + 1 ORDER BY k + 1"
        )
        data = {"k": dataset["k"], "v": [float(i) for i in range(500)]}
        scalar_result, vector_result = run_both(
            "k INT, v DOUBLE", data, query, "repro", 2, 64
        )
        assert result_bits(vector_result) == result_bits(scalar_result)


class TestOneRuntime:
    def test_fixture_reaches_the_scalar_table(self, dataset, engine_path,
                                              monkeypatch):
        """Every query builds :class:`VectorizedGroupTable`; only the
        fixture's patched constructor reaches the scalar reference."""
        from repro.engine import pipeline as pipeline_mod

        built = []
        real = pipeline_mod.make_group_table

        def spy(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(pipeline_mod, "make_group_table", spy)
        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset, "repro")
        default = db.execute(QUERY)
        assert built and all(
            type(table) is VectorizedGroupTable for table in built
        )
        assert db.last_pipeline_stats.ladder_rows_scatter > 0
        monkeypatch.undo()
        with engine_path("scalar"):
            db2 = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset, "repro")
            scalar = db2.execute(QUERY)
            # The reference walks add_pairs: no ladder path to report.
            assert db2.last_pipeline_stats.ladder_rows_scatter == 0
            assert db2.last_pipeline_stats.ladder_first_decline is None
        assert result_bits(default) == result_bits(scalar)


class TestRetiredOptions:
    """``vectorized`` / ``fused`` / ``kernel_cache_size`` are gone from
    every surface: a typed error that lists the valid names, never a
    silently ignored setting."""

    @pytest.mark.parametrize("statement", (
        "SET vectorized = off",
        "SET fused = off",
        "SET kernel_cache_size = 2",
    ))
    def test_set_is_an_unknown_parameter(self, statement):
        db = Database()
        with pytest.raises(ConfigError) as err:
            db.execute(statement)
        assert "unknown session parameter" in str(err.value)
        for name in db.execution_context.PARAM_NAMES:
            assert name in str(err.value)
        assert len(db.execution_context.PARAM_NAMES) == 3

    def test_session_knob_is_rejected(self):
        db = Database()
        for option in ("vectorized", "fused", "kernel_cache_size"):
            with pytest.raises(ReproError) as err:
                db.session(**{option: False})
            assert "unknown session options" in str(err.value)
            assert "morsel_size" in str(err.value)
            with pytest.raises(ReproError):
                db.set_default(option, False)
            with pytest.raises(TypeError):
                Database(**{option: False})
            assert not hasattr(db.execution_context, option)


    @pytest.mark.parametrize("retired", ("repro_buffered", "sorted"))
    def test_retired_sum_mode_names_its_successor(self, retired):
        """``repro_buffered`` never selected different code and no
        served workload selected ``sorted``; both names (and
        ``buffer_size``, which no kernel read) fail loudly."""
        from repro.server.__main__ import main as serve

        db = Database()
        for build in (
            lambda: Database(sum_mode=retired),
            lambda: db.session(sum_mode=retired),
            lambda: SumConfig(retired),
        ):
            with pytest.raises(ConfigError) as err:
                build()
            assert f"'{retired}' is retired, use 'repro'" in str(err.value)
        assert retired not in SumConfig.MODES
        assert SumConfig.MODES == ("ieee", "repro")
        with pytest.raises(ReproError, match="unknown session options"):
            db.session(buffer_size=512)
        with pytest.raises(ReproError):
            db.set_default("buffer_size", 512)
        with pytest.raises(TypeError):
            Database(buffer_size=512)
        with pytest.raises(TypeError):
            SumConfig("repro", 2, 512)
        with pytest.raises(SystemExit):
            serve(["--sum-mode", retired])


class TestRadixOverflow:
    """Key parts whose composite code space would overflow int64 are
    registered by their key values instead of radix-combined: same
    groups, same bits."""

    QUERY = (
        "SELECT k, s, v AS g, SUM(v) AS sv, COUNT(*) AS c, MIN(v) AS lo "
        "FROM t GROUP BY k, s, v ORDER BY k, s, v"
    )

    @pytest.mark.parametrize("path", ("interpreted",))  # the id it had
    def test_bits_do_not_depend_on_the_radix_guard(self, dataset, path,
                                                   monkeypatch):
        from repro.engine import vectorized

        db = make_db("k INT, s VARCHAR(1), v DOUBLE", dataset, "repro",
                     morsel_size=97)
        expected = result_bits(db.execute(self.QUERY))
        taken = []
        table_class = vectorized.VectorizedGroupTable
        real = table_class._register_columns

        def spy(table, key_columns):
            taken.append(len(key_columns))
            return real(table, key_columns)

        def no_codes(*args):
            pytest.fail("keys past the radix guard were radix-combined")

        monkeypatch.setattr(table_class, "_register_columns", spy)
        monkeypatch.setattr(table_class, "_gids_from_codes", no_codes)
        monkeypatch.setattr(vectorized, "_RADIX_MAX", 4)
        assert result_bits(db.execute(self.QUERY)) == expected
        assert taken and set(taken) == {3}


class TestCountDistinct:
    """COUNT(DISTINCT) keeps per-group value sets — no segmented update
    — yet runs on the query table like every other aggregate, under
    every operator choice, with the scalar reference's bits in every
    sum mode."""

    COLUMNS = "k INT, s VARCHAR(1), v DOUBLE"
    QUERIES = (
        "SELECT k, COUNT(DISTINCT v) AS d FROM t GROUP BY k ORDER BY k",
        "SELECT COUNT(DISTINCT v) AS d FROM t",
        "SELECT k, COUNT(DISTINCT v) AS d, SUM(v) AS sv, AVG(v) AS av, "
        "MIN(v) AS lo, COUNT(*) AS c FROM t GROUP BY k ORDER BY k",
        "SELECT COUNT(DISTINCT s) AS ds, COUNT(DISTINCT v) AS dv, "
        "SUM(v) AS sv, AVG(v) AS av, MIN(v) AS lo FROM t",
    )
    JOIN_QUERY = (
        "SELECT names.label, COUNT(DISTINCT t.v) AS d, SUM(t.v) AS sv "
        "FROM t JOIN names ON t.k = names.k "
        "GROUP BY names.label ORDER BY names.label"
    )

    @pytest.fixture(scope="class")
    def members(self):
        rng = np.random.default_rng(23)
        n = 600
        # Few distinct finite values, so sets genuinely deduplicate.
        values = rng.choice(
            [1.5, -2.25, 1e30, -1e30, 3.0, 1e-30], size=n
        )
        values[::41] = np.nan
        values[1::43] = 0.0
        values[2::47] = -0.0
        values[3::53] = np.inf
        return {
            "k": rng.integers(0, 5, size=n).tolist(),
            "s": np.array(["a", "b", "c"], dtype=object)[
                rng.integers(0, 3, n)].tolist(),
            "v": values.tolist(),
        }

    def run_all(self, data, sum_mode, **knobs):
        with make_db(self.COLUMNS, data, sum_mode, **knobs) as db:
            db.execute("CREATE TABLE names (k INT, label VARCHAR)")
            db.execute(
                "INSERT INTO names VALUES (0, 'zero'), (1, 'odd'), "
                "(2, 'even'), (3, 'odd'), (4, 'even')"
            )
            bits, plans, stats = [], [], []
            for query in self.QUERIES + (self.JOIN_QUERY,):
                bits.append(result_bits(db.execute(query)))
                plans.append(db.explain(query))
                stats.append(db.last_pipeline_stats)
            return bits, plans, stats

    @pytest.mark.parametrize("sum_mode, levels", SUM_CONFIGS)
    def test_bits_match_scalar_on_every_operator(self, members, sum_mode,
                                                 levels, engine_path):
        configs = [
            dict(),
            dict(morsel_size=37),
            dict(workers=2, morsel_size=64, memory_budget=1),
            dict(workers=2, morsel_size=64),
        ]
        configs = [dict(knobs, levels=levels) for knobs in configs]
        baseline = None
        for knobs in configs:
            # The reference splits too: every partial table is built
            # inside the block, split like the query table's (IEEE bits
            # then agree as well).
            with engine_path("scalar"):
                expected, _, _ = self.run_all(members, sum_mode, **knobs)
            bits, plans, stats = self.run_all(members, sum_mode, **knobs)
            assert bits == expected, knobs
            if sum_mode != "ieee":
                baseline = baseline or bits
                assert bits == baseline, knobs
            grouped, joined = stats[0], plans[-1]
            split = "workers" in knobs and "memory_budget" not in knobs
            assert grouped.external is ("memory_budget" in knobs)
            assert grouped.workers == (2 if split else 1)
            # names.label is a column of the probe's build row — unless
            # the aggregate is external, which keeps the generic keys
            # and renders its spill shape instead
            assert ("group_ids=build_row(" in joined) is (
                "memory_budget" not in knobs)
            assert (", external(partitions=4" in joined) is (
                "memory_budget" in knobs)
            assert joined.count(", workers=2") == split

    def test_nan_and_signed_zero_members(self):
        data = {
            "k": [1, 1, 1, 1, 2, 2, 2],
            "s": ["a"] * 7,
            "v": [float("nan"), float("nan"), 0.0, -0.0,
                  float("inf"), float("inf"), float("-inf")],
        }
        with make_db(self.COLUMNS, data, morsel_size=2, workers=2) as db:
            # NaNs are one member; -0.0 and 0.0 are one member.
            assert db.execute(self.QUERIES[0]).rows() == [(1, 2), (2, 2)]
            assert db.execute(self.QUERIES[1]).scalar() == 4


class TestStorageEncoding:
    def test_dictionary_cache_invalidated_by_dml(self):
        db = make_db(
            "k VARCHAR(1), v DOUBLE",
            {"k": ["a", "b", "a"], "v": [1.0, 2.0, 3.0]},
        )
        query = "SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k"
        assert db.execute(query).rows() == [("a", 4.0), ("b", 2.0)]
        db.execute("INSERT INTO t VALUES ('c', 10.0), ('a', 0.5)")
        assert db.execute(query).rows() == [
            ("a", 4.5), ("b", 2.0), ("c", 10.0)
        ]
        db.execute("UPDATE t SET v = 20.0 WHERE k = 'b'")
        assert db.execute(query).rows() == [
            ("a", 4.5), ("b", 20.0), ("c", 10.0)
        ]
        db.execute("DELETE FROM t WHERE k = 'a'")
        assert db.execute(query).rows() == [("b", 20.0), ("c", 10.0)]


class TestKernels:
    @pytest.mark.parametrize("fmt", (BINARY64, BINARY32))
    def test_add_sorted_runs_matches_add_pairs(self, fmt):
        rng = np.random.default_rng(11)
        params = RsumParams(fmt, 2)
        n, ngroups = 400, 9
        gids = np.sort(rng.integers(0, ngroups, size=n))
        values = (rng.choice([-1.0, 1.0], size=n)
                  * rng.uniform(1.0, 2.0, size=n)
                  * np.exp2(rng.uniform(-30, 30, size=n))).astype(fmt.dtype)
        values[::53] = np.nan
        values[1::61] = np.inf
        values[2::67] = -np.inf
        values[3::41] = 0.0
        sorted_runs = GroupedSummation(params, ngroups)
        sorted_runs.add_sorted_runs(gids, values)
        pairs = GroupedSummation(params, ngroups)
        permutation = rng.permutation(n)
        pairs.add_pairs(gids[permutation], values[permutation])
        assert sorted_runs.state_tuples() == pairs.state_tuples()

    def test_add_sorted_runs_mixed_ladders(self):
        # Wildly different magnitudes per group exercise the
        # non-uniform (per-element anchor) branch.
        params = RsumParams(BINARY64, 3)
        gids = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        values = np.array([1e200, -1e180, 1e-300, 2e-300, 1.0, -1.0])
        sorted_runs = GroupedSummation(params, 3)
        sorted_runs.add_sorted_runs(gids, values)
        pairs = GroupedSummation(params, 3)
        pairs.add_pairs(gids[::-1], values[::-1])
        assert sorted_runs.state_tuples() == pairs.state_tuples()

    def test_add_sorted_runs_validates(self):
        params = RsumParams(BINARY64, 2)
        grouped = GroupedSummation(params, 2)
        with pytest.raises(IndexError):
            grouped.add_sorted_runs(
                np.array([0, 5], dtype=np.int64), np.array([1.0, 2.0])
            )
        with pytest.raises(ValueError):
            grouped.add_sorted_runs(
                np.array([0], dtype=np.int64), np.array([1.0, 2.0])
            )

    def test_object_keys_without_storage_encoding(self):
        # A Batch built directly (no table scan) has no dictionary
        # encodings: the object-key fast path must still agree with the
        # reference key factorization.
        from reference_table import PartialGroupTable
        from repro.engine import VectorizedGroupTable
        from repro.engine.operators import Batch

        rng = np.random.default_rng(3)
        labels = np.array(["p", "q", "r"], dtype=object)[
            rng.integers(0, 3, 120)
        ]
        values = rng.normal(size=120)
        batch = Batch({"s": labels, "v": values}, {})
        config = SumConfig("repro")
        specs = [AggregateSpec(parse_expression("SUM(v)"), config)]
        group_exprs = (parse_expression("s"),)
        vector_table = VectorizedGroupTable(group_exprs, specs)
        vector_table.update(batch)
        scalar_table = PartialGroupTable(group_exprs, specs)
        scalar_table.update(batch)
        vector_keys, vector_results, n_vector = vector_table.finalize()
        scalar_keys, scalar_results, n_scalar = scalar_table.finalize()
        assert n_vector == n_scalar
        assert vector_keys[0].tolist() == scalar_keys[0].tolist()
        assert vector_results[0].tobytes() == scalar_results[0].tobytes()

    def test_expr_cache_matches_evaluate(self):
        from repro.engine.expr import evaluate

        columns = {
            "a": np.array([1.0, 2.0, 3.0]),
            "b": np.array([10.0, 20.0, 30.0]),
        }
        cache = ExprCache(columns, {})
        for text in ("a + b", "a * (1 - b)", "a * (1 - b) * (1 + a)",
                     "ABS(-a)", "a BETWEEN 1 AND 2", "NOT (a > b)",
                     "a + b", "b / a"):
            expr = parse_expression(text)
            expected = evaluate(expr, columns, {})
            got = cache.eval(expr)
            np.testing.assert_array_equal(np.asarray(got),
                                          np.asarray(expected))
        # Shared sub-expressions are computed once and reused.
        first = cache.eval(parse_expression("a * (1 - b)"))
        second = cache.eval(parse_expression("(a * (1 - b)) + 0"))
        assert first is cache.eval(parse_expression("a * (1 - b)"))
        assert second is not None
