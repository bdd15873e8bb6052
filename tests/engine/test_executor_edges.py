"""Edge-path tests for the executor, operators, and result objects."""

import numpy as np
import pytest

from repro.engine import Database, QueryResult, SumConfig
from order_by_cases import check_desc_integer_keys
from reference_table import grouped_float_sum
from repro.engine.operators import Batch
from repro.errors import BindError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (k INT, s VARCHAR(5), v DOUBLE)")
    database.execute(
        "INSERT INTO t VALUES (2,'b',1.0),(1,'a',2.0),(3,'c',3.0),(1,'a',4.0)"
    )
    return database


class TestQueryResult:
    def test_column_lookup(self, db):
        res = db.execute("SELECT k, v FROM t")
        assert res.column("v").tolist() == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(KeyError):
            res.column("nope")

    def test_empty_result(self, db):
        res = db.execute("SELECT k FROM t WHERE v > 100")
        assert len(res) == 0
        assert res.rows() == []

    def test_repr(self, db):
        assert "rows" in repr(db.execute("SELECT k FROM t"))


class TestOrderByEdges:
    def test_order_by_alias(self, db):
        res = db.execute("SELECT v AS x FROM t ORDER BY x DESC")
        assert res.column("x").tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_order_by_expression_text_match(self, db):
        res = db.execute("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY SUM(v) DESC")
        assert [r[1] for r in res.rows()] == [6.0, 3.0, 1.0]

    def test_order_by_two_keys(self, db):
        res = db.execute("SELECT k, v FROM t ORDER BY k, v DESC")
        assert res.rows() == [(1, 4.0), (1, 2.0), (2, 1.0), (3, 3.0)]

    def test_order_by_string_asc_desc(self, db):
        asc = db.execute("SELECT s FROM t ORDER BY s")
        desc = db.execute("SELECT s FROM t ORDER BY s DESC")
        assert asc.column("s").tolist() == ["a", "a", "b", "c"]
        assert desc.column("s").tolist() == ["c", "b", "a", "a"]

    def test_limit_zero(self, db):
        assert len(db.execute("SELECT k FROM t LIMIT 0")) == 0

    def test_order_by_output_position(self, db):
        """``ORDER BY 1`` is the first output column.  The literal used
        to be evaluated to a scalar that ``np.lexsort`` took for the
        whole key: three groups came back as one 0-d row."""
        res = db.execute("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY 1")
        assert [arr.shape for arr in res.arrays] == [(3,), (3,)]
        assert res.rows() == [(1, 6.0), (2, 1.0), (3, 3.0)]
        res = db.execute("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY 2 DESC")
        assert res.rows() == [(1, 6.0), (3, 3.0), (2, 1.0)]
        res = db.execute("SELECT k, v FROM t ORDER BY 1, 2 DESC")
        assert res.rows() == [(1, 4.0), (1, 2.0), (2, 1.0), (3, 3.0)]
        res = db.execute("SELECT s AS label, v + 1 FROM t ORDER BY 2 DESC")
        assert res.rows() == [("a", 5.0), ("c", 4.0), ("a", 3.0), ("b", 2.0)]
        assert db.execute("SELECT * FROM t ORDER BY 3 DESC").rows()[0] == (
            1, "a", 4.0)
        plan = db.explain("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY 2 DESC")
        assert "Sort(SUM(v) DESC)" in plan

    def test_order_by_desc_integer_keys_are_exact(self):
        """``DESC`` used to sort integers through ``-float64(x)``: past
        2**53 neighbouring BIGINTs collapsed into one key and came back
        in scan order (…994, …992, …993).  The key is ``~x`` now."""
        check_desc_integer_keys(Database().execute)

    @pytest.mark.parametrize("key", ("0", "3", "-1", "1.5", "'k'", "1 + 1"))
    def test_order_by_constant_is_a_bind_error(self, db, key):
        with pytest.raises(BindError, match="ORDER BY"):
            db.execute(f"SELECT k, v FROM t ORDER BY {key}")
        with pytest.raises(BindError, match="ORDER BY"):
            db.explain(f"SELECT k, SUM(v) FROM t GROUP BY k ORDER BY {key}")


class TestGroupingEdges:
    def test_group_by_expression(self, db):
        res = db.execute("SELECT k * 2, SUM(v) FROM t GROUP BY k * 2 ORDER BY k * 2")
        assert [r[0] for r in res.rows()] == [2, 4, 6]

    def test_duplicate_aggregate_computed_once(self, db):
        res = db.execute("SELECT SUM(v), SUM(v) + 1 FROM t")
        assert res.rows() == [(10.0, 11.0)]

    def test_min_max_on_strings(self, db):
        res = db.execute("SELECT MIN(s), MAX(s) FROM t")
        assert res.rows() == [("a", "c")]

    def test_count_of_column(self, db):
        assert db.execute("SELECT COUNT(v) FROM t").scalar() == 4

    def test_avg_with_repro_mode(self):
        db = Database(sum_mode="repro")
        db.execute("CREATE TABLE r (v DOUBLE)")
        db.execute("INSERT INTO r VALUES (1.0), (2.0), (3.0)")
        assert db.execute("SELECT AVG(v) FROM r").scalar() == 2.0

    def test_having_without_group_by(self, db):
        res = db.execute("SELECT SUM(v) FROM t HAVING SUM(v) > 100")
        assert len(res) == 0


class TestGroupedFloatSum:
    def test_all_modes_same_value_different_guarantees(self, rng):
        values = rng.exponential(size=2000)
        gids = rng.integers(0, 5, size=2000)
        results = {
            mode: grouped_float_sum(values, gids, 5, mode)
            for mode in SumConfig.MODES
        }
        for mode, sums in results.items():
            assert np.allclose(sums, results["ieee"], rtol=1e-9), mode

    def test_float32_paths(self, rng):
        values = rng.exponential(size=500).astype(np.float32)
        gids = rng.integers(0, 3, size=500)
        for mode in SumConfig.MODES:
            sums = grouped_float_sum(values, gids, 3, mode)
            assert sums.dtype == np.float32, mode

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            grouped_float_sum(np.ones(3), np.zeros(3, dtype=np.int64), 1, "fast")

    def test_sum_config_validation(self):
        with pytest.raises(ValueError):
            SumConfig("approximate")


class TestBatch:
    def test_ragged_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch({"a": np.ones(2), "b": np.ones(3)}, {})

    def test_filter(self):
        batch = Batch({"a": np.arange(4)}, {})
        filtered = batch.filter(np.array([True, False, True, False]))
        assert filtered.columns["a"].tolist() == [0, 2]
        assert filtered.nrows == 2
