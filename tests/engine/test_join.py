"""Hash-join tests: correctness, edge keys, reproducibility sweeps,
HAVING/ORDER BY/LIMIT interaction, and COUNT(DISTINCT)."""

import itertools

import numpy as np
import pytest

from repro.engine import ConfigError, Database, ReproError


def make_db(mode="repro", **knobs):
    db = Database(sum_mode=mode, **knobs)
    db.execute("CREATE TABLE fact (k INT, grp VARCHAR(4), v DOUBLE)")
    db.execute("CREATE TABLE dim (k INT, label VARCHAR(4), f DOUBLE)")
    db.execute(
        "INSERT INTO fact VALUES "
        "(1,'a',1.0),(2,'b',2.0),(2,'b',2.5),(3,'c',3.0),(5,'e',5.0)"
    )
    db.execute(
        "INSERT INTO dim VALUES "
        "(1,'one',10.0),(2,'two',20.0),(2,'dup',21.0),(4,'four',40.0)"
    )
    return db


def result_bits(result):
    out = []
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype.kind == "O":
            out.append(repr(arr.tolist()).encode())
        else:
            out.append(arr.tobytes())
    return tuple(out)


class TestInnerJoin:
    def test_basic_match(self):
        db = make_db()
        res = db.execute(
            "SELECT fact.k, label, v FROM fact, dim "
            "WHERE fact.k = dim.k ORDER BY fact.k, label, v"
        )
        assert res.rows() == [
            (1, "one", 1.0),
            (2, "dup", 2.0),
            (2, "dup", 2.5),
            (2, "two", 2.0),
            (2, "two", 2.5),
        ]

    def test_join_on_syntax_matches_comma(self):
        db = make_db()
        comma = db.execute(
            "SELECT SUM(v * f) FROM fact, dim WHERE fact.k = dim.k"
        ).scalar()
        explicit = db.execute(
            "SELECT SUM(v * f) FROM fact JOIN dim ON fact.k = dim.k"
        ).scalar()
        assert comma == explicit

    def test_one_to_many_multiplicity(self):
        db = make_db()
        count = db.execute(
            "SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k"
        ).scalar()
        assert count == 5  # k=1 x1, k=2: 2 fact rows x 2 dim rows

    def test_multi_key_join(self):
        db = Database()
        db.execute("CREATE TABLE l (x INT, y INT, v DOUBLE)")
        db.execute("CREATE TABLE r (x INT, y INT, w DOUBLE)")
        db.execute(
            "INSERT INTO l VALUES (1,1,1.0),(1,2,2.0),(2,1,3.0)"
        )
        db.execute(
            "INSERT INTO r VALUES (1,1,10.0),(1,2,20.0),(2,2,30.0)"
        )
        res = db.execute(
            "SELECT v, w FROM l, r WHERE l.x = r.x AND l.y = r.y "
            "ORDER BY v"
        )
        assert res.rows() == [(1.0, 10.0), (2.0, 20.0)]

    def test_empty_build_side(self):
        db = make_db()
        db.execute("DELETE FROM dim")
        res = db.execute(
            "SELECT fact.k, f FROM fact, dim WHERE fact.k = dim.k"
        )
        assert len(res) == 0
        assert db.execute(
            "SELECT COUNT(*) FROM fact, dim WHERE fact.k = dim.k"
        ).scalar() == 0

    def test_residual_predicate_applies_post_join(self):
        db = make_db()
        res = db.execute(
            "SELECT COUNT(*) FROM fact, dim "
            "WHERE fact.k = dim.k AND v * 10 < f"
        )
        # (1,'one'): 1.0*10 < 10 false; k=2 pairs: 20<20 F, 20<21 T,
        # 25<20 F, 25<21 F -> only (2.0,'dup')
        assert res.scalar() == 1

    def test_expression_join_key(self):
        db = make_db()
        res = db.execute(
            "SELECT COUNT(*) FROM fact, dim WHERE fact.k + 1 = dim.k + 1"
        )
        assert res.scalar() == 5

    def test_cross_join_unsupported(self):
        db = make_db()
        with pytest.raises(NotImplementedError):
            db.execute("SELECT COUNT(*) FROM fact, dim")

    def test_float_probe_outside_int64_range_never_matches(
            self, build_side):
        """A float probe key beyond the int64 range must not wrap into
        a spurious match against an integer build key — and the result
        must not depend on the build side."""
        sql = "SELECT fl.k, tag FROM fl, big WHERE fl.k = big.k"
        rows = {}
        for build in ("left", "right"):
            db = Database()
            db.execute("CREATE TABLE big (k BIGINT, tag DOUBLE)")
            db.execute("CREATE TABLE fl (k DOUBLE)")
            db.table("big").bulk_load({"k": [-(2 ** 63)], "tag": [1.0]})
            db.table("fl").bulk_load({"k": [1e30, float(-(2 ** 63))]})
            with build_side(build):
                assert f"build={build}" in db.explain(sql)
                rows[build] = db.execute(sql).rows()
        assert rows["left"] == rows["right"]
        assert rows["left"] == [(float(-(2 ** 63)), 1.0)]

    def test_composite_code_overflow_refused(self, monkeypatch):
        """Multi-key dictionary spaces that would overflow the int64
        radix codes must error loudly, never match wrong rows."""
        from repro.engine import join as join_mod

        monkeypatch.setattr(join_mod, "_RADIX_MAX", 4)
        db = make_db()
        with pytest.raises(NotImplementedError, match="dictionary space"):
            db.execute(
                "SELECT COUNT(*) FROM fact, dim "
                "WHERE fact.k = dim.k AND fact.grp = dim.label"
            )

    def test_three_way_join(self):
        db = make_db()
        db.execute("CREATE TABLE extra (label VARCHAR(4), boost DOUBLE)")
        db.execute(
            "INSERT INTO extra VALUES ('one', 2.0), ('two', 3.0)"
        )
        res = db.execute(
            "SELECT SUM(v * boost) FROM fact, dim, extra "
            "WHERE fact.k = dim.k AND dim.label = extra.label"
        )
        # (1,one,2.0): 1.0*2 + (2,two,3.0): (2.0+2.5)*3
        assert res.scalar() == pytest.approx(2.0 + 13.5)


class TestLeftJoin:
    def test_unmatched_rows_survive_null_filled(self):
        db = make_db()
        res = db.execute(
            "SELECT fact.k, v, f FROM fact LEFT JOIN dim "
            "ON fact.k = dim.k ORDER BY fact.k, v, f"
        )
        rows = res.rows()
        # k=3 and k=5 have no dim match: f is NaN.
        unmatched = [r for r in rows if r[0] in (3, 5)]
        assert len(unmatched) == 2
        assert all(np.isnan(r[2]) for r in unmatched)
        matched = [r for r in rows if r[0] == 1]
        assert matched == [(1, 1.0, 10.0)]

    def test_object_columns_fill_none(self):
        db = make_db()
        res = db.execute(
            "SELECT fact.k, label FROM fact LEFT JOIN dim "
            "ON fact.k = dim.k ORDER BY fact.k"
        )
        labels = dict(
            (k, label) for k, label in res.rows() if k in (3, 5)
        )
        assert labels == {3: None, 5: None}

    def test_int_build_columns_promote(self):
        db = make_db()
        res = db.execute(
            "SELECT fact.k, dim.k FROM fact LEFT JOIN dim "
            "ON fact.k = dim.k ORDER BY fact.k"
        )
        build_k = res.column("dim.k")
        assert build_k.dtype == np.float64
        assert np.isnan(build_k[-1])  # k=5 unmatched

    def test_group_by_nullable_string_key(self, engine_path):
        """Grouping by a null-introduced (None-bearing) string column
        must work on the query table and the scalar reference alike
        and stay split-invariant."""
        reference = None
        for workers, morsel, path in itertools.product(
            (1, 2), (1, 64), (None, "scalar")
        ):
            with engine_path(path):
                db = make_db(workers=workers, morsel_size=morsel)
                rows = db.execute(
                    "SELECT label, SUM(v) FROM fact LEFT JOIN dim "
                    "ON fact.k = dim.k GROUP BY label ORDER BY SUM(v)"
                ).rows()
            if reference is None:
                reference = rows
                assert any(label is None for label, _ in rows)
            assert rows == reference

    def test_count_preserves_left_rows(self):
        db = make_db()
        assert db.execute(
            "SELECT COUNT(*) FROM fact LEFT JOIN dim ON fact.k = dim.k"
        ).scalar() == 7  # 5 matched pairs + 2 preserved

    def test_count_column_counts_sentinels(self):
        """Documented deviation: the engine has no NULL type, so the
        LEFT JOIN's fill sentinels are counted like real values —
        COUNT(col) == COUNT(*) over null-introduced columns."""
        db = make_db()
        assert db.execute(
            "SELECT COUNT(label) FROM fact LEFT JOIN dim "
            "ON fact.k = dim.k"
        ).scalar() == 7


class TestEdgeKeys:
    def setup_db(self, **knobs):
        db = Database(sum_mode="repro", **knobs)
        db.execute("CREATE TABLE jl (k DOUBLE, v DOUBLE)")
        db.execute("CREATE TABLE jr (k DOUBLE, w DOUBLE)")
        db.table("jl").bulk_load({
            "k": [float("nan"), -0.0, 1.0, float("inf"), 2.0,
                  float("nan")],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        })
        db.table("jr").bulk_load({
            "k": [float("nan"), 0.0, float("inf"), 3.0],
            "w": [10.0, 20.0, 30.0, 40.0],
        })
        return db

    def test_nan_joins_nan_and_zero_signs_unify(self):
        db = self.setup_db()
        res = db.execute(
            "SELECT SUM(v), SUM(w), COUNT(*) FROM jl, jr "
            "WHERE jl.k = jr.k"
        )
        # matches: NaN x NaN (two left rows), -0.0 x 0.0, inf x inf
        (sv, sw, count), = res.rows()
        assert count == 4
        assert sv == 1.0 + 6.0 + 2.0 + 4.0
        assert sw == 10.0 + 10.0 + 20.0 + 30.0

    def test_edge_keys_bit_stable_across_configs(self, build_side):
        """NaN / -0.0 / inf join keys: the same repro bits built on
        either input, at every worker count and morsel size."""
        sql = (
            "SELECT jl.k, SUM(v), SUM(w) FROM jl, jr "
            "WHERE jl.k = jr.k GROUP BY jl.k ORDER BY jl.k"
        )
        reference = None
        for workers in (1, 2):
            with self.setup_db(workers=workers) as db:
                for morsel, build in itertools.product(
                    (2, 64), ("left", "right")
                ):
                    db.execute(f"SET morsel_size = {morsel}")
                    with build_side(build):
                        assert f"build={build}" in db.explain(sql)
                        bits = result_bits(db.execute(sql))
                    if reference is None:
                        reference = bits
                    assert bits == reference, (workers, morsel, build)


class TestReproducibility:
    QUERY = (
        "SELECT grp, SUM(v * f) AS s, COUNT(*) AS c FROM fact, dim "
        "WHERE fact.k = dim.k GROUP BY grp ORDER BY grp"
    )

    def test_bits_identical_across_all_knobs(self, engine_path,
                                             build_side):
        reference = None
        for workers, path in itertools.product((1, 2), (None, "scalar")):
            # one database per worker count and path, the morsel size
            # SET in place, the build side picked per statement
            with engine_path(path), make_db("repro", workers=workers) as db:
                for morsel, build in itertools.product(
                    (2, 64), (None, "left", "right")
                ):
                    db.execute(f"SET morsel_size = {morsel}")
                    with build_side(build):
                        bits = result_bits(db.execute(self.QUERY))
                    if reference is None:
                        reference = bits
                    assert bits == reference, (workers, morsel, build, path)

    def test_build_side_knob_is_retired(self):
        """The planner alone picks the build side: the retired knob is
        refused at every entry point, ``SET`` naming the retirement."""
        db = make_db()
        with pytest.raises(ConfigError, match="retired"):
            db.execute("SET join_build = left")
        with pytest.raises(ReproError, match="unknown session option"):
            db.session(join_build="left")
        with pytest.raises(ReproError, match="unknown session option"):
            db.set_default("join_build", "left")
        with pytest.raises(TypeError):
            Database(join_build="left")
        assert not hasattr(db.execution_context, "join_build")


class TestFinishingStagesWithJoins:
    def test_having_filters_join_groups(self):
        db = make_db()
        res = db.execute(
            "SELECT grp, SUM(v * f) AS s FROM fact, dim "
            "WHERE fact.k = dim.k GROUP BY grp "
            "HAVING SUM(v * f) > 50 ORDER BY grp"
        )
        # groups: a -> 10.0; b -> 2*20+2*21+2.5*20+2.5*21 = 184.5
        assert [r[0] for r in res.rows()] == ["b"]

    def test_order_by_aggregate_desc_with_limit(self):
        db = make_db()
        res = db.execute(
            "SELECT grp, SUM(v * f) AS s FROM fact, dim "
            "WHERE fact.k = dim.k GROUP BY grp ORDER BY s DESC LIMIT 1"
        )
        assert res.rows()[0][0] == "b"

    def test_order_by_nan_keys_deterministic(self):
        """NaN sort keys land last, ascending or descending, for every
        execution configuration."""
        for workers, morsel in itertools.product((1, 2), (2, 64)):
            with Database(
                sum_mode="repro", workers=workers, morsel_size=morsel
            ) as db:
                db.execute("CREATE TABLE s (k DOUBLE, v DOUBLE)")
                db.table("s").bulk_load({
                    "k": [float("nan"), 1.0, -0.0, 0.0, 2.0],
                    "v": [1.0, 2.0, 3.0, 4.0, 5.0],
                })
                asc = db.execute(
                    "SELECT k, SUM(v) FROM s GROUP BY k ORDER BY k"
                )
                keys = asc.column("k")
                assert np.isnan(keys[-1])
                assert keys[:-1].tolist() == [0.0, 1.0, 2.0]
                desc = db.execute(
                    "SELECT k, SUM(v) FROM s GROUP BY k ORDER BY k DESC"
                )
                assert np.isnan(desc.column("k")[-1])

    def test_negative_zero_sort_key_groups_once(self):
        db = Database(sum_mode="repro")
        db.execute("CREATE TABLE s (k DOUBLE, v DOUBLE)")
        db.table("s").bulk_load({
            "k": [-0.0, 0.0, -0.0], "v": [1.0, 2.0, 4.0],
        })
        res = db.execute("SELECT k, SUM(v) FROM s GROUP BY k ORDER BY k")
        assert res.rows() == [(0.0, 7.0)]

    def test_limit_zero_with_join(self):
        db = make_db()
        res = db.execute(
            "SELECT v FROM fact, dim WHERE fact.k = dim.k LIMIT 0"
        )
        assert len(res) == 0


class TestCountDistinct:
    def test_basic(self):
        db = make_db()
        assert db.execute(
            "SELECT COUNT(DISTINCT k) FROM fact"
        ).scalar() == 4

    def test_grouped(self):
        db = make_db()
        res = db.execute(
            "SELECT grp, COUNT(DISTINCT v), COUNT(*) FROM fact "
            "GROUP BY grp ORDER BY grp"
        )
        assert res.rows() == [
            ("a", 1, 1), ("b", 2, 2), ("c", 1, 1), ("e", 1, 1),
        ]

    def test_distinct_with_join(self):
        db = make_db()
        assert db.execute(
            "SELECT COUNT(DISTINCT fact.k) FROM fact, dim "
            "WHERE fact.k = dim.k"
        ).scalar() == 2

    def test_canonical_float_identity(self):
        db = Database()
        db.execute("CREATE TABLE s (v DOUBLE)")
        db.table("s").bulk_load({
            "v": [0.0, -0.0, float("nan"), float("nan"), 1.0],
        })
        assert db.execute("SELECT COUNT(DISTINCT v) FROM s").scalar() == 3

    def test_split_invariant(self):
        reference = None
        for workers, morsel in itertools.product((1, 2), (1, 64)):
            with make_db(workers=workers, morsel_size=morsel) as db:
                value = db.execute(
                    "SELECT grp, COUNT(DISTINCT v) FROM fact "
                    "GROUP BY grp ORDER BY grp"
                ).rows()
            if reference is None:
                reference = value
            assert value == reference

    def test_unsupported_distinct_forms_raise(self):
        db = make_db()
        for sql in (
            "SELECT SUM(DISTINCT v) FROM fact",
            "SELECT AVG(DISTINCT v) FROM fact",
            "SELECT COUNT(DISTINCT *) FROM fact",
        ):
            with pytest.raises(NotImplementedError):
                db.execute(sql)

    def test_scalar_distinct_rejected(self):
        db = make_db()
        with pytest.raises(ValueError):
            db.execute("SELECT ABS(DISTINCT v) FROM fact")
