"""Hash-join probes under an aggregate: joins must be invisible in the
bits.

The lazy probe (index composition, no per-column gather) reuses the
join's own key encoders and hash tables, so the only thing allowed to
change is *when* a column is gathered: result bits must be
byte-identical to the scalar reference table (the ``engine_path``
fixture) — across build-side choice, worker counts (executor
processes), morsel sizes, and the IEEE special values (NaN / -0.0) and
NULLs in the join keys.  These keys are adversarial DOUBLEs and strings, so
every query here stays on the generic group-key path; the build-row
rule is pinned in ``test_lazy_batch.py`` and ``tests/tpch``.

The second half pins the operational surface: what EXPLAIN renders,
and the plan and join-build caches.
"""

import itertools

import numpy as np
import pytest

from repro.engine import Database
from repro.errors import ConfigError

JOIN_FLOAT_KEY = (
    "SELECT r.tag, SUM(v) AS sv, COUNT(*) AS c, MIN(v) AS lo, "
    "MAX(v) AS hi FROM t, r WHERE t.k = r.k "
    "GROUP BY r.tag ORDER BY r.tag"
)
JOIN_STRING_KEY = (
    "SELECT t.s, SUM(v) AS sv, SUM(w) AS sw, COUNT(*) AS c "
    "FROM t JOIN r ON t.s = r.s GROUP BY t.s ORDER BY t.s"
)
JOIN_THEN_FILTER = (
    "SELECT r.tag, SUM(v) FROM t, r "
    "WHERE t.k = r.k AND v > -1e300 AND w < 100.0 "
    "GROUP BY r.tag ORDER BY r.tag"
)


def _edge_rows(seed=23, n=900):
    """Probe rows whose keys hit every hash-equality edge: NaN and
    -0.0 float keys, NULL and empty-string object keys."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 8, n).astype(np.float64)
    k[::53] = np.nan
    k[1::71] = -0.0
    k[2::71] = 0.0
    s = np.array(["ant", "bee", "", None], dtype=object)[
        rng.integers(0, 4, n)
    ]
    v = rng.normal(scale=1e6, size=n)
    v[::97] = np.nan
    v[3::131] = np.inf
    v[4::151] = -0.0
    return {"k": k.tolist(), "s": s.tolist(), "v": v.tolist()}


def _build_rows():
    """Build side: one NaN key (never matches), a -0.0 key (matches
    both zeros), a NULL and an empty string key."""
    return {
        "k": [0.0, 1.0, 2.0, 3.0, float("nan"), -0.0],
        "s": ["ant", "bee", "", None, "cow", "ant"],
        "tag": ["z", "a", "b", "c", "n", "zz"],
        "w": [1.5, -2.5, 3.25, 99.0, 7.0, 101.0],
    }


def _result_bits(result):
    pieces = []
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype == object:
            pieces.append("|".join(map(repr, arr.tolist())).encode())
        else:
            pieces.append(arr.dtype.str.encode() + arr.tobytes())
    return tuple(pieces)


def _make_db(sum_mode="repro", **kw):
    db = Database(sum_mode=sum_mode, **kw)
    db.execute(
        "CREATE TABLE t (k DOUBLE, s VARCHAR, v DOUBLE)"
    )
    db.table("t").bulk_load(_edge_rows())
    db.execute(
        "CREATE TABLE r (k DOUBLE, s VARCHAR, tag VARCHAR, w DOUBLE)"
    )
    db.table("r").bulk_load(_build_rows())
    return db


QUERIES = (JOIN_FLOAT_KEY, JOIN_STRING_KEY, JOIN_THEN_FILTER)


class TestJoinBitEquivalence:
    def test_bits_invariant_across_build_side_and_morsel(self, engine_path):
        with engine_path("scalar"), _make_db() as db:
            base = [_result_bits(db.execute(q)) for q in QUERIES]
        for build, morsel in itertools.product(
            ("left", "right"), (1 << 16, 257),
        ):
            with _make_db(join_build=build, morsel_size=morsel) as db:
                got = [_result_bits(db.execute(query)) for query in QUERIES]
                assert got == base, (build, morsel)

    @pytest.mark.parametrize("workers", (2, 3))
    def test_bits_invariant_under_sharded_joins(self, workers):
        with _make_db("repro") as db:
            base = [_result_bits(db.execute(q)) for q in QUERIES]
        with _make_db("repro", workers=workers) as db:
            for query, expect in zip(QUERIES, base):
                assert "ShardedAggregate(" in db.explain(query)
                assert _result_bits(db.execute(query)) == expect, query
                stats = db.last_pipeline_stats
                assert stats.sharded
                assert stats.exchange_bytes > 0

    def test_join_matches_fsum_oracle(self):
        import math

        with _make_db("repro") as db:
            result = db.execute(JOIN_STRING_KEY)
            probe = _edge_rows()
            build = _build_rows()
            expected = {}
            for pk, v in zip(probe["s"], probe["v"]):
                for bk, w in zip(build["s"], build["w"]):
                    # Documented deviation: the engine has no NULL
                    # type, so None is an ordinary key value and
                    # None = None matches (see engine/join.py).
                    if pk == bk:
                        sv, sw, c = expected.setdefault(pk, ([], [], 0))
                        sv.append(v)
                        sw.append(w)
                        expected[pk] = (sv, sw, c + 1)
            rows = result.rows()
            assert [row[0] for row in rows] == sorted(
                expected, key=lambda v: (v is not None, v)
            )
            for key, sv, sw, c in rows:
                vs, ws, count = expected[key]
                assert c == count
                if not math.isnan(sv):
                    assert sv == pytest.approx(math.fsum(vs), rel=1e-12)
                assert sw == pytest.approx(math.fsum(ws), rel=1e-12)


class TestJoinExplain:
    def test_explain_renders_the_join_probe(self):
        with _make_db() as db:
            plan = db.explain(JOIN_THEN_FILTER)
            assert "HashJoinProbe(inner, keys=[" in plan
            assert "Filter((w < 100.0))" not in plan  # pushed to the scan
            assert "fused" not in plan.lower()

    @pytest.mark.parametrize("query, why", (
        ("SELECT t.k, SUM(w) FROM t LEFT JOIN r ON t.k = r.k "
         "GROUP BY t.k", "a LEFT join null-fills after the probe"),
        ("SELECT t.k, COUNT(DISTINCT v) FROM t, r WHERE t.k = r.k "
         "GROUP BY t.k", "a DOUBLE probe key: -0.0 / NaN match other bits"),
    ))
    def test_explain_shows_decline_reason(self, query, why, engine_path):
        # The one per-plan decision left is where group ids come from;
        # these shapes keep the generic key path, and EXPLAIN has no
        # decline taxonomy to show for it — the rule is simply absent.
        with _make_db() as db:
            plan = db.explain(query)
            assert "group_ids=build_row" not in plan, why
            assert "unfused" not in plan
            got = _result_bits(db.execute(query))
        with engine_path("scalar"), _make_db() as db:
            assert got == _result_bits(db.execute(query))


class TestRetiredKernelCacheKnob:
    def test_set_kernel_cache_size_is_an_unknown_name(self):
        # Not a knob: the name is unknown to SET (valid names listed)
        # and the context carries no such attribute.
        with _make_db() as db:
            with pytest.raises(ConfigError, match="kernel_cache_size") as err:
                db.execute("SET kernel_cache_size = 2")
            assert "valid parameters: " in str(err.value)
            assert not hasattr(db.execution_context, "kernel_cache_size")


class TestPlanAndJoinCaches:
    def test_plan_cache_hit_replays_bit_identically(self):
        with _make_db() as db:
            context = db.execution_context
            before = _result_bits(db.execute(JOIN_FLOAT_KEY))
            hits = context.plan_cache_hits
            after = _result_bits(db.execute(JOIN_FLOAT_KEY))
            assert context.plan_cache_hits == hits + 1
            assert after == before

    def test_dml_means_plan_cache_miss_and_fresh_rows(self):
        with _make_db() as db:
            context = db.execution_context
            db.execute(JOIN_FLOAT_KEY)
            hits = context.plan_cache_hits
            db.execute("INSERT INTO r VALUES (4.0, 'dee', 'd', 11.0)")
            after = db.execute(JOIN_FLOAT_KEY)
            assert context.plan_cache_hits == hits  # new snapshot
            assert "d" in [row[0] for row in after.rows()]

    def test_ddl_epoch_guards_same_name_recreate(self):
        with _make_db() as db:
            db.execute("CREATE TABLE g (k VARCHAR, v DOUBLE)")
            db.execute("INSERT INTO g VALUES ('a', 1.0)")
            assert db.execute(
                "SELECT k, SUM(v) FROM g GROUP BY k"
            ).rows() == [("a", 1.0)]
            db.execute("DROP TABLE g")
            db.execute("CREATE TABLE g (k VARCHAR, v DOUBLE)")
            db.execute("INSERT INTO g VALUES ('b', 2.0)")
            assert db.execute(
                "SELECT k, SUM(v) FROM g GROUP BY k"
            ).rows() == [("b", 2.0)]

    def test_set_clears_plan_cache(self):
        with _make_db() as db:
            context = db.execution_context
            db.execute(JOIN_FLOAT_KEY)
            assert len(context._plan_cache) == 1
            db.execute("SET morsel_size = 64")
            assert len(context._plan_cache) == 0

    def test_join_build_cached_across_executions(self):
        with _make_db() as db:
            context = db.execution_context
            db.execute(JOIN_FLOAT_KEY)
            assert db.last_pipeline_stats.join_cache_misses > 0
            # Same snapshot, same build chain: the materialized hash
            # table is reused.  Clear the plan cache so the probe is
            # genuinely re-planned and re-instantiated.
            context._plan_cache.clear()
            db.execute(JOIN_FLOAT_KEY)
            stats = db.last_pipeline_stats
            assert not stats.plan_cache_hit
            assert (stats.join_cache_misses, stats.join_cache_hits) == (0, 1)

    def test_join_cache_never_serves_stale_build(self):
        with _make_db() as db:
            before = db.execute(JOIN_FLOAT_KEY).rows()
            db.execute("INSERT INTO r VALUES (4.0, 'dee', 'd', 11.0)")
            after = db.execute(JOIN_FLOAT_KEY).rows()
            assert after != before
            assert "d" in [row[0] for row in after]
