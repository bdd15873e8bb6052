"""Groups named by a join's build rows: same bits and keys as the key
registry, factorised once per build.

When the planner's build-row rule holds (``group_ids=build_row(...)``
in EXPLAIN), the hash join factorises the group keys of its build rows
once (:class:`~repro.engine.join.BuildRowKeys`) and the group table
names each group by that key code, materialising key values only at
finalize.  This file holds that path against the two it replaced — the
row-order reference table and the key registry (the rule switched off)
— on keys built to collide: two build rows holding one key tuple, NaN
payloads, ``-0.0`` beside ``0.0``, NULL and empty strings, and a key
taken from the probe key.  It also pins the path's traffic (no key
tuple is registered, a cached join is not factorised twice) and the
unique-build expansion of :meth:`HashJoin.expand_inner`.
"""

import numpy as np
import pytest

from repro.engine import Database, physical
from repro.engine.join import HashJoin
from repro.engine.operators import AggregateSpec, Batch, SumConfig
from repro.engine.sql import parse_expression
from repro.engine.vectorized import VectorizedGroupTable
from repro.storage.spill import dump_table, load_table_into
from repro.tpch import Q3_SQL, load_tpch

RULE = "group_ids=build_row("

#: a NaN whose payload is not the canonical one: still the one NaN group
ODD_NAN = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]


def _bits(result):
    return [
        repr(arr.tolist()).encode() if arr.dtype == object
        else arr.dtype.str.encode() + arr.tobytes()
        for arr in map(np.asarray, result.arrays)
    ]


def _dim_columns(rng, keys):
    n = len(keys)
    return {
        "ok": keys,
        "x": rng.choice([np.nan, ODD_NAN, -0.0, 0.0, 1.5, -2.25], n),
        "tag": np.array(["a", "b", "", None], dtype=object)[
            rng.integers(0, 4, n)],
        "g": rng.integers(0, 5, n),
    }


def _schema(duplicate_keys=False, **knobs):
    """``fact`` probes ``dim`` on an INT key; ``dim``'s group columns
    repeat across build rows.  ``duplicate_keys`` gives some join keys
    two build rows (no unique-build expansion)."""
    rng = np.random.default_rng(5)
    db = Database(sum_mode="repro", **knobs)
    db.execute("CREATE TABLE fact (ok INT, v DOUBLE, w INT)")
    n = 3_000
    v = rng.normal(scale=1e8, size=n)
    v[::89] = -0.0
    db.table("fact").bulk_load({
        "ok": rng.integers(0, 320, n), "v": v, "w": rng.integers(0, 9, n),
    })
    db.execute("CREATE TABLE dim (ok INT, x DOUBLE, tag VARCHAR, g INT)")
    keys = np.arange(300)
    if duplicate_keys:
        keys = np.concatenate((keys, keys[::7]))
    db.table("dim").bulk_load(_dim_columns(rng, keys))
    return db


AGGREGATES = ("SUM(v) AS s, COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi, "
              "COUNT(DISTINCT w) AS d")
QUERIES = {
    # DOUBLE and VARCHAR keys off the build row: NaN payloads, signed
    # zeros, NULL and '' collide across build rows
    "float_and_string_keys": (
        f"SELECT x, tag, {AGGREGATES} FROM fact JOIN dim "
        "ON fact.ok = dim.ok GROUP BY x, tag"),
    # the probe key itself, read back as the build key
    "probe_key": (
        f"SELECT fact.ok, g, {AGGREGATES} FROM fact JOIN dim "
        "ON fact.ok = dim.ok GROUP BY fact.ok, g"),
    # every group is many build rows holding one key tuple
    "shared_key_tuple": (
        f"SELECT g, {AGGREGATES} FROM fact JOIN dim "
        "ON fact.ok = dim.ok WHERE v > -1e8 GROUP BY g"),
}

KNOBS = (
    {}, {"morsel_size": 257}, {"morsel_size": 65536},
    {"join_build": "left"}, {"join_build": "right"},
    {"workers": 2}, {"workers": 2, "morsel_size": 257, "join_build": "right"},
    {"memory_budget": 1},
)


@pytest.mark.parametrize("duplicate_keys", (False, True))
@pytest.mark.parametrize("shape", sorted(QUERIES))
def test_build_row_groups_match_the_registry(shape, duplicate_keys,
                                             engine_path, monkeypatch):
    query = QUERIES[shape]
    with engine_path("scalar"), _schema(duplicate_keys) as db:
        reference = _bits(db.execute(query))
    with monkeypatch.context() as patch:
        patch.setattr(physical, "_build_row_rule", lambda chain, keys: None)
        with _schema(duplicate_keys) as db:
            assert RULE not in db.explain(query)
            registry = _bits(db.execute(query))
    assert registry == reference
    for knobs in KNOBS:
        with _schema(duplicate_keys, **knobs) as db:
            plan = db.explain(query)
            # external plans keep the registry; building on ``fact``
            # puts the group keys on the probe side
            takes_rule = "memory_budget" not in knobs \
                and knobs.get("join_build") != "left"
            assert (RULE in plan) is takes_rule, plan
            assert _bits(db.execute(query)) == reference, knobs


def test_float_keys_come_out_canonical():
    with _schema() as db:
        keys = db.execute(QUERIES["float_and_string_keys"]).arrays[0]
    keys = np.asarray(keys)
    assert not np.signbit(keys[keys == 0.0]).any()
    nans = keys[np.isnan(keys)].view(np.uint64)
    assert len(set(nans.tolist())) == 1
    assert nans[0] == np.array([np.nan]).view(np.uint64)[0]


# ---------------------------------------------------------------------------
# Tables fed directly: merge and dump of build-row groups
# ---------------------------------------------------------------------------

GROUP_KEYS = (("col", "x", np.dtype(np.float64), None),
              ("col", "tag", np.dtype(object), None))


def _join(seed=3):
    rng = np.random.default_rng(seed)
    build = Batch(_dim_columns(rng, np.arange(40) % 30), {})
    return HashJoin(build, (parse_expression("ok"),),
                    (parse_expression("ok"),))


def _morsels(seed, count=3):
    rng = np.random.default_rng(seed)
    return [Batch({"ok": rng.integers(0, 35, 200),
                   "v": rng.normal(size=200)}, {})
            for _ in range(count)]


def _table():
    specs = [AggregateSpec(parse_expression(sql), SumConfig("repro"))
             for sql in ("SUM(v)", "COUNT(*)", "MIN(v)")]
    return VectorizedGroupTable(
        (parse_expression("x"), parse_expression("tag")), specs)


def _fed(join, morsels, rule=GROUP_KEYS):
    table = _table()
    for batch in morsels:
        table.update(join.probe(batch, group_keys=rule))
    return table


def _final_bits(table):
    keys, results, ngroups = table.finalize()
    return ngroups, [repr(a.tolist()) if a.dtype == object else a.tobytes()
                     for a in (*keys, *results)]


@pytest.mark.parametrize("second_join", (False, True))
def test_merge_of_build_row_tables(second_join):
    join = _join()
    left, right = _morsels(1), _morsels(2)
    expected = _fed(join, left + right, rule=None)
    table = _fed(join, left)
    table.merge(_fed(_join() if second_join else join, right))
    assert _final_bits(table) == _final_bits(expected)


def test_restored_table_takes_build_row_morsels():
    join = _join()
    left, right = _morsels(5), _morsels(6)
    expected = _fed(join, left + right, rule=None)
    restored = _table()
    load_table_into(dump_table(_fed(join, left)), restored)
    for batch in right:
        restored.update(join.probe(batch, group_keys=GROUP_KEYS))
    assert _final_bits(restored) == _final_bits(expected)


def test_dump_and_load_of_build_row_table():
    join = _join()
    table = _fed(join, _morsels(4))
    restored = _table()
    load_table_into(dump_table(table), restored)
    assert _final_bits(restored) == _final_bits(table)


# ---------------------------------------------------------------------------
# Traffic: the Q3 shape registers no key tuple and factorises once
# ---------------------------------------------------------------------------

def test_q3_registers_no_key_tuple_and_factorises_once(monkeypatch):
    db = Database(sum_mode="repro")  # every knob at its default
    load_tpch(db, scale_factor=0.01)
    assert RULE in db.explain(Q3_SQL)
    registered = []
    real = VectorizedGroupTable._bulk_register

    def spy(table, keys):
        registered.append(len(keys))
        return real(table, keys)

    monkeypatch.setattr(VectorizedGroupTable, "_bulk_register", spy)
    first = _bits(db.execute(Q3_SQL))
    context = db.execution_context
    joins = list(context._join_cache.values())
    assert sum(join.key_factorisations for join in joins) == 1
    assert _bits(db.execute(Q3_SQL)) == first
    assert db.last_pipeline_stats.join_cache_hits > 0
    assert sum(join.key_factorisations for join in joins) == 1
    assert not registered


# ---------------------------------------------------------------------------
# Unique-build expansion
# ---------------------------------------------------------------------------

def _expansion_join(build_keys):
    build = Batch({"k": np.asarray(build_keys, dtype=np.int64)}, {})
    return HashJoin(build, (parse_expression("k"),),
                    (parse_expression("k"),))


def _general(join, probe_codes):
    """The repeat/cumsum expansion every build takes without the
    unique shortcut."""
    unique = join._unique_build
    join._unique_build = False
    try:
        return join.expand_inner(probe_codes)
    finally:
        join._unique_build = unique


@pytest.mark.parametrize("build_keys, probe_keys, unique", (
    (np.arange(50)[::-1], np.arange(-5, 60) % 53, True),
    ([], np.arange(10), True),
    (np.arange(50), np.arange(100, 140), True),       # every probe misses
    (np.arange(50) % 20, np.arange(-5, 30), False),   # duplicate keys
))
def test_unique_build_expansion_equals_the_general_one(build_keys,
                                                       probe_keys, unique):
    join = _expansion_join(build_keys)
    assert join._unique_build is unique
    codes = join.encode_probe([np.asarray(probe_keys, dtype=np.int64)])
    probe_take, build_take = join.expand_inner(codes)
    general = _general(join, codes)
    assert np.array_equal(probe_take, general[0])
    assert np.array_equal(build_take, general[1])
    assert probe_take.dtype == build_take.dtype == np.int64
    # and both are the nested-loop pairing
    pairs = [(p, b) for p, key in enumerate(probe_keys)
             for b, bkey in enumerate(build_keys) if key == bkey]
    assert list(zip(probe_take.tolist(), build_take.tolist())) == pairs
