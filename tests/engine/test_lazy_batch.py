"""Late materialization against the eager reference, and the build-row
group-id rule end to end.

Random chains of filter / inner probe / filter / probe over seeded
tables — duplicate keys on both sides, NaN / -0.0 / string / None keys,
empty morsels, all-false and all-true masks, a column name bound on
both sides — must read, column for column, what
:mod:`reference_batch` (plain dicts, every column copied at every step,
a nested-loop join) holds; the hidden build-row column must compose
through later filters and probes and never show among the columns; and
a column nobody reads must never be gathered — asserted on the batch's
sources (the base is still the table's own array), not on time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_batch import BUILD_ROW_COLUMN, eager_filter, eager_probe

from repro.engine import Database, HashJoin
from repro.engine.operators import BUILD_ROW, Batch, factorize_object
from repro.engine.pipeline import apply_where
from repro.engine.sql import parse_expression

FLOAT_KEYS = np.array([np.nan, -0.0, 0.0, 1.5, 2.0])
STRING_KEYS = np.array(["a", "b", "", None], dtype=object)
KEY_KINDS = ("ki", "kf", "ks")


def _table(rng, nrows, prefix, payload):
    """Seeded columns ``<prefix>ki / kf / ks`` (duplicates guaranteed by
    the small key domains) plus the ``payload`` columns."""
    columns = {
        f"{prefix}ki": rng.integers(0, 4, nrows),
        f"{prefix}kf": FLOAT_KEYS[rng.integers(0, len(FLOAT_KEYS), nrows)],
        f"{prefix}ks": STRING_KEYS[rng.integers(0, len(STRING_KEYS), nrows)],
    }
    for name, kind in payload:
        columns[name] = (
            rng.normal(size=nrows) if kind == "f" else
            rng.integers(-9, 9, nrows) if kind == "i" else
            np.array(["p", "q", None], dtype=object)[rng.integers(0, 3, nrows)]
        )
    return columns


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if got.dtype == object:
        return got.tolist() == want.tolist()
    return got.tobytes() == want.tobytes()


steps = st.lists(
    st.one_of(
        st.tuples(st.just("filter"),
                  st.sampled_from(["all", "none", "random", "v > 0", "x < 0"]),
                  st.integers(0, 1 << 16)),
        st.tuples(st.just("probe"), st.sampled_from(["a_", "b_"]),
                  st.sampled_from(KEY_KINDS)),
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 1 << 16), nrows=st.integers(0, 24),
       build_rows=st.integers(0, 9), chain=steps,
       carry=st.integers(0, 5), reads=st.randoms(use_true_random=False))
def test_every_read_equals_the_eager_reference(seed, nrows, build_rows, chain,
                                               carry, reads):
    rng = np.random.default_rng(seed)
    scan = _table(rng, nrows, "", (("v", "f"), ("x", "f"), ("idle", "f")))
    builds = {
        "a_": _table(rng, build_rows, "a_", (("a_pay", "f"), ("a_tag", "s"))),
        # ``x`` is bound by the scan too: the build side wins after it
        "b_": _table(rng, build_rows, "b_", (("x", "f"), ("b_pay", "i"))),
    }
    codes, uniques = factorize_object(scan["ks"])
    lazy = Batch(dict(scan), {}, {"ks": (codes, uniques)})
    eager = dict(scan)
    #: names never read before the end, and the array each must still
    #: be sitting on (nobody asked, so nobody gathered)
    idle = {"idle": scan["idle"]}
    carried = None  # build-key column of the probe carrying its rows

    probes = [i for i, step in enumerate(chain) if step[0] == "probe"]
    carrier = probes[carry % len(probes)] if probes else None
    for i, step in enumerate(chain):
        if step[0] == "filter":
            _, kind, mask_seed = step
            if kind in ("v > 0", "x < 0"):
                where = parse_expression(kind)
                column, op = kind.split()[0], kind.split()[1]
                mask = eager[column] > 0 if op == ">" else eager[column] < 0
                lazy = apply_where(lazy, where)
            else:
                n = lazy.nrows
                mask = {
                    "all": np.ones(n, dtype=bool),
                    "none": np.zeros(n, dtype=bool),
                    "random": np.random.default_rng(mask_seed).random(n) < 0.6,
                }[kind]
                lazy = lazy.filter(mask)
            eager = eager_filter(eager, mask)
        else:
            _, prefix, key = step
            build = builds[prefix]
            join = HashJoin(
                Batch(dict(build), {}),
                (parse_expression(prefix + key),), (parse_expression(key),),
            )
            group_keys = None
            if i == carrier:
                group_keys = (("col", prefix + "ki", np.dtype(np.int64), None),)
                carried = build[prefix + "ki"]
            lazy = join.probe(lazy, group_keys)
            eager = eager_probe(eager, build, key, prefix + key,
                                carry_build_rows=i == carrier)
            if prefix == "a_":
                idle["a_tag"] = build["a_tag"]
        assert lazy.nrows == len(eager["ki"])
        # read a few columns mid-chain: later selections must compose
        # onto gathered and ungathered sources alike
        for name in reads.sample(sorted(set(eager) - set(idle)
                                        - {BUILD_ROW_COLUMN}), 2):
            assert _same(lazy.columns[name], eager[name]), (name, step)

    for name, base in idle.items():
        assert lazy.columns.sources[name][0] is base, name
    visible = [name for name in eager if name != BUILD_ROW_COLUMN]
    assert list(lazy.columns) == visible
    assert BUILD_ROW not in lazy.columns
    for name, arr in lazy.columns.items():  # what SELECT * iterates
        assert _same(arr, eager[name]), name
    # the storage dictionary of the scan's string key rides along
    ks_codes, ks_uniques = lazy.encoding("ks")
    assert _same(ks_uniques[ks_codes], eager["ks"])
    if carried is None:
        assert lazy.encoding(BUILD_ROW) is None
    else:
        rows, keys = lazy.encoding(BUILD_ROW)
        assert _same(rows, eager[BUILD_ROW_COLUMN])
        assert len(keys.row_code) == len(carried)
        (decoded,) = keys.decode()
        assert _same(decoded[rows], carried[eager[BUILD_ROW_COLUMN]])


# ---------------------------------------------------------------------------
# The build-row rule: which plans take it (EXPLAIN), and that no plan's
# bits depend on it
# ---------------------------------------------------------------------------

RULE = "group_ids=build_row("


def _bits(result):
    return [
        repr(arr.tolist()).encode() if arr.dtype == object else arr.tobytes()
        for arr in map(np.asarray, result.arrays)
    ]


def _star_schema(**knobs):
    rng = np.random.default_rng(41)
    n, orders, customers = 5_000, 400, 40
    db = Database(sum_mode="repro", **knobs)
    db.execute("CREATE TABLE item (ok INT, fk DOUBLE, p DOUBLE, sd INT)")
    ok = rng.integers(0, orders + 20, n)
    db.table("item").bulk_load({
        "ok": ok, "fk": np.where(ok % 7 == 0, -0.0, ok.astype(np.float64)),
        "p": rng.uniform(1.0, 1e5, n).round(2), "sd": rng.integers(0, 100, n),
    })
    db.execute("CREATE TABLE ord (ok INT, fk DOUBLE, ck INT, od INT, "
               "price DECIMAL(9, 2))")
    db.table("ord").bulk_load({
        "ok": np.arange(orders), "fk": np.arange(orders, dtype=np.float64),
        "ck": rng.integers(0, customers, orders),
        "od": rng.integers(0, 50, orders),
        "price": rng.integers(0, 5, orders) * 25,
    })
    db.execute("CREATE TABLE cust (ck INT, seg VARCHAR(10))")
    db.table("cust").bulk_load({
        "ck": np.arange(customers),
        "seg": np.array(["BUILDING", "MACHINERY"], dtype=object)[
            rng.integers(0, 2, customers)],
    })
    return db


SHAPES = {
    # an integer probe key + columns of the same probe's build row
    # (a DECIMAL one: registered rescaled, like the evaluated column)
    "probe_key_and_build_columns": (True, (
        "SELECT item.ok, od, price, SUM(p) AS s, COUNT(*) AS c "
        "FROM item JOIN ord ON item.ok = ord.ok WHERE sd > 30 "
        "GROUP BY item.ok, od, price")),
    # two probes, every key from the FIRST one's build side: the later
    # probe (and the filter after it) only re-select the hidden column
    "two_probes_first_decides": (True, (
        "SELECT od, ord.ck, SUM(p) AS s FROM item "
        "JOIN ord ON item.ok = ord.ok JOIN cust ON ord.ck = cust.ck "
        "WHERE seg = 'BUILDING' AND sd > 10 GROUP BY od, ord.ck")),
    # DOUBLE probe keys: -0.0 on the probe side matches 0.0 on the
    # build side, and the generic path registers the probe's bits
    "double_probe_key": (False, (
        "SELECT item.fk, SUM(p) AS s, MIN(p) AS lo FROM item "
        "JOIN ord ON item.fk = ord.fk GROUP BY item.fk")),
    "left_join": (False, (
        "SELECT od, SUM(p) AS s FROM item LEFT JOIN ord "
        "ON item.ok = ord.ok GROUP BY od")),
    # the LEFT join sits INSIDE the build side (item streams, every
    # top-level probe is inner): od / price reach the build row already
    # null-filled — float64, NaN for customers 37..39, price descaled —
    # not as the INT / DECIMAL the schema declares
    "left_join_inside_build": (False, (
        "SELECT od, price, SUM(p) AS s, COUNT(*) AS c FROM cust "
        "LEFT JOIN ord ON cust.ck * 11 = ord.ok "
        "JOIN item ON cust.ck = item.sd GROUP BY od, price")),
    # keys from two different build rows: no single probe decides
    "keys_from_two_builds": (False, (
        "SELECT od, seg, SUM(p) AS s FROM item "
        "JOIN ord ON item.ok = ord.ok JOIN cust ON ord.ck = cust.ck "
        "GROUP BY od, seg")),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_build_row_rule_shows_in_explain_and_never_in_bits(
        shape, engine_path, build_side):
    takes_rule, query = SHAPES[shape]
    # by name: the engine reads ``ORDER BY 1`` as a constant, not an ordinal
    query += " ORDER BY " + query.split("GROUP BY ")[1]
    with engine_path("scalar"), _star_schema() as db:
        expected = _bits(db.execute(query))
    for knobs, build in (({}, None), ({"morsel_size": 257}, None),
                         ({}, "left"), ({}, "right"),
                         ({"memory_budget": 1}, None),
                         ({"workers": 2}, None)):
        with build_side(build), _star_schema(**knobs) as db:
            plan = db.explain(query)
            if not knobs and build is None:
                assert (RULE in plan) is takes_rule, plan
            if "memory_budget" in knobs:
                assert RULE not in plan  # external keeps the generic keys
            assert _bits(db.execute(query)) == expected, (shape, knobs,
                                                          build)


@pytest.mark.parametrize("build", [None, "left"])
def test_left_join_inside_a_build_side_declines_the_rule(build, build_side):
    """The shape ``left_join_inside_build`` is there for: the streamed
    chain is inner probes only, the LEFT probe is one level down."""
    _, query = SHAPES["left_join_inside_build"]
    with build_side(build), _star_schema() as db:
        plan = db.explain(query)
    physical = plan[plan.index("== physical plan =="):]
    streamed, nested = physical.split("[build side]", 1)
    assert "HashJoinProbe(inner" in streamed
    assert "HashJoinProbe(left" not in streamed
    assert "HashJoinProbe(left" in nested
    assert RULE not in plan


def test_digest_join_edge_query_keeps_the_generic_key_path():
    """``join_edge_fused`` (a pinned id) has adversarial DOUBLE keys:
    it must stay the leg that reads group keys through the lazy probe,
    as ``tpch_q3`` must stay the build-row leg (tests/tpch)."""
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[2] / "scripts"
    spec = importlib.util.spec_from_file_location(
        "digest_for_lazy_batch", path / "repro_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    with Database(sum_mode="repro") as db:
        digest._load(db, "join_edge")
        assert "HashJoinProbe(inner" in db.explain(digest.JOIN_EDGE_FUSED_QUERY)
        assert RULE not in db.explain(digest.JOIN_EDGE_FUSED_QUERY)
