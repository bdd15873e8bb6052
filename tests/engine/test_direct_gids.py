"""A single integer GROUP BY key finds its gids by direct address.

:meth:`VectorizedGroupTable._gids_direct` keeps a key -> gid array over
the span of keys it has seen: a morsel's gids are one subtract and one
gather, new keys take the next gids in ascending key order and the
sorted identity index is built only when something needs it (a merge,
a spill restore, a morsel that would push the span past its bound —
then for good).  These tests hold it against the row-order reference
table, which registers every morsel's ``np.unique`` keys through the
index: same gids, same key columns in the key's own dtype, same bits;
and through the engine under a ``workers`` split, a spilling budget, a
materialized view's refreshes and a checkpoint reopen, against the
same statements with the direct table declined.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from reference_table import PartialGroupTable
from repro.engine import Database, VectorizedGroupTable, vectorized
from repro.engine.operators import AggregateSpec, Batch, SumConfig
from repro.engine.sql.parser import parse_expression

SPECS = ("SUM(v)", "COUNT(*)", "MIN(v)")


def _specs():
    return [AggregateSpec(parse_expression(sql), SumConfig("repro"))
            for sql in SPECS]


class _Recording:
    """Keeps the gids every morsel got."""

    def _group_ids(self, batch, cache):
        gids = super()._group_ids(batch, cache)
        self.gids.append(gids)
        return gids

    def _factorize(self, batch):
        gids = super()._factorize(batch)
        self.gids.append(gids)
        return gids


class DirectTable(_Recording, VectorizedGroupTable):
    pass


class IndexTable(_Recording, PartialGroupTable):
    pass


def _pair():
    keys = (parse_expression("k"),)
    direct, index = DirectTable(keys, _specs()), IndexTable(keys, _specs())
    direct.gids, index.gids = [], []
    return direct, index


def _bits(table) -> list:
    keys, results, _ = table.finalize()
    return [(arr.dtype.str, arr.tobytes()) for arr in (*keys, *results)]


DTYPES = ("int8", "int16", "int32", "int64", "uint64")
SIZES = (1, 2, 7, 100, 4096, 65536)


@st.composite
def _statements(draw):
    """``(dtype, morsels)``: key morsels of one integer dtype near its
    extremes or around zero, each morsel shifted down or up from the
    last (the span grows at either end), and perhaps one morsel far
    past the span bound (the table converts to the index there)."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    info = np.iinfo(dtype)
    lo, hi = int(info.min), int(info.max)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = draw(st.sampled_from((lo, hi, 0, -5, 2**63 + 9)))
    centre = min(max(centre, lo), hi)
    nmorsels = draw(st.integers(1, 5))
    far = draw(st.sampled_from((None, *range(nmorsels))))
    morsels = []
    for i in range(nmorsels):
        size = draw(st.sampled_from(SIZES if i == 0 else SIZES[:5]))
        if i == far:
            # a few keys at both ends of the dtype: past any bound
            pool = (lo, hi, centre)
            keys = [pool[j] for j in rng.integers(0, 3, size)]
        else:
            width = draw(st.sampled_from((1, 3, size, 8 * size)))
            shift = draw(st.integers(-2 * width, 2 * width))
            start = min(max(centre + shift, lo), hi - width + 1) \
                if width <= hi - lo else lo
            keys = [min(start + int(offset), hi)
                    for offset in rng.integers(0, width, size)]
        morsels.append(np.array(keys, dtype=dtype))
    return dtype, morsels


@settings(max_examples=120, deadline=None)
@given(_statements())
def test_direct_gids_equal_the_index_path(case):
    dtype, morsels = case
    direct, index = _pair()
    rng = np.random.default_rng(len(morsels))
    for keys in morsels:
        values = rng.standard_normal(len(keys)) * 2.0 ** rng.integers(
            -40, 40, len(keys))
        for table in (direct, index):
            table.update(Batch({"k": keys, "v": values}, {}))
        assert direct.gids[-1].tolist() == index.gids[-1].tolist()
        got, want = direct._key_columns()[0], index._key_columns()[0]
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert direct.ngroups == index.ngroups
    assert _bits(direct) == _bits(index)


def test_a_morsel_past_the_bound_converts_to_the_index():
    direct, index = _pair()
    morsels = [np.arange(100, 200), np.arange(50, 150), [-(2**40), 2**40]]
    for keys in morsels:
        keys = np.array(keys, dtype=np.int64)
        values = np.linspace(-1, 1, len(keys))
        for table in (direct, index):
            table.update(Batch({"k": keys, "v": values}, {}))
        assert direct.gids[-1].tolist() == index.gids[-1].tolist()
    assert direct._direct is None and direct._index is not None
    # the index keeps serving the keys the direct table numbered
    again = np.array([199, 50, 2**40], dtype=np.int64)
    gids = direct._gids_direct(again)
    assert gids is None
    assert direct._register_columns([again]).tolist() == [99, 100, 151]
    assert _bits(direct) == _bits(index)


def test_the_span_grows_at_either_end_within_its_bound():
    table, _ = _pair()
    for keys in ([10, 12], [4, 11], [13, 20]):
        table.update(Batch({"k": np.array(keys, dtype=np.int16),
                            "v": np.ones(len(keys))}, {}))
    assert table._direct_low == 4 and len(table._direct) == 17
    assert table._key_columns()[0].tolist() == [10, 12, 4, 11, 13, 20]
    assert table.approx_bytes() >= table._direct.nbytes


def test_a_wide_first_morsel_takes_the_index():
    table, _ = _pair()
    keys = np.array([0, 1 << 40, 7], dtype=np.int64)
    table.update(Batch({"k": keys, "v": np.ones(3)}, {}))
    assert table._direct is None
    assert table._key_columns()[0].tolist() == [0, 7, 1 << 40]


# ---------------------------------------------------------------------------
# Through the engine: merge, spill, views, reopen
# ---------------------------------------------------------------------------

QUERY = "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k"
#: served from the view when one is fresh
SORTED = QUERY + " ORDER BY k"


@pytest.fixture
def index_only(monkeypatch):
    """``with index_only():`` declines the direct table, so every
    integer key takes the sorted index (a test-only patch)."""
    from contextlib import contextmanager

    @contextmanager
    def patched():
        with monkeypatch.context() as patch:
            patch.setattr(VectorizedGroupTable, "_gids_direct",
                          lambda self, arr: None)
            yield

    return patched


def _rows(n: int, seed: int):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-3000, 3000, n)
    values = rng.standard_normal(n) * 2.0 ** rng.integers(-30, 30, n)
    return {"k": keys.astype(np.int64), "v": values}


def _bits_of(result):
    return [np.asarray(arr).tobytes() for arr in result.arrays]


def _db(*batches, **knobs):
    db = Database(sum_mode="repro", **knobs)
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    for rows in batches or (_rows(20_000, 3),):
        db.table("t").insert_columns(rows)
    return db


def _extra():
    rows = _rows(3000, 4)
    rows["k"] = rows["k"] * 3  # new keys below and above the span
    return rows


@pytest.mark.parametrize("knobs", (
    {"workers": 2, "morsel_size": 1024},
    {"memory_budget": 1, "morsel_size": 2048},
    {"morsel_size": 64},
), ids=("workers2", "spill", "morsel64"))
def test_engine_bits_equal_the_index_path(knobs, index_only):
    expected = _bits_of(_db().execute(QUERY))
    db = _db(**knobs)
    assert _bits_of(db.execute(QUERY)) == expected
    with index_only():
        assert _bits_of(_db(**knobs).execute(QUERY)) == expected


def test_an_int_keyed_view_refreshes_to_the_query_bits(index_only):
    db = _db(morsel_size=4096)
    db.execute(f"CREATE MATERIALIZED VIEW mv AS {QUERY}")
    db.table("t").insert_columns(_extra())
    db.execute("REFRESH MATERIALIZED VIEW mv")
    assert "ViewScan(mv" in db.explain(SORTED)
    view = _bits_of(db.execute(SORTED))
    both = (_rows(20_000, 3), _extra())
    assert view == _bits_of(_db(*both).execute(SORTED))
    with index_only():
        assert view == _bits_of(_db(*both).execute(SORTED))


def test_a_reopened_view_serves_the_same_bits(tmp_path):
    path = tmp_path / "db"
    db = repro.open(path, checkpoint_interval=None, sum_mode="repro")
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    db.table("t").insert_columns(_rows(5000, 5))
    db.execute(f"CREATE MATERIALIZED VIEW mv AS {QUERY}")
    db.checkpoint()
    db.table("t").insert_columns(_rows(500, 6))
    db.execute("REFRESH MATERIALIZED VIEW mv")
    before = _bits_of(db.execute(SORTED))
    db.close()
    with repro.open(path, checkpoint_interval=None, sum_mode="repro") as db:
        assert _bits_of(db.execute(SORTED)) \
            == before
        db.table("t").insert_columns(_rows(500, 7))
        db.execute("REFRESH MATERIALIZED VIEW mv")
        after = _bits_of(db.execute(SORTED))
    fresh = _db(*(_rows(n, seed) for n, seed in ((5000, 5), (500, 6),
                                                  (500, 7))))
    assert after == _bits_of(fresh.execute(SORTED))


def test_the_lut_bound_is_the_direct_tables_too(monkeypatch):
    monkeypatch.setattr(vectorized, "_LUT_MAX", 64)
    table, _ = _pair()
    table.update(Batch({"k": np.arange(60), "v": np.ones(60)}, {}))
    assert table._direct is not None
    table.update(Batch({"k": np.arange(60, 80), "v": np.ones(20)}, {}))
    assert table._direct is None and table.ngroups == 80
