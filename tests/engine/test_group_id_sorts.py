"""Group ids sort only what is not already dense.

An unencoded float or string key column, or an integer one whose
values span many slots per row, is sorted once per morsel, by its own
``np.unique`` (:meth:`VectorizedGroupTable._encode_values`), and its
codes are the morsel's gids into the registry: no second pass.  A
single integer key of a bounded span finds its gids in the table's
direct key -> gid array (:meth:`VectorizedGroupTable._gids_direct`),
with no sort and no lookup in the sorted index.  The codes of a
composite key, a storage dictionary's codes and a join's build codes
lie in a bounded space the table knows, and their distinct values come
from a mark array (:func:`repro.engine.operators.distinct_codes`), not
a sort.  These tests count the sorts, hold the mark array and the
integer encoding against ``np.unique`` and pin that gids and key
columns come out in the order the two-sort path registered them.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import VectorizedGroupTable, operators, vectorized
from repro.engine.expr import ExprCache
from repro.engine.join import HashJoin
from repro.engine.operators import AggregateSpec, Batch, SumConfig
from repro.engine.sql.parser import parse_expression

MORSELS = 3


def _table(*keys: str) -> VectorizedGroupTable:
    specs = [AggregateSpec(parse_expression(sql), SumConfig("repro"))
             for sql in ("SUM(v)", "COUNT(*)")]
    return VectorizedGroupTable(
        tuple(parse_expression(key) for key in keys), specs)


@pytest.fixture
def sorts(monkeypatch):
    """Counts ``np.unique`` calls while ``sorts.counting`` is set."""
    real = np.unique

    class Spy:
        counting = False
        calls = 0

        def __call__(self, *args, **kwargs):
            if self.counting:
                self.calls += 1
            return real(*args, **kwargs)

    spy = Spy()
    monkeypatch.setattr(np, "unique", spy)
    return spy


def _per_morsel(sorts, table, batches) -> list[int]:
    counts = []
    for batch in batches:
        sorts.calls, sorts.counting = 0, True
        try:
            table.update(batch)
        finally:
            sorts.counting = False
        counts.append(sorts.calls)
    return counts


def _values(n: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, n)


@pytest.fixture
def lookups(monkeypatch):
    """Counts ``np.searchsorted`` and ``np.insert`` calls — the sorted
    index's lookup and growth — while ``lookups.counting`` is set."""
    class Spy:
        counting = False
        calls = 0

    spy = Spy()
    for name in ("searchsorted", "insert"):
        real = getattr(np, name)

        def counted(*args, _real=real, **kwargs):
            if spy.counting:
                spy.calls += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    return spy


def test_the_pairs_shape_takes_gids_by_one_gather(sorts, lookups):
    # the paper's pairs input: 2**18 rows into 2**15 integer keys, four
    # default morsels, new keys arriving in every one
    rng = np.random.default_rng(48)
    keys = rng.integers(0, 1 << 15, 1 << 18)
    batches = [Batch({"k": keys[i:i + (1 << 16)],
                      "v": _values(1 << 16)}, {})
               for i in range(0, 1 << 18, 1 << 16)]
    table = _table("k")
    lookups.counting = True
    try:
        assert _per_morsel(sorts, table, batches) == [0] * 4
    finally:
        lookups.counting = False
    assert lookups.calls == 0
    assert table._direct is not None and table._index is None
    assert table.ngroups == len(np.unique(keys))


def test_a_bounded_int_key_takes_gids_without_sorting(sorts):
    rng = np.random.default_rng(1)
    batches = [Batch({"k": rng.integers(0, 500, 2000) + 1000 * i,
                      "v": _values(2000)}, {})
               for i in range(MORSELS)]
    table = _table("k")
    assert _per_morsel(sorts, table, batches) == [0] * MORSELS
    assert table.ngroups > 2 * 500


@pytest.mark.parametrize("keys", (
    # 2000 rows spanning 2**40 values: past the mark array's bound
    lambda rng, i: rng.integers(0, 1 << 40, 2000) + i,
    lambda rng, i: rng.integers(0, 500, 2000) / 7.0 + 1000 * i,
), ids=("wide_int", "double"))
def test_a_wide_int_or_double_key_sorts_once_per_morsel(sorts, keys):
    rng = np.random.default_rng(2)
    batches = [Batch({"k": keys(rng, i), "v": _values(2000)}, {})
               for i in range(MORSELS)]
    table = _table("k")
    assert _per_morsel(sorts, table, batches) == [1] * MORSELS
    assert table.ngroups > 2 * 500


def test_a_dictionary_key_fills_its_table_without_sorting(sorts):
    uniques = np.array([f"tag{i:03d}" for i in range(300)], dtype=object)
    # every morsel brings codes the code -> gid table has not seen
    batches = [Batch({"v": _values(1000)}, {},
                     {"k": (np.arange(1000) % 100 + 100 * i, uniques)})
               for i in range(MORSELS)]
    table = _table("k")
    assert _per_morsel(sorts, table, batches) == [0] * MORSELS
    assert table.ngroups == 300


def test_fresh_build_codes_take_gids_without_sorting(sorts):
    rule = (("col", "ok", np.dtype(np.int64), None),)
    build = Batch({"ok": np.arange(600, dtype=np.int64)}, {})
    join = HashJoin(build, (parse_expression("ok"),),
                    (parse_expression("ok"),))
    probes = [join.probe(Batch({"ok": np.arange(1000) % 200 + 200 * i,
                                "v": _values(1000)}, {}), group_keys=rule)
              for i in range(MORSELS)]
    table = _table("ok")
    assert _per_morsel(sorts, table, probes) == [0] * MORSELS
    assert table.ngroups == 600


# ---------------------------------------------------------------------------
# The mark array against np.unique
# ---------------------------------------------------------------------------

@st.composite
def _code_arrays(draw):
    """``(codes, total)`` with every code in ``[0, total)``."""
    shape = draw(st.sampled_from(
        ("empty", "one", "top", "cover", "sparse", "any")))
    if shape == "sparse":  # a large space, few codes
        total = draw(st.integers(1 << 16, 1 << 20))
    else:
        total = draw(st.integers(1, 3000))
    if shape == "empty":
        codes = []
    elif shape == "one":
        codes = [draw(st.integers(0, total - 1))] * draw(st.integers(1, 5))
    else:
        codes = draw(st.lists(st.integers(0, total - 1),
                              max_size=40 if shape == "sparse" else 400))
        if shape == "top":
            codes.append(total - 1)
        elif shape == "cover":
            codes += draw(st.permutations(range(total)))
    return np.array(draw(st.permutations(codes)), dtype=np.int64), total


@settings(max_examples=150, deadline=None)
@given(_code_arrays())
def test_distinct_codes_equal_np_unique(case):
    codes, total = case
    expected, inverse = np.unique(codes, return_inverse=True)
    # the size rule picks one way; both must give np.unique's arrays
    for scratch in (None, 0, 1 << 40):
        with mock.patch.object(
                operators, "_SCRATCH_PER_CODE",
                operators._SCRATCH_PER_CODE if scratch is None
                else scratch):
            distinct = operators.distinct_codes(codes, total)
            dense, index = operators.dense_codes(codes, total)
        assert distinct.tolist() == expected.tolist()
        assert dense.tolist() == expected.tolist()
        assert index.dtype == np.int64
        assert index.tolist() == inverse.tolist()


# ---------------------------------------------------------------------------
# Integer keys without a sort, against np.unique
# ---------------------------------------------------------------------------

#: the most values an integer column of n rows may span and still take
#: the mark array
def _span_bound(n: int) -> int:
    return vectorized._INT_SPAN_PER_ROW * n


def _span_edge(dtype, delta: int, n: int = 50) -> np.ndarray:
    """``n`` values of ``dtype`` spanning exactly the bound + ``delta``,
    both ends present, above 2**63 for uint64."""
    span = _span_bound(n) + delta
    low = (1 << 63) + 7 if dtype == np.uint64 else -(span // 3)
    inner = np.random.default_rng(span).integers(0, span, n - 2)
    return np.array([low + span - 1, *(low + int(x) for x in inner), low],
                    dtype=dtype)


INT_CASES = {
    "empty": np.array([], dtype=np.int64),
    "single": np.array([-42], dtype=np.int64),
    "int8_full": np.array([*range(-128, 128)] * 2, dtype=np.int8)[::3],
    # 0 - (-128) wraps in int8
    "int8_ends": np.array([0, 127, -128] + [0] * 37, dtype=np.int8),
    "uint64_above_2_63": np.array(
        [2**63 + 5, 2**63, 2**63 + 5, 2**63 + 2], dtype=np.uint64),
    "uint64_top": np.array([2**64 - 1, 2**64 - 9, 2**64 - 1],
                           dtype=np.uint64),
    "int64_extremes": np.array(
        [np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0, -1],
        dtype=np.int64),
    "uint64_extremes": np.array([0, 2**64 - 1, 2**63], dtype=np.uint64),
    **{f"{np.dtype(dt).name}_span_bound{delta:+d}": _span_edge(dt, delta)
       for dt in (np.int64, np.uint64, np.int32)
       for delta in (-1, 0, 1)},
}

#: cases whose span is past the bound: they must sort
SORTED_CASES = {"int64_extremes", "uint64_extremes",
                *(name for name in INT_CASES if name.endswith("+1"))}


def _assert_like_np_unique(arr, unique=np.unique):
    codes, uniques = VectorizedGroupTable._encode_values(arr)
    expected, inverse = unique(arr, return_inverse=True)
    assert uniques.dtype == arr.dtype
    assert uniques.tobytes() == expected.tobytes()
    assert codes.dtype == np.int64
    assert codes.tolist() == inverse.tolist()


@pytest.mark.parametrize("name", sorted(INT_CASES))
def test_int_encoding_equals_np_unique(sorts, name):
    arr = INT_CASES[name]
    sorts.counting = True
    VectorizedGroupTable._encode_values(arr)
    sorts.counting = False
    assert sorts.calls == (1 if name in SORTED_CASES or not len(arr) else 0)
    _assert_like_np_unique(arr, sorts)


@st.composite
def _int_columns(draw):
    """An integer column of any engine width: values near either end of
    the dtype or anywhere, spans below, at and past the bound."""
    dtype = np.dtype(draw(st.sampled_from(
        ("int8", "int16", "int32", "int64", "uint8", "uint32", "uint64"))))
    info = np.iinfo(dtype)
    n = draw(st.integers(0, 60))
    width = draw(st.sampled_from(
        (1, 2, _span_bound(max(n, 1)), _span_bound(max(n, 1)) + 1,
         int(info.max) - int(info.min) + 1)))
    width = min(width, int(info.max) - int(info.min) + 1)
    low = draw(st.sampled_from(
        (int(info.min), int(info.max) - width + 1,
         draw(st.integers(int(info.min), int(info.max) - width + 1)))))
    values = draw(st.lists(st.integers(low, low + width - 1),
                           min_size=n, max_size=n))
    return np.array(values, dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(_int_columns())
def test_int_encoding_property(arr):
    _assert_like_np_unique(arr)


# ---------------------------------------------------------------------------
# Registration order: what the two-sort path gave
# ---------------------------------------------------------------------------

def _two_sort_gids(table, arr) -> np.ndarray:
    """The path that sorted a single unencoded key twice: encode, then
    ``np.unique`` over the codes, registering the decoded distinct
    codes."""
    codes, uniques = VectorizedGroupTable._encode_values(arr)
    dense, inverse = np.unique(codes, return_inverse=True)
    return table._register_columns([uniques[dense]])[inverse]


def _key_bits(table) -> list:
    return [col.tolist() if col.dtype == object else col.tobytes()
            for col in table._key_columns()]


FLOAT_KEYS = [np.nan, -np.nan,
              np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0],
              -0.0, 0.0, 1.5, -2.25, np.inf, -np.inf, 5e-324, -5e-324]
STRING_KEYS = ["", "a", "b", "ab", "ba", None]


@pytest.mark.parametrize("pool, dtype", (
    (FLOAT_KEYS, np.float64),
    (STRING_KEYS, object),
), ids=("float", "string"))
@pytest.mark.parametrize("seed", range(4))
def test_gids_and_keys_come_out_in_the_two_sort_order(pool, dtype, seed):
    rng = np.random.default_rng(seed)
    table, reference = _table("k"), _table("k")
    for size in (7, 40, 1, 120):
        arr = np.array([pool[i] for i in rng.integers(0, len(pool), size)],
                       dtype=dtype)
        batch = Batch({"k": arr}, {})
        gids = table._group_ids(batch, ExprCache(batch.columns, batch.types))
        assert gids.tolist() == _two_sort_gids(reference, arr).tolist()
        assert _key_bits(table) == _key_bits(reference)
    assert table.ngroups == len(table._key_columns()[0])


@pytest.mark.parametrize("pool, dtype", (
    (FLOAT_KEYS, np.float64),
    (STRING_KEYS, object),
), ids=("float", "string"))
def test_a_one_part_key_takes_its_codes_as_gids(pool, dtype, monkeypatch):
    # _encode_values' codes are dense already: no second dense pass
    calls = []
    real = vectorized.dense_codes

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    rng = np.random.default_rng(7)
    table, reference = _table("k"), _table("k")
    for size in (7, 40, 1, 0, 120):
        arr = np.array([pool[i] for i in rng.integers(0, len(pool), size)],
                       dtype=dtype)
        batch = Batch({"k": arr}, {})
        with monkeypatch.context() as patch:
            patch.setattr(vectorized, "dense_codes", spy)
            gids = table._group_ids(batch,
                                    ExprCache(batch.columns, batch.types))
        assert calls == []
        assert gids.tolist() == _two_sort_gids(reference, arr).tolist()
        assert _key_bits(table) == _key_bits(reference)
