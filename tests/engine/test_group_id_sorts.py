"""Group ids sort only what is not already dense.

An unencoded key column is sorted once per morsel, by its own
``np.unique`` (:meth:`VectorizedGroupTable._encode_values`).  Its
codes, a storage dictionary's codes and a join's build codes lie in a
bounded space the table knows, and their distinct values come from a
mark array (:func:`repro.engine.operators.distinct_codes`), not a
sort.
These tests count the sorts, hold the mark array against
``np.unique`` and pin that gids and key columns come out in the order
the two-sort path registered them.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import VectorizedGroupTable, operators
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


def test_an_unencoded_int_key_sorts_once_per_morsel(sorts):
    rng = np.random.default_rng(1)
    batches = [Batch({"k": rng.integers(0, 500, 2000) + 1000 * i,
                      "v": _values(2000)}, {})
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
