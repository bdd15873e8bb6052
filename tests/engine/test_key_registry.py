"""The group table's key registry: keys are columns, not Python tuples.

:meth:`VectorizedGroupTable._register_columns` turns key rows into one
int64 identity per column (integers by value, floats by canonical bits,
objects through a per-column dict) and looks them up in one sorted
index.  These tests hold it against a Python-dict reference of the key
identity — one NaN group, ``-0.0`` is ``0.0`` — over every key dtype
the engine groups by, under any morsel split, worker merge and spill
round-trip, and pin that registering keys builds no Python object per
key.
"""

import gc
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.grouped import GroupedSummation
from repro.core.params import RsumParams
from repro.engine import VectorizedGroupTable
from repro.engine.operators import AggregateSpec, Batch, SumConfig
from repro.engine.sql.parser import parse_expression
from repro.storage.spill import dump_table, load_table_into

AGGREGATES = ("SUM(v)", "COUNT(*)")


def _nan32(bits: int) -> float:
    return np.array([bits], dtype=np.uint32).view(np.float32)[0]


def _nan64(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def _int_extremes(dtype) -> list:
    info = np.iinfo(dtype)
    return [int(info.min), int(info.min) + 1, -1, 0, 1,
            int(info.max) - 1, int(info.max)]


#: per key kind: (dtype, the values its keys are drawn from)
KINDS = {
    **{name: (np.dtype(name), [v for v in _int_extremes(name)
                               if np.iinfo(name).min <= v])
       for name in ("int8", "int16", "int32", "int64", "uint64")},
    "float32": (np.dtype(np.float32), [
        np.float32(np.nan), _nan32(0x7FC00001), _nan32(0xFFC00000),
        _nan32(0x7F800001), np.float32(0.0), np.float32(-0.0),
        np.float32(np.inf), np.float32(-np.inf), np.float32(1.5),
        np.float32(-2.25), np.float32(1e-45),
        np.finfo(np.float32).max]),
    "float64": (np.dtype(np.float64), [
        np.nan, _nan64(0x7FF8000000000001), _nan64(0xFFF8000000000000),
        _nan64(0x7FF0000000000001), 0.0, -0.0, np.inf, -np.inf, 1.5,
        -2.25, 5e-324, np.finfo(np.float64).max]),
    "bool": (np.dtype(bool), [False, True]),
    # DATE is stored as its int32 day ordinal
    "date": (np.dtype(np.int32), [1, 719_163, 738_000, 3_652_059]),
    "str": (np.dtype(object), ["", "a", "b", "ab", None]),
}


def _identity(value, dtype) -> object:
    """The reference key identity of one value: one NaN, ``0.0`` for
    ``-0.0``, float32 promoted exactly."""
    if dtype.kind == "f":
        value = float(value)
        return "nan" if value != value else value + 0.0
    if dtype == object:
        return value
    return value.item() if isinstance(value, np.generic) else value


def _key_bits(value, dtype) -> object:
    """What the registry must output for a key: canonical NaN, ``+0.0``."""
    if dtype == object:
        return value
    if dtype.kind == "f":
        value = np.nan if value != value else value + dtype.type(0)
    return np.array([value], dtype=dtype).tobytes()


def _table(nkeys: int) -> VectorizedGroupTable:
    config = SumConfig("repro")
    return VectorizedGroupTable(
        tuple(parse_expression(f"k{i}") for i in range(nkeys)),
        [AggregateSpec(parse_expression(sql), config) for sql in AGGREGATES],
    )


def _fed(columns, values, rows, cuts) -> VectorizedGroupTable:
    """A table fed ``rows`` of the input, in morsels cut at ``cuts``."""
    table = _table(len(columns))
    bounds = [0, *sorted(c for c in set(cuts) if 0 < c < len(rows)),
              len(rows)]
    for lo, hi in zip(bounds, bounds[1:]):
        part = rows[lo:hi]
        batch = {f"k{i}": col[part] for i, col in enumerate(columns)}
        batch["v"] = values[part]
        table.update(Batch(batch, {}))
    return table


def _output(table) -> list:
    keys, results, ngroups = table.finalize()
    return [[col.tolist() if col.dtype == object else col.tobytes()
             for col in keys],
            [arr.tobytes() for arr in results], ngroups]


@st.composite
def _inputs(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1,
                          max_size=3))
    n = draw(st.integers(1, 300))
    columns = []
    for kind in kinds:
        dtype, pool = KINDS[kind]
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n,
                              max_size=n))
        col = np.empty(n, dtype=dtype)
        col[:] = [pool[p] for p in picks]
        columns.append(col)
    values = np.array(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n)))
    cuts = draw(st.lists(st.integers(1, n), max_size=6))
    seed = draw(st.integers(0, 2**16))
    return columns, values, cuts, seed


class TestRegistryProperty:
    @settings(max_examples=60, deadline=None)
    @given(_inputs())
    def test_keys_and_bits_equal_the_dict_reference(self, drawn):
        columns, values, cuts, seed = drawn
        n = len(values)
        dtypes = [col.dtype for col in columns]
        # reference: a Python dict over the key identity, first arrival
        groups: dict = {}
        gids = np.empty(n, dtype=np.int64)
        for r in range(n):
            ident = tuple(_identity(col[r], dt)
                          for col, dt in zip(columns, dtypes))
            gids[r] = groups.setdefault(ident, len(groups))
        first: dict = {}
        for r, gid in enumerate(gids.tolist()):
            first.setdefault(gid, r)
        ladder = GroupedSummation.from_pairs(
            RsumParams.double(), gids, values, len(groups))
        sums, counts = ladder.finalize(), np.bincount(gids)

        rows = np.arange(n)
        whole = _fed(columns, values, rows, [])
        keys, (got_sums, got_counts), ngroups = whole.finalize()
        assert ngroups == len(groups)
        for i in range(ngroups):
            ident = tuple(_identity(col[i], dt) for col, dt in zip(keys, dtypes))
            gid = groups[ident]
            r = first[gid]
            for col, key, dt in zip(columns, keys, dtypes):
                assert _key_bits(key[i], dt) == _key_bits(col[r], dt)
            assert got_sums[i].tobytes() == sums[gid].tobytes()
            assert got_counts[i] == counts[gid]

        # any morsel split, a worker merge and a spill round-trip give
        # the same output, in the same order
        expected = _output(whole)
        assert _output(_fed(columns, values, rows, cuts)) == expected
        shuffled = np.random.default_rng(seed).permutation(n)
        half = n // 2
        left = _fed(columns, values, shuffled[:half], cuts)
        right = _fed(columns, values, shuffled[half:], cuts)
        spilled = _table(len(columns))
        load_table_into(dump_table(right), spilled)
        merged = _table(len(columns))
        merged.merge(left)
        merged.merge(spilled)
        assert _output(merged) == expected


def test_registering_keys_builds_no_python_object_per_key():
    """2**15 integer keys leave a constant number of Python objects
    behind: no tuple, no boxed int, no dict slot per key."""
    n = 1 << 15
    keys = np.arange(n, dtype=np.int64) * 7919 - (1 << 40)
    batch = Batch({"k0": keys, "v": np.ones(n)}, {})
    table = _table(1)
    table.update(Batch({"k0": keys[:1], "v": np.ones(1)}, {}))
    gc.collect()
    before = sys.getallocatedblocks()
    table.update(batch)
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert table.ngroups == n
    assert grown < 1_000, grown
    keys_out, _, _ = table.finalize()
    assert keys_out[0].tobytes() == np.sort(keys).tobytes()


def test_duplicate_identities_in_one_batch_take_one_gid():
    """Two NaN payloads, or ``0.0`` beside ``-0.0``, in one registered
    batch are one key: the first arrival's gid, the canonical value."""
    table = _table(2)
    floats = np.array([_nan64(0x7FF8000000000001), -0.0, np.nan, 0.0, 1.0])
    labels = np.array(["x", "y", "x", "y", None], dtype=object)
    gids = table._register_columns([floats, labels])
    assert gids.tolist() == [0, 1, 0, 1, 2]
    keys = table._key_columns()
    assert keys[0].view(np.uint64).tolist() == [
        np.array(np.nan).view(np.uint64).item(), 0, 0x3FF0000000000000]
    assert keys[1].tolist() == ["x", "y", None]
    again = table._register_columns([floats[::-1], labels[::-1]])
    assert again.tolist() == [2, 1, 0, 1, 0]
