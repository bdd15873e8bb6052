"""Spill-format round trips: every partial aggregate state, bit for bit.

The external aggregation's correctness rests on one property: a
partial state that round-trips through the spill format and is
re-merged produces the same bits as the state that never left memory.
These tests pin that property per state type — including the
NaN/-0.0/inf payloads the canonical float identity handles — plus the
crash-safety contract: a damaged run file *raises*; it never feeds
wrong bits downstream.
"""

import numpy as np
import pytest

from repro.aggregation.grouped import GroupedSummation
from repro.core.params import RsumParams
from repro.engine import parse_expression
from reference_table import PartialGroupTable
from repro.engine.operators import AggregateSpec, Batch, SumConfig
from repro.engine.types import DOUBLE, INT, VarcharType
from repro.engine.vectorized import VectorizedGroupTable
from repro.fp.formats import BINARY32, BINARY64
from repro.storage.spill import (
    SpillFormatError,
    decode_payload,
    dump_grouped_summation,
    dump_table,
    encode_payload,
    frame_payload,
    load_grouped_summation,
    load_table_into,
    read_run_file,
    unframe_payload,
    write_run_file,
)


def _wide_values(rng, n):
    values = (
        rng.choice([-1.0, 1.0], size=n)
        * rng.uniform(1.0, 2.0, size=n)
        * np.exp2(rng.uniform(-40, 40, size=n))
    )
    values[::37] = 0.0
    values[1::41] = -0.0
    values[2::43] = np.nan
    values[3::47] = np.inf
    values[4::53] = -np.inf
    return values


# ---------------------------------------------------------------------------
# Core rsum states
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", [BINARY64, BINARY32])
def test_grouped_summation_round_trip(fmt):
    rng = np.random.default_rng(11)
    params = RsumParams(fmt, 3)
    grouped = GroupedSummation(params, 17)
    gids = rng.integers(0, 17, size=4000)
    values = _wide_values(rng, 4000).astype(fmt.dtype)
    grouped.add_pairs(gids, values)

    clone = load_grouped_summation(dump_grouped_summation(grouped))
    assert clone.state_tuples() == grouped.state_tuples()
    ref = grouped.finalize()
    got = clone.finalize()
    assert ref.tobytes() == got.tobytes()


# ---------------------------------------------------------------------------
# Engine partial group tables (all aggregate states at once)
# ---------------------------------------------------------------------------

_AGG_SQL = (
    "SUM(v)", "RSUM(v, 3)", "AVG(v)", "COUNT(*)", "COUNT(DISTINCT v)",
    "MIN(v)", "MAX(v)", "STDDEV(v)", "VAR_POP(v)", "SUM(i)",
)


def _specs(mode, levels=2):
    config = SumConfig(mode, levels)
    return [
        AggregateSpec(parse_expression(sql), config) for sql in _AGG_SQL
    ]


def _batch(rng, n=2000):
    keys = rng.integers(0, 23, size=n).astype(np.float64)
    keys[::11] = np.nan       # NaN group keys collapse to one group
    keys[1::13] = -0.0        # ... and -0.0 joins the 0.0 group
    labels = np.array(["a", "bb", "ccc"], dtype=object)[
        rng.integers(0, 3, n)
    ]
    return Batch(
        {
            "k": keys,
            "s": labels,
            "v": _wide_values(rng, n),
            "i": rng.integers(-50, 50, size=n),
        },
        {
            "k": DOUBLE, "s": VarcharType(3), "v": DOUBLE, "i": INT,
        },
    )


def _group_exprs():
    return (parse_expression("k"), parse_expression("s"))


def _finalized_bits(table):
    key_arrays, results, ngroups = table.finalize()
    pieces = [np.int64(ngroups).tobytes()]
    for arr in list(key_arrays) + list(results):
        arr = np.asarray(arr)
        if arr.dtype == object:
            pieces.append("|".join(map(repr, arr.tolist())).encode())
        else:
            pieces.append(arr.tobytes())
    return tuple(pieces)


#: (mode, ladder levels); a dump carries every level of every state
SUM_CONFIGS = [
    pytest.param("repro", 2, id="repro"),
    pytest.param("ieee", 2, id="ieee"),
    pytest.param("repro", 3, id="repro-levels3"),
]


@pytest.mark.parametrize("mode, levels", SUM_CONFIGS)
@pytest.mark.parametrize(
    "make_table", [PartialGroupTable, VectorizedGroupTable]
)
def test_table_round_trip_bit_identical(mode, levels, make_table):
    rng = np.random.default_rng(42)
    specs = _specs(mode, levels)
    table = make_table(_group_exprs(), specs)
    table.update(_batch(rng))

    fresh = make_table(_group_exprs(), specs)
    load_table_into(dump_table(table), fresh)
    assert _finalized_bits(fresh) == _finalized_bits(table)


@pytest.mark.parametrize("mode, levels", [
    pytest.param("repro", 2, id="repro"),
    pytest.param("repro", 3, id="repro-levels3"),
])
def test_round_trip_then_merge_matches_direct_merge(mode, levels):
    """Spilling one side of a merge must not change the merged bits."""
    rng = np.random.default_rng(7)
    batch_one, batch_two = _batch(rng), _batch(rng)
    specs = _specs(mode, levels)

    left = PartialGroupTable(_group_exprs(), specs)
    right = PartialGroupTable(_group_exprs(), specs)
    left.update(batch_one)
    right.update(batch_two)
    restored = PartialGroupTable(_group_exprs(), specs)
    load_table_into(dump_table(right), restored)
    left.merge(restored)

    direct_left = PartialGroupTable(_group_exprs(), specs)
    direct_right = PartialGroupTable(_group_exprs(), specs)
    direct_left.update(batch_one)
    direct_right.update(batch_two)
    direct_left.merge(direct_right)

    assert _finalized_bits(left) == _finalized_bits(direct_left)


def test_global_aggregate_table_round_trip():
    rng = np.random.default_rng(3)
    specs = _specs("repro")
    table = PartialGroupTable((), specs)
    table.update(_batch(rng))
    fresh = PartialGroupTable((), specs)
    load_table_into(dump_table(table), fresh)
    assert _finalized_bits(fresh) == _finalized_bits(table)


def test_load_requires_fresh_table():
    specs = _specs("repro")
    table = PartialGroupTable(_group_exprs(), specs)
    table.update(_batch(np.random.default_rng(1)))
    payload = dump_table(table)
    with pytest.raises(ValueError):
        load_table_into(payload, table)  # not empty


# ---------------------------------------------------------------------------
# Run-file crash safety
# ---------------------------------------------------------------------------


def _run_file(tmp_path):
    table = PartialGroupTable(_group_exprs(), _specs("repro"))
    table.update(_batch(np.random.default_rng(9)))
    path = str(tmp_path / "run.spill")
    write_run_file(path, dump_table(table))
    return path


def test_run_file_round_trip(tmp_path):
    path = _run_file(tmp_path)
    fresh = PartialGroupTable(_group_exprs(), _specs("repro"))
    load_table_into(read_run_file(path), fresh)
    assert fresh.ngroups > 0


@pytest.mark.parametrize("keep", [0, 4, 10, 100, -1, -9])
def test_truncated_run_file_raises(tmp_path, keep):
    """A crash mid-write must raise, never return wrong bits."""
    path = _run_file(tmp_path)
    blob = open(path, "rb").read()
    truncated = blob[:keep] if keep >= 0 else blob[:keep]
    with open(path, "wb") as handle:
        handle.write(truncated)
    with pytest.raises(SpillFormatError):
        read_run_file(path)


def test_corrupted_payload_raises(tmp_path):
    path = _run_file(tmp_path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF  # flip one payload bit
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    with pytest.raises(SpillFormatError):
        read_run_file(path)


def test_wrong_magic_raises(tmp_path):
    path = str(tmp_path / "bogus.spill")
    with open(path, "wb") as handle:
        handle.write(b"NOTASPILLFILE")
    with pytest.raises(SpillFormatError):
        read_run_file(path)


def test_state_payload_tag_mismatch_raises():
    table = PartialGroupTable(_group_exprs(), _specs("repro"))
    table.update(_batch(np.random.default_rng(2)))
    payload = dump_table(table)
    # Restoring into a table whose specs disagree must fail loudly.
    wrong = PartialGroupTable(
        _group_exprs(),
        [AggregateSpec(parse_expression("MIN(v)"), SumConfig("repro"))],
    )
    with pytest.raises(SpillFormatError):
        load_table_into(payload, wrong)


# -- framing: truncation, corruption --------------------------------------
#
# The contract under test: *every* possible truncation or single-byte
# corruption of a frame raises SpillFormatError — never a wrong answer.


def test_frame_round_trip_bytes_match_run_file(tmp_path):
    payload = encode_payload({"k": np.array([1, 2, 3], dtype=np.int64)})
    blob = frame_payload(payload)
    path = str(tmp_path / "one.spill")
    write_run_file(path, payload)
    with open(path, "rb") as handle:
        assert handle.read() == blob  # in-memory bytes == on-disk bytes
    assert unframe_payload(blob) == payload


def test_truncated_blob_never_returns_payload():
    payload = encode_payload({"x": np.arange(3)})
    frame = frame_payload(payload)
    for end in range(len(frame)):
        with pytest.raises(SpillFormatError):
            unframe_payload(frame[:end])


def test_corruption_at_every_byte_offset():
    payload = encode_payload({"n": 7, "f": 0.125})
    frame = bytearray(frame_payload(payload))
    for offset in range(len(frame)):
        corrupt = bytearray(frame)
        corrupt[offset] ^= 0xFF
        try:
            result = unframe_payload(bytes(corrupt))
        except SpillFormatError:
            continue
        # A flipped byte that still unframes must be impossible: the
        # CRC covers the payload, the magic and end marker cover the
        # framing, and the length field moves the footer.
        raise AssertionError(
            f"byte {offset} corruption yielded a payload: {result!r}"
        )


# ---------------------------------------------------------------------------
# Ownership: decoded arrays are read-only views over the frame
# ---------------------------------------------------------------------------


def _every_tag_tree():
    return {
        "none": None, "flags": (True, False), "int": -7, "big": 1 << 70,
        "float": -0.0, "text": "çé", "raw": b"\x00\xff",
        "f8": np.array([0.1, -0.0, np.nan, np.inf]),
        "i4": np.arange(5, dtype=np.int32),
        "swapped": np.arange(3, dtype=">i8"),
        "strided": np.arange(10.0)[::3],
        "grid": np.arange(6).reshape(2, 3),     # decodes flat, C order
        "bool": np.array([True, False]),
        "empty": np.empty(0, dtype=np.float32),
        "objects": np.array(["a", None, (1, 2), 3 ** 40], dtype=object),
        "set": {1.5, "x"},
        "nested": [{"k": [np.arange(2)]}, ()],
    }


def _same_tree(got, want) -> None:
    assert type(got) is type(want)
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            _same_tree(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_tree(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype.newbyteorder("=")
        if want.dtype == object:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.astype(got.dtype).tobytes()
    else:
        assert got == want and repr(got) == repr(want)


def _arrays(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, dict):
        for item in tree.values():
            yield from _arrays(item)
    elif isinstance(tree, (list, tuple)):
        for item in tree:
            yield from _arrays(item)


@pytest.mark.parametrize("buffer", [bytes, bytearray, memoryview])
def test_decode_payload_over_any_bytes_like(buffer):
    tree = _every_tag_tree()
    raw = encode_payload(tree)
    got = decode_payload(buffer(raw))
    _same_tree(got, tree)
    _same_tree(decode_payload(unframe_payload(buffer(frame_payload(raw)))),
               tree)


@pytest.mark.parametrize("buffer", [bytes, bytearray])
def test_decoded_arrays_reject_writes(buffer):
    """Also over a writable buffer: the rule is the codec's, not an
    accident of ``bytes`` being immutable."""
    decoded = list(_arrays(decode_payload(buffer(
        encode_payload(_every_tag_tree())
    ))))
    assert len(decoded) == 9
    for arr in decoded:
        assert not arr.flags.writeable
        if arr.size:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
