"""Wire-format pin: spill payload bytes are part of the contract.

Run files written by one commit are read by the next (a rolling
restart, a spill directory that outlives a process), so ``dump_table``
bytes may only change on purpose.  The
golden blob was generated at the commit *before* the aggregate states
moved into :mod:`repro.engine.aggregates`; its live frames were
rewritten when the VARIANCE family's second moment became exact
(``python tests/storage/test_wire_format.py --retire-live`` moves the
live frames to the retired tail and writes new ones — only ever do
that for a deliberate format change).  The retired frames must fail
typed, never load: a ``sorted``-mode table, a mode since retired, and
the ieee and repro tables whose VARIANCE state was ``moment2`` (sums
of the rounded squares), which name their successor.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from repro.engine import (
    AggregateSpec,
    Batch,
    Database,
    SumConfig,
    VectorizedGroupTable,
    parse_expression,
)
from repro.engine.types import DOUBLE, FLOAT, INT, DecimalSqlType, VarcharType
from repro.storage.spill import (
    SpillFormatError,
    decode_payload,
    dump_table,
    encode_payload,
    frame_payload,
    load_table_into,
    read_frame,
    read_run_file,
    unframe_payload,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_spill_tables.bin")
MODES = ("ieee", "repro")
#: the golden blob's frame written by the retired ``sorted`` mode
RETIRED_FRAME = 2
#: the golden blob's frames whose VARIANCE state is the retired
#: ``moment2`` payload, by the mode that wrote them
RETIRED_MOMENT2_FRAMES = {"ieee": 3, "repro": 4}

#: Every aggregate, over every value kind the sum dispatch knows
#: (float64, float32, int, bare DECIMAL), object and float extremes,
#: float and int DISTINCT members.
AGG_SQL = (
    "SUM(v)", "RSUM(v, 3)", "AVG(v)", "COUNT(*)", "COUNT(DISTINCT v)",
    "COUNT(DISTINCT i)", "MIN(v)", "MAX(v)", "MIN(s)", "STDDEV(v)",
    "VAR_POP(v)", "VARIANCE(f)", "SUM(i)", "SUM(d)", "AVG(d)", "SUM(f)",
    "SUM(v * 2)",
)
GROUP_EXPRS = ("k", "s")
TYPES = {
    "k": DOUBLE, "s": VarcharType(3), "v": DOUBLE, "f": FLOAT, "i": INT,
    "d": DecimalSqlType(12, 2),
}


def _batch(rng, n):
    keys = rng.integers(0, 7, size=n).astype(np.float64)
    keys[::11] = np.nan
    keys[1::13] = -0.0
    values = (
        rng.choice([-1.0, 1.0], size=n) * rng.uniform(1.0, 2.0, size=n)
        * np.exp2(rng.uniform(-40, 40, size=n))
    )
    values[::37] = 0.0
    values[1::41] = -0.0
    values[2::43] = np.nan
    values[3::47] = np.inf
    values[4::53] = -np.inf
    return Batch(
        {
            "k": keys,
            "s": np.array(["a", "bb", "ccc"], dtype=object)[
                rng.integers(0, 3, n)
            ],
            "v": values,
            "f": rng.uniform(-4.0, 4.0, size=n).astype(np.float32),
            "i": rng.integers(-50, 50, size=n),
            "d": rng.integers(-10_000, 10_000, size=n),
        },
        TYPES,
    )


def _table(mode):
    config = SumConfig(mode)
    return VectorizedGroupTable(
        tuple(parse_expression(sql) for sql in GROUP_EXPRS),
        [AggregateSpec(parse_expression(sql), config) for sql in AGG_SQL],
    )


def golden_frames() -> list:
    """The golden blob's payloads, in order (it is back-to-back
    frames)."""
    blob, pos, frames = GOLDEN.read_bytes(), 0, []
    while pos < len(blob):
        payload, pos = read_frame(blob, pos, str(GOLDEN))
        frames.append(payload)
    return frames


def golden_blob(retire_live: bool = False) -> bytes:
    """One frame per sum mode: a seeded table fed two morsels, then the
    retired frames, kept as they were written — ``retire_live`` appends
    the blob's current live frames to them."""
    frames = golden_frames()
    retired = frames[len(MODES):]
    if retire_live:
        retired += frames[:len(MODES)]
    return b"".join(
        frame_payload(dump_table(_seeded_table(mode))) for mode in MODES
    ) + b"".join(frame_payload(frame) for frame in retired)


def test_dump_table_bytes_equal_parent_commit_golden():
    assert golden_blob() == GOLDEN.read_bytes()


def test_retired_sorted_payload_fails_typed():
    payload = golden_frames()[RETIRED_FRAME]
    with pytest.raises(SpillFormatError, match="unknown sum impl kind 'sorted'"):
        load_table_into(payload, _table("repro"))


@pytest.mark.parametrize("mode", MODES)
def test_retired_moment2_payload_fails_typed_naming_its_successor(mode):
    payload = golden_frames()[
        RETIRED_MOMENT2_FRAMES[mode]]
    with pytest.raises(SpillFormatError,
                       match="'moment2': its successor is 'moment2_exact'"):
        load_table_into(payload, _table(mode))


def _seeded_table(mode):
    rng = np.random.default_rng(20180416)
    table = _table(mode)
    table.update(_batch(rng, 240))
    table.update(_batch(rng, 120))
    return table


def _finalized_bits(table):
    key_arrays, results, ngroups = table.finalize()
    return [ngroups] + [
        repr(arr.tolist()) if arr.dtype == object else arr.tobytes()
        for arr in map(np.asarray, list(key_arrays) + list(results))
    ]


@pytest.mark.parametrize("index", range(len(MODES)), ids=MODES)
def test_golden_payload_loads_to_the_live_table_bits(index):
    payload = golden_frames()[index]
    restored = _table(MODES[index])
    load_table_into(payload, restored)
    assert _finalized_bits(restored) == _finalized_bits(
        _seeded_table(MODES[index])
    )


@pytest.mark.parametrize("route", ["run file", "in-memory frame"])
@pytest.mark.parametrize("index", range(len(MODES)), ids=MODES)
def test_restored_tables_own_their_state(index, route, tmp_path):
    """A payload off a run file or an in-memory frame is a read-only
    view, and so is every array decoded from it: a restored table that
    then updates, merges and finalizes to the live table's bits has
    copied every array it kept (a write into the frame would raise)."""
    mode = MODES[index]
    frame = golden_frames()[index]
    frame = frame_payload(frame)

    def restored():
        if route == "run file":
            path = tmp_path / "golden.run"
            path.write_bytes(frame)
            payload = read_run_file(str(path))
        else:
            payload = unframe_payload(bytearray(frame))
        assert isinstance(payload, memoryview) and payload.readonly
        table = _table(mode)
        load_table_into(payload, table)
        return table

    def exercised(left, right):
        left.update(_batch(np.random.default_rng(7), 90))
        left.merge(right)
        return _finalized_bits(left)

    assert exercised(restored(), restored()) == exercised(
        _seeded_table(mode), _seeded_table(mode)
    )


@pytest.mark.parametrize("tag", ["avg", "var"])
def test_retired_composite_tags_are_rejected(tag):
    """No query path has produced the unshared AVG / VAR composites
    since the one-runtime change; a payload carrying one is damage."""
    payload = golden_frames()[1]
    data = decode_payload(payload)
    data["states"][0] = {"tag": tag, "count": data["states"][0]}
    with pytest.raises(SpillFormatError):
        load_table_into(encode_payload(data), _table("repro"))


def _load_digest_script():
    path = pathlib.Path(__file__).resolve().parents[2] / "scripts"
    spec = importlib.util.spec_from_file_location(
        "wire_format_repro_digest", path / "repro_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mixed_query_bits(digest, **knobs):
    db = Database(sum_mode="repro", **knobs)
    try:
        digest._load(db, "mixed")
        result = db.execute(digest.MIXED_QUERY)
        return digest.canonical_bytes(result), db.last_pipeline_stats
    finally:
        db.close()


def test_split_and_spilled_runs_match_in_memory_bits():
    """The payload is what crosses the disk (``memory_budget``); the
    ``workers`` split merges the same states in memory: both must serve
    the one table's bits."""
    digest = _load_digest_script()
    expected, stats = _mixed_query_bits(digest)
    assert stats.workers == 1 and not stats.external
    split, stats = _mixed_query_bits(digest, workers=2, morsel_size=257)
    assert stats.workers == 2 and stats.morsel_count > 2
    spilled, stats = _mixed_query_bits(digest, memory_budget=4096)
    assert stats.external and stats.spilled_runs > 0
    assert split == expected
    assert spilled == expected


if __name__ == "__main__":
    GOLDEN.write_bytes(golden_blob(retire_live="--retire-live" in sys.argv))
    sys.stdout.write(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)\n")
