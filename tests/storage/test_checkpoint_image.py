"""The v2 checkpoint image: what the engine reads, checked on the way in.

A layout-2 table image (:func:`repro.storage.durable._dump_table`, the
same dump for a checkpoint's tables and an ``attach_table`` WAL record)
stores per-row versions as runs and every object-storage column as its
storage dictionary, which recovery installs as the column's cached
``encoding()``.  This file holds it to:

* the bits a v1 directory written by the commit before the v2 image
  served (``parent_commit_image_dir``), before and after it is
  rewritten as a v2 image;
* a typed :class:`~repro.errors.CheckpointError` for every mangled
  field — never a shorter table or wrong group keys;
* :meth:`Column.encoding` extended over appends instead of rebuilt;
* the property: random DML, checkpoint (or not), reopen, append more —
  the physical state equals a twin that never restarted, and every
  cached dictionary equals one computed from scratch.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine import table as table_module
from repro.engine.session import Database
from repro.engine.table import Schema, Table
from repro.engine.types import type_from_name
from repro.errors import CheckpointError
from repro.storage.durable import CHECKPOINT_FILE, DurableStore
from repro.storage.spill import encode_payload, write_frame
from repro.storage.wal import scan_wal

HERE = pathlib.Path(__file__).parent
CONFIG = dict(sum_mode="repro", checkpoint_interval=None)


def _bits(result) -> dict:
    return {
        name: (np.asarray(arr).tobytes().hex()
               if np.asarray(arr).dtype != object
               else repr(np.asarray(arr).tolist()))
        for name, arr in zip(result.names, result.arrays)
    }


def _image(path) -> dict:
    return DurableStore._read_checkpoint(str(pathlib.Path(path) / CHECKPOINT_FILE))


def _scratch_encoding(values: list) -> tuple[list, list]:
    """The dictionary of ``values`` by definition: sorted distinct
    values, NULL first, and each row's index into them."""
    ordered = sorted(set(values), key=lambda v: (v is not None, v))
    position = {value: j for j, value in enumerate(ordered)}
    return [position[v] for v in values], ordered


def _assert_encodings_exact(table) -> None:
    for name, (codes, uniques) in table.storage_dictionaries().items():
        want_codes, want_uniques = _scratch_encoding(
            table.physical_state()["columns"][name].tolist()
        )
        assert codes.dtype == np.int64
        assert codes.tolist() == want_codes, name
        assert repr(uniques.tolist()) == repr(want_uniques), name


class _EncodeSpy:
    """Counts the rows :func:`repro.engine.table._extend` encodes."""

    def __init__(self, monkeypatch):
        self.rows = 0
        real = table_module._extend

        def spy(codes, uniques, tail):
            self.rows += len(tail)
            return real(codes, uniques, tail)

        monkeypatch.setattr(table_module, "_extend", spy)


# ---------------------------------------------------------------------------
# A v1 directory from the commit before the v2 image
# ---------------------------------------------------------------------------


def test_v1_directory_serves_its_bits_and_rewrites_as_v2(tmp_path,
                                                         monkeypatch):
    """``parent_commit_image_dir`` was written by the commit before the
    v2 image: a v1 checkpoint of ``t`` (VARCHAR key with NULLs,
    DECIMAL(30,2), a DELETEd and an UPDATEd row), then a live WAL with
    an ``attach_table`` record of ``att`` (VARCHAR with NULL beside the
    string ``'None'``, DECIMAL(30,2), a masked row) and DML on ``t``.
    It serves the bits that commit served and, after the follow-up
    INSERTs, those it recorded for them
    (``parent_commit_image_dir.json``); rewritten as a v2 image it
    reopens to the same bits with the stored dictionaries installed."""
    golden = json.loads((HERE / "parent_commit_image_dir.json").read_text())
    path = tmp_path / "dir"
    shutil.copytree(HERE / "parent_commit_image_dir", path)
    assert _image(path)["version"] == 1
    assert "layout" not in _image(path)["tables"][0]
    assert [r["op"] for r in scan_wal(str(path), 1, repair=False)][0] == (
        "attach_table"
    )

    with repro.open(str(path), **CONFIG) as db:
        served = {key: _bits(db.execute(sql))
                  for key, sql in golden["sql"].items()}
        assert served == golden["served"]
        for sql in golden["follow_up"]:
            db.execute(sql)
        after = {key: _bits(db.execute(sql))
                 for key, sql in golden["sql"].items()}
        assert after == golden["after_follow_up"]
        db.checkpoint()
        for name in ("t", "att"):
            _assert_encodings_exact(db.table(name))

    image = _image(path)
    assert image["version"] == 2
    assert {spec["name"]: spec["layout"] for spec in image["tables"]} == {
        "t": 2, "att": 2,
    }
    spy = _EncodeSpy(monkeypatch)
    with repro.open(str(path), **CONFIG) as db:
        assert {key: _bits(db.execute(sql))
                for key, sql in golden["sql"].items()} == after
        for name in ("t", "att"):
            _assert_encodings_exact(db.table(name))
    assert spy.rows == 0        # every dictionary came from the image


# ---------------------------------------------------------------------------
# What the v2 image holds
# ---------------------------------------------------------------------------


def _populated(path, rows: int = 600) -> Database:
    db = repro.open(str(path), **CONFIG)
    db.execute(
        "CREATE TABLE t (k INT, s VARCHAR(8), d DECIMAL(30,2), f DOUBLE)"
    )
    keys = [i % 7 for i in range(rows)]
    db.table("t").bulk_load({
        "k": np.array(keys, dtype=np.int32),
        "s": np.array([None if k == 3 else f"s{k % 5}" for k in keys],
                      dtype=object),
        "d": np.array([(k - 3) * 10**25 for k in keys], dtype=object),
        "f": np.linspace(-1.0, 1.0, rows),
    })
    db.execute("INSERT INTO t VALUES (7, 'zz', 1.5, 0.25)")
    db.execute("DELETE FROM t WHERE k = 2")
    db.execute("UPDATE t SET s = 'up' WHERE k = 4")
    return db


GROUPS = "SELECT s, SUM(f) AS sf, COUNT(*) AS c FROM t GROUP BY s ORDER BY s"


def test_image_stores_runs_and_narrow_dictionaries(tmp_path, monkeypatch):
    db = _populated(tmp_path)
    want = _bits(db.execute(GROUPS))
    db.checkpoint()
    db.close()
    [spec] = _image(tmp_path)["tables"]
    assert spec["layout"] == 2 and spec["rows"] == 600 + 1 + 86
    # three statements appended rows (bulk load, INSERT, UPDATE): three
    # insert runs; the delete vector alternates 0 / 3 / 0 / 4 / ...
    assert spec["inserted"]["values"].tolist() == [1, 2, 4]
    assert spec["inserted"]["lengths"].dtype == np.uint16
    assert spec["deleted"]["lengths"].sum() == spec["rows"]
    s = spec["columns"]["s"]
    assert s["codes"].dtype == np.uint8
    assert s["uniques"].tolist() == [None, "s0", "s1", "s2", "s4", "up",
                                     "zz"]
    assert s["uniques"][s["codes"]].tolist()[:3] == ["s0", "s1", "s2"]
    assert spec["columns"]["d"]["uniques"][0] == -3 * 10**25

    spy = _EncodeSpy(monkeypatch)
    with repro.open(str(tmp_path), **CONFIG) as db:
        assert db.table("t").dictionary_size("s") == 7
        assert _bits(db.execute(GROUPS)) == want
        assert spy.rows == 0
        # an append after recovery extends the installed dictionary
        # with its own rows
        db.execute("INSERT INTO t VALUES (8, 's1', 2.5, 1.0), "
                   "(9, 'new', 3.5, 2.0)")
        assert db.table("t").dictionary_size("s") == 8
        assert spy.rows == 2
        _assert_encodings_exact(db.table("t"))


def _rewrite_image(path, mangle) -> None:
    """Apply ``mangle`` to the decoded image and write it back as a
    well-framed checkpoint (valid CRC: only the checks past the frame
    can refuse it)."""
    image = dict(_image(path))
    image["tables"] = [dict(spec) for spec in image["tables"]]
    mangle(image["tables"][0])
    with open(pathlib.Path(path) / CHECKPOINT_FILE, "wb") as handle:
        write_frame(handle, encode_payload(image))


def _runs_short(spec):
    runs = dict(spec["inserted"])
    lengths = np.array(runs["lengths"])
    lengths[-1] -= 1
    runs["lengths"] = lengths
    spec["inserted"] = runs


def _runs_long(spec):
    runs = dict(spec["deleted"])
    lengths = np.array(runs["lengths"])
    lengths[0] += 1
    runs["lengths"] = lengths
    spec["deleted"] = runs


def _runs_signed(spec):
    runs = dict(spec["inserted"])
    runs["lengths"] = runs["lengths"].astype(np.int64)
    spec["inserted"] = runs


def _rows_short(spec):
    spec["rows"] -= 1


def _column(spec, name, **changes):
    columns = dict(spec["columns"])
    columns[name] = {**columns[name], **changes}
    spec["columns"] = columns


def _code_past_dictionary(spec):
    codes = np.array(spec["columns"]["s"]["codes"])
    codes[5] = len(spec["columns"]["s"]["uniques"])
    _column(spec, "s", codes=codes)


def _uniques_unsorted(spec):
    uniques = np.array(spec["columns"]["s"]["uniques"])
    uniques[[1, 2]] = uniques[[2, 1]]
    _column(spec, "s", uniques=uniques)


def _uniques_null_not_first(spec):
    uniques = np.array(spec["columns"]["s"]["uniques"])
    uniques[[0, 1]] = uniques[[1, 0]]
    _column(spec, "s", uniques=uniques)


def _uniques_duplicated(spec):
    uniques = np.array(spec["columns"]["s"]["uniques"])
    uniques[2] = uniques[1]
    _column(spec, "s", uniques=uniques)


def _uniques_wrong_type(spec):
    uniques = np.array(spec["columns"]["d"]["uniques"])
    uniques[:] = [str(value) for value in uniques.tolist()]
    _column(spec, "d", uniques=uniques)


def _uniques_unused(spec):
    uniques = np.array(spec["columns"]["s"]["uniques"]).tolist()
    grown = np.empty(len(uniques) + 1, dtype=object)
    grown[:] = uniques + ["zzz"]
    _column(spec, "s", uniques=grown)


def _codes_signed(spec):
    _column(spec, "s", codes=spec["columns"]["s"]["codes"].astype(np.int8))


def _fixed_column_short(spec):
    columns = dict(spec["columns"])
    columns["f"] = columns["f"][:-1]
    spec["columns"] = columns


MANGLED = [
    (_runs_short, "insert version runs do not cover the table's 687 rows"),
    (_runs_long, "delete version runs do not cover"),
    (_runs_signed, "insert version run lengths"),
    (_rows_short, "column 'k' has 687 values for 686 rows"),
    (_code_past_dictionary, "'s' has a code past its 7-entry dictionary"),
    (_uniques_unsorted, "'s' dictionary is not strictly sorted str"),
    (_uniques_null_not_first, "'s' dictionary is not strictly sorted str"),
    (_uniques_duplicated, "'s' dictionary is not strictly sorted str"),
    (_uniques_wrong_type, "'d' dictionary is not strictly sorted int"),
    (_uniques_unused, "'s' has a dictionary entry no row uses"),
    (_codes_signed, "column 's' codes"),
    (_fixed_column_short, "column 'f' has 686 values for 687 rows"),
]


@pytest.mark.parametrize("mangle, refusal", [
    pytest.param(mangle, refusal, id=mangle.__name__.lstrip("_"))
    for mangle, refusal in MANGLED
])
def test_malformed_v2_image_fails_typed(tmp_path, mangle, refusal):
    db = _populated(tmp_path)
    db.checkpoint()
    db.close()
    _rewrite_image(tmp_path, mangle)
    with pytest.raises(CheckpointError,
                       match="malformed checkpoint image: .*" + refusal):
        repro.open(str(tmp_path), **CONFIG)


def test_unknown_table_layout_fails_typed(tmp_path):
    db = _populated(tmp_path)
    db.checkpoint()
    db.close()
    _rewrite_image(tmp_path, lambda spec: spec.update(layout=3))
    with pytest.raises(CheckpointError, match="layout 3"):
        repro.open(str(tmp_path), **CONFIG)


# ---------------------------------------------------------------------------
# Column.encoding over appends
# ---------------------------------------------------------------------------


def _varchar_table() -> Table:
    return Table("v", Schema([("s", type_from_name("VARCHAR", (8,))),
                              ("n", type_from_name("INT", ()))]))


def test_append_extends_the_cached_dictionary(monkeypatch):
    table = _varchar_table()
    table.bulk_load({"s": np.array(["b", None, "b", "d"], dtype=object),
                     "n": np.arange(4, dtype=np.int32)})
    column = table._columns["s"]
    first = column.encoding()
    spy = _EncodeSpy(monkeypatch)
    table.bulk_load({"s": np.array(["a", "d", None, "c"], dtype=object),
                     "n": np.arange(4, dtype=np.int32)})
    codes, uniques = column.encoding()
    assert spy.rows == 4                      # only the tail
    assert uniques.tolist() == [None, "a", "b", "c", "d"]
    assert codes.tolist() == [2, 0, 2, 4, 1, 4, 0, 3]
    # what was handed out before does not change
    assert first[0].tolist() == [1, 0, 1, 2]
    assert first[1].tolist() == [None, "b", "d"]
    # a tail of known values leaves the dictionary as it was
    table.insert_rows([{"s": "b", "n": 9}])
    assert column.encoding()[1] is uniques
    assert spy.rows == 5
    _assert_encodings_exact(table)


def test_put_drops_the_cached_dictionary():
    table = _varchar_table()
    table.insert_rows([{"s": "x", "n": 1}, {"s": "y", "n": 2}])
    column = table._columns["s"]
    column.encoding()
    column.put(np.array([0]), "w")
    assert column._encoding is None
    assert column.encoding()[1].tolist() == ["w", "y"]


def test_wal_replayed_appends_keep_the_restored_dictionary(
        tmp_path, monkeypatch):
    db = _populated(tmp_path)
    db.checkpoint()
    db.execute("INSERT INTO t VALUES (10, 'ab', 1.5, 0.5), "
               "(11, 's1', 1.5, 0.5)")
    want = _bits(db.execute(GROUPS))
    db.simulate_crash()
    spy = _EncodeSpy(monkeypatch)
    with repro.open(str(tmp_path), **CONFIG) as db:
        assert _bits(db.execute(GROUPS)) == want
        assert spy.rows == 2            # the replayed INSERT's rows
        _assert_encodings_exact(db.table("t"))


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------

KEYS = st.integers(0, 5)
STRINGS = st.sampled_from([None, "a", "b", "None", "zz", "é"])
ROW = st.tuples(KEYS, STRINGS, st.integers(-10**22, 10**22))
OPS = st.one_of(
    st.tuples(st.just("insert1"), ROW),
    st.tuples(st.just("bulk"), st.lists(ROW, min_size=0, max_size=9)),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("update"), KEYS, STRINGS),
    st.tuples(st.just("delete_all"), st.none()),
)


def _run(db, op) -> None:
    table = db.table("t")
    if op[0] == "insert1":
        # one statement per row: as many runs as rows
        k, s, d = op[1]
        table.bulk_load({"k": np.array([k], dtype=np.int32),
                         "s": np.array([s], dtype=object),
                         "d": np.array([d], dtype=object)})
    elif op[0] == "bulk":
        rows = op[1]
        table.bulk_load({
            "k": np.array([r[0] for r in rows], dtype=np.int32),
            "s": np.array([r[1] for r in rows], dtype=object),
            "d": np.array([r[2] for r in rows], dtype=object),
        })
    elif op[0] == "delete":
        db.execute(f"DELETE FROM t WHERE k = {op[1]}")
    elif op[0] == "update":
        if op[2] is not None:
            db.execute(f"UPDATE t SET s = '{op[2]}' WHERE k = {op[1]}")
        else:
            db.execute(f"UPDATE t SET k = k + 1 WHERE k = {op[1]}")
    else:
        db.execute("DELETE FROM t WHERE k >= 0")


def _state(table) -> tuple:
    state = table.physical_state()
    return (
        {name: (arr.dtype.str, repr(arr.tolist()) if arr.dtype == object
                else arr.tobytes())
         for name, arr in state["columns"].items()},
        state["inserted"].tobytes(), state["deleted"].tobytes(),
        int(state["version"]),
    )


def _create(db, attach: bool) -> None:
    columns = [("k", type_from_name("INT", ())),
               ("s", type_from_name("VARCHAR", (4,))),
               ("d", type_from_name("DECIMAL", (30, 2)))]
    if attach:
        db.catalog.add(Table("t", Schema(columns)))
    else:
        db.execute("CREATE TABLE t (k INT, s VARCHAR(4), d DECIMAL(30,2))")


@settings(max_examples=40, deadline=None)
@given(
    before=st.lists(OPS, max_size=8),
    after=st.lists(OPS, max_size=4),
    attach=st.booleans(),
    checkpoint=st.booleans(),
)
def test_reopened_table_equals_a_twin_that_never_restarted(
        before, after, attach, checkpoint):
    twin = Database(sum_mode="repro")
    with tempfile.TemporaryDirectory() as path:
        db = repro.open(path, **CONFIG)
        for target in (db, twin):
            _create(target, attach)
            for op in before:
                _run(target, op)
        if checkpoint:
            db.checkpoint()
        db.simulate_crash()
        db = repro.open(path, **CONFIG)
        try:
            if checkpoint:
                image = _image(path)
                assert image["tables"][0]["layout"] == 2
            for target in (db, twin):
                for op in after:
                    _run(target, op)
            assert _state(db.table("t")) == _state(twin.table("t"))
            _assert_encodings_exact(db.table("t"))
            _assert_encodings_exact(twin.table("t"))
            sql = "SELECT s, COUNT(*) AS c, MIN(d) AS lo FROM t GROUP BY s"
            assert _bits(db.execute(sql)) == _bits(twin.execute(sql))
        finally:
            db.close()
            twin.close()
