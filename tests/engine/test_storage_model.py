"""Storage-model property: the array-backed table against a list model.

Random interleavings of every mutation the table has — SQL-row
statements, bulk loads, WAL replays, a checkpoint restore — over a
schema with every SQL type, including empty statements, statements that
fail, and enough rows to cross several capacity doublings, must leave
the real :class:`~repro.engine.table.Table` answering every question
exactly like :class:`reference_storage.ListTable`: ``scan`` at every
past watermark, every delta window (the rows read from ``rows_at`` a
watermark on, ``deletes_between``), ``column_tails``,
``physical_rows``, ``version`` and ``key_encodings``.  Along the way
every array the table hands out — every scan at every watermark
included — is kept, and must still show what it showed when it was
handed out, across later statements, buffer moves and a restore.

A read is a slice of the table's buffers exactly when no delete is
visible at its snapshot, and a masked copy otherwise; either way what
it returns is read-only.
"""

from __future__ import annotations

import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_storage import ListTable

from repro.engine.table import Schema, Table
from repro.engine.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    FLOAT,
    INT,
    DecimalSqlType,
    IntType,
    VarcharType,
)

COLUMNS = [
    ("t8", IntType(8)), ("s16", IntType(16)), ("i", INT), ("b", BIGINT),
    ("f", FLOAT), ("d", DOUBLE), ("dec", DecimalSqlType(12, 2)),
    ("wide", DecimalSqlType(30, 2)), ("s", VarcharType(4)), ("day", DATE),
    ("flag", BOOLEAN),
]
OBJECT_COLUMNS = ["wide", "s"]


def _ints(bits):
    return st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)


LITERALS = {
    "t8": _ints(8), "s16": _ints(16), "i": _ints(32), "b": _ints(64),
    "f": st.floats(width=32), "d": st.floats(),
    "dec": st.integers(-10**8, 10**8).map(lambda n: n / 4),
    "wide": st.integers(-10**25, 10**25),
    "s": st.text(alphabet="abç", max_size=4),
    "day": st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 1, 1))
    .map(lambda d: d.isoformat()),
    "flag": st.booleans(),
}
#: one literal per column that its type must refuse
BAD = {"t8": 128, "s16": -40000, "i": 1 << 40, "b": 1 << 63,
       "dec": float("inf"), "s": "toolong", "day": 1 << 31}

row = st.fixed_dictionaries(LITERALS)


def rows(max_size):
    return st.lists(row, max_size=max_size)


def _bulk_columns(draw, literal_rows):
    """Pre-coerced storage columns for ``literal_rows``: exact-dtype
    arrays, wider integer arrays, plain lists — and sometimes a value
    that does not fit, or one ragged column."""
    columns = {}
    for name, sql_type in COLUMNS:
        values = [sql_type.coerce(r[name]) for r in literal_rows]
        dtype = sql_type.numpy_dtype
        shape = draw(st.sampled_from(["exact", "list", "wide"]))
        if shape == "list":
            columns[name] = values
        elif shape == "wide" and dtype.kind == "i" and dtype.itemsize < 8:
            columns[name] = np.array(values, dtype=np.int64)
        else:
            arr = np.empty(len(values), dtype=dtype)
            arr[:] = values
            columns[name] = arr
    if literal_rows and draw(st.integers(0, 9)) == 0:
        columns["i"] = np.array(
            [r["i"] for r in literal_rows], dtype=np.int64
        ) + (1 << 33)
    if draw(st.integers(0, 14)) == 0:
        columns["d"] = np.zeros(len(literal_rows) + 1)
    return columns


def _same(got: np.ndarray, want: np.ndarray, what) -> None:
    assert got.dtype == want.dtype, what
    if got.dtype == object:
        assert got.tolist() == want.tolist(), what
    else:
        assert got.tobytes() == want.tobytes(), what


def _same_columns(got: dict, want: dict, what) -> None:
    assert list(got) == list(want), what
    for name in want:
        _same(got[name], want[name], (what, name))


class Pair:
    """The real table and the model, driven in lockstep."""

    def __init__(self):
        self.table = Table("t", Schema(COLUMNS))
        self.model = ListTable(Schema(COLUMNS))
        self.held: list[tuple] = []     # (what, view, its bytes then)

    def both(self, real, model) -> None:
        """Run one statement on both sides; they agree on failing."""
        failures = []
        for call in (real, lambda: model(self.table.version)):
            try:
                call()
                failures.append(None)
            except (ValueError, IndexError) as exc:
                failures.append(exc)
        assert (failures[0] is None) == (failures[1] is None), failures
        assert self.table.version == self.model.version
        assert self.table.physical_rows == self.model.physical_rows
        self.hold()

    def hold(self) -> None:
        """Keep what a reader could be holding right now."""
        table = self.table
        views = dict(table.column_tails(0))
        views["<valid>"] = table.valid_mask()
        views["<snapshot>"] = table.snapshot_mask(table.version)
        encodings = table.key_encodings(OBJECT_COLUMNS)
        for name, (codes, uniques) in encodings.items():
            views[f"<codes {name}>"] = codes
            views[f"<uniques {name}>"] = uniques
        views.update(
            (f"<state {k}>", v) for k, v in table.physical_state().items()
            if isinstance(v, np.ndarray)
        )
        for w in range(table.version + 1):
            arrays, encodings, _ = table.read(None, OBJECT_COLUMNS, w)
            views.update((f"<scan {w} {k}>", v) for k, v in arrays.items())
            views.update((f"<scan {w} codes {k}>", codes)
                         for k, (codes, _) in encodings.items())
        for what, view in views.items():
            frozen = view.tolist() if view.dtype == object else view.tobytes()
            self.held.append((what, view, frozen))

    def restore(self) -> None:
        """Checkpoint + recovery: a fresh table from the physical state."""
        state = self.table.physical_state()
        self.table = Table("t", Schema(COLUMNS))
        self.table.restore_physical(**state)
        restored = ListTable(Schema(COLUMNS))
        restored.restore_physical(
            {name: self.model.data[name] for name in self.model.data},
            self.model.inserted, self.model.deleted, self.model.version,
        )
        self.model = restored
        self.hold()

    def check(self) -> None:
        table, model = self.table, self.model
        for what, view, frozen in self.held:
            now = view.tolist() if view.dtype == object else view.tobytes()
            assert now == frozen, f"a handed-out {what} view changed"
        assert table.version == model.version
        assert table.physical_rows == model.physical_rows
        assert len(table) == len(model.visible())
        marks = range(model.version + 1)
        _same_columns(table.scan(), model.scan(), "scan now")
        for w in marks:
            _same_columns(table.scan(snapshot=w), model.scan(w), ("scan", w))
            for upto in (None, *range(w, model.version + 1)):
                # the delta since w: what a view merges, and whether a
                # row it holds is gone
                want = model.delta_masks(w, upto)
                rows = np.flatnonzero(want[0]).tolist()
                got, codes, _ = table.read(
                    None, OBJECT_COLUMNS, upto, table.rows_at(w)
                )
                _same_columns(
                    got, {name: model._array(name, rows) for name in got},
                    ("inserted", w, upto),
                )
                for name, (code, uniques) in codes.items():
                    _same(uniques[code], got[name], ("codes", w, upto))
                end = model.version if upto is None else upto
                assert table.deletes_between(w, end) == bool(want[1].any())
                changed = bool(want[0].any() or want[1].any())
                if upto is not None and changed:
                    assert table.changed_between(w, upto)
            encodings = table.key_encodings(OBJECT_COLUMNS, snapshot=w)
            assert sorted(encodings) == sorted(OBJECT_COLUMNS)
            for name, (codes, uniques) in encodings.items():
                values, ordered = model.key_values(name, w)
                assert uniques.tolist() == ordered
                assert uniques[codes].tolist() == values
            self.check_path(w)
        for start in {0, model.physical_rows // 2, model.physical_rows}:
            _same_columns(
                table.column_tails(start), model.column_tails(start),
                ("tails", start),
            )
        state = table.physical_state()
        assert state["inserted"].tolist() == model.inserted
        assert state["deleted"].tolist() == model.deleted

    def check_path(self, w: int) -> None:
        """A read at ``w`` shares memory with the column buffers and the
        storage dictionaries exactly when no delete is visible there;
        it is read-only and counts the rows it copied either way."""
        table, model = self.table, self.model
        sliced = not any(0 < d <= w for d in model.deleted)
        arrays, encodings, copied = table.read(None, OBJECT_COLUMNS, w)
        visible = len(model.visible(w))
        assert copied == (0 if sliced else visible)
        buffers = table.column_tails(0)
        dictionaries = table.storage_dictionaries()
        pairs = [(arrays[name], buffers[name]) for name in arrays] + [
            (codes, dictionaries[name][0])
            for name, (codes, _) in encodings.items()
        ]
        for got, storage in pairs:
            assert not got.flags.writeable
            if visible:
                assert np.shares_memory(got, storage) == sliced


def _step(draw, pair: Pair) -> None:
    table, model = pair.table, pair.model
    indices = st.lists(
        st.integers(-1, max(table.physical_rows, 1)), max_size=5
    )
    op = draw(st.sampled_from([
        "insert", "insert", "bulk", "mask", "replace",
        "replay_append", "replay_mask", "replay_replace", "restore",
    ]))
    if op == "restore":
        pair.restore()
        return
    literal_rows = draw(rows(40 if op == "bulk" else 4))
    if op in ("insert", "replace") and literal_rows:
        spoil = draw(st.sampled_from([None, None, None, *BAD, "<missing>"]))
        if spoil == "<missing>":
            literal_rows[-1] = {
                k: v for k, v in literal_rows[-1].items() if k != "d"
            }
        elif spoil is not None:
            literal_rows[-1] = {**literal_rows[-1], spoil: BAD[spoil]}
    hits = draw(indices)
    if op == "insert":
        pair.both(lambda: table.insert_rows(literal_rows),
                  lambda v: model.insert_rows(literal_rows, v))
    elif op == "bulk":
        columns = _bulk_columns(draw, literal_rows)
        pair.both(lambda: table.bulk_load(columns),
                  lambda v: model.bulk_load(columns, v))
    elif op == "mask":
        pair.both(lambda: table.mask_rows(np.array(hits, dtype=np.int64)),
                  lambda v: model.mask_rows(hits, v))
    elif op == "replace":
        pair.both(lambda: table.replace_rows(hits, literal_rows),
                  lambda v: model.replace_rows(hits, literal_rows, v))
    else:
        # WAL replay: a logged version one past the watermark, or a
        # stale one the table already contains (skipped)
        version = table.version + draw(st.sampled_from([1, 1, 1, 0, -1]))
        hits = [h for h in hits if 0 <= h < table.physical_rows]
        columns = {
            name: np.array(
                [t.coerce(r[name]) for r in literal_rows], dtype=t.numpy_dtype
            )
            for name, t in COLUMNS
        }
        if op == "replay_append":
            pair.both(lambda: table.replay_append(version, columns),
                      lambda v: model.replay(version, None, columns))
        elif op == "replay_mask":
            pair.both(lambda: table.replay_mask(version, hits),
                      lambda v: model.replay(version, hits, None))
        else:
            pair.both(lambda: table.replay_replace(version, hits, columns),
                      lambda v: model.replay(version, hits, columns))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_table_matches_the_list_model(data):
    pair = Pair()
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        _step(data.draw, pair)
    pair.check()
