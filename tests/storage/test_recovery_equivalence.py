"""Recovery equivalence: a crash anywhere recovers the never-crashed twin.

WAL replay does not re-run the log statement by statement: a
``refresh_view`` record is a watermark, so replay keeps the last one
per view and refreshes each view once
(:class:`repro.storage.durable._PendingRefreshes`).  What makes that
legal is exact merge — and what checks it is this file:

* the property: random interleavings of INSERT / DELETE / UPDATE /
  REFRESH / DROP+CREATE VIEW (same name, another definition) /
  ``checkpoint()`` over one repro view and one IEEE view holding a
  MIN, executed on a durable database, an in-memory twin and a
  :class:`reference_storage.ListTable` model of the base table.  The
  live WAL segment is then cut at every record boundary; every cut
  must recover the model's rows, and at a statement's end the twin's
  views — served bytes, watermark, ``_populated``, ``refresh_count``;
* the counts the recovery-time claim rests on: N logged REFRESHes of a
  view replay as one ``refresh`` call and one maintenance rebuild per
  view;
* ``refresh_count`` itself, which used to drift across a crash.
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_storage import ListTable

import repro
from repro.engine.matview import MaterializedView
from repro.engine.session import Database
from repro.storage.wal import _parse_one_frame, list_segments

CONFIG = dict(sum_mode="repro", checkpoint_interval=None)
#: three-row morsels: every statement below crosses morsel boundaries,
#: and two workers (no refresh depends on either: a view feeds its
#: rows in physical order, in-process)
SHAPE = dict(workers=2, morsel_size=3)

#: per view: the sum mode of the session that creates it and the
#: definitions DROP + CREATE alternates between.  Both merge inserts
#: and rebuild on a delete: ``vr`` exactly, ``vi`` (IEEE, with a MIN)
#: in physical row order.
VIEWS = {
    "vr": ("repro", (
        "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY k",
        "SELECT g, SUM(v) AS s FROM t WHERE v > 0.0 GROUP BY g",
    )),
    "vi": ("ieee", (
        "SELECT k, SUM(v) AS s, MIN(v) AS m FROM t GROUP BY k",
        "SELECT g, k, MIN(v) AS m, SUM(v) AS s FROM t GROUP BY g, k",
    )),
}

#: ladder-straddling magnitudes beside ordinary ones: an IEEE sum over
#: them shows any change of order or of morsel split
VALUES = st.sampled_from(
    [0.1, 0.2, 3.25, -0.0, 1.0, -7.5, 1e16, -1e16, 1e-300, 2.5e8]
) | st.floats(-1e6, 1e6, allow_nan=False)
ROWS = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["a", "b", "cc"]), VALUES),
    min_size=1, max_size=7,
)
OPS = st.one_of(
    st.tuples(st.just("insert"), ROWS),
    st.tuples(st.just("insert"), ROWS),
    st.tuples(st.just("delete"), st.integers(0, 3)),
    st.tuples(st.just("update"), st.integers(0, 3)),
    st.tuples(st.just("refresh"), st.sampled_from(sorted(VIEWS))),
    st.tuples(st.just("refresh"), st.sampled_from(sorted(VIEWS))),
    st.tuples(st.just("recreate"), st.sampled_from(sorted(VIEWS))),
    st.tuples(st.just("checkpoint"), st.none()),
)


def _comparable(arr: np.ndarray) -> tuple:
    """Bits, not values: ``-0.0`` is not ``0.0`` here."""
    exact = arr.tolist() if arr.dtype == object else arr.tobytes()
    return arr.dtype.str, exact


def _view_state(db) -> dict:
    """Everything recovery promises about the views, as comparables."""
    out = {}
    for name in db.catalog.view_names():
        view = db.view(name)
        out[name] = (
            view.select.sql(),
            [_comparable(a) for a in view.key_arrays],
            {sql: _comparable(a) for sql, a in view.agg_results.items()},
            view.ngroups, view.watermark, view._populated,
            view.refresh_count,
        )
    return out


def _table_state(table) -> tuple:
    state = table.physical_state()
    return (
        {name: _comparable(a) for name, a in state["columns"].items()},
        state["inserted"].tolist(), state["deleted"].tolist(),
        int(state["version"]),
    )


def _model_state(model: ListTable) -> tuple:
    return (
        {name: _comparable(a) for name, a in model.column_tails(0).items()},
        list(model.inserted), list(model.deleted), model.version,
    )


class Trio:
    """The durable database, its in-memory twin and the base-table
    model, executing the same statements."""

    def __init__(self, path: str):
        self.durable = repro.open(path, **CONFIG)
        self.twin = Database(sum_mode="repro")
        self.sessions = {
            mode: [db.session(sum_mode=mode, **SHAPE)
                   for db in (self.durable, self.twin)]
            for mode in ("repro", "ieee")
        }
        self.definition = {name: 0 for name in VIEWS}
        #: per statement: ((segment, bytes) of the WAL's end after it,
        #: the model's rows, the twin's views)
        self.prefixes: list[tuple] = []
        self.sql("repro", "CREATE TABLE t (k INT, g VARCHAR(2), v DOUBLE)")
        self.model = ListTable(self.durable.table("t").schema)
        for name in VIEWS:
            self.create(name)

    def sql(self, mode: str, statement: str) -> None:
        for session in self.sessions[mode]:
            session.execute(statement)

    def mark(self) -> None:
        wal = self.durable._storage.wal
        live = _view_state(self.durable)
        assert live == _view_state(self.twin)  # the twin is one
        assert _table_state(self.durable.table("t")) == _model_state(
            self.model
        )
        self.prefixes.append(
            ((wal.segment, wal.tail_bytes()), _model_state(self.model), live)
        )

    def create(self, name: str) -> None:
        mode, definitions = VIEWS[name]
        self.sql(mode, f"CREATE MATERIALIZED VIEW {name} AS "
                       f"{definitions[self.definition[name] % 2]}")
        self.mark()

    def hits(self, k: int) -> list[int]:
        return [i for i in self.model.visible() if self.model.data["k"][i] == k]

    def apply(self, op, arg) -> None:
        version = self.durable.table("t").version + 1
        if op == "insert":
            literals = ", ".join(f"({k}, '{g}', {v!r})" for k, g, v in arg)
            self.sql("repro", f"INSERT INTO t VALUES {literals}")
            self.model.insert_rows(
                [dict(k=k, g=g, v=v) for k, g, v in arg], version
            )
        elif op == "delete":
            self.sql("repro", f"DELETE FROM t WHERE k = {arg}")
            self.model.mask_rows(self.hits(arg), version)
        elif op == "update":
            self.sql("ieee", f"UPDATE t SET v = v * 2.0 WHERE k = {arg}")
            hits = self.hits(arg)
            self.model.replace_rows(hits, [
                dict(k=arg, g=self.model.data["g"][i],
                     v=self.model.data["v"][i] * 2.0) for i in hits
            ], version)
        elif op == "refresh":
            self.sql(VIEWS[arg][0], f"REFRESH MATERIALIZED VIEW {arg}")
        elif op == "recreate":
            self.sql("repro", f"DROP MATERIALIZED VIEW {arg}")
            self.mark()
            self.definition[arg] += 1
            self.create(arg)
            return
        else:
            self.durable.checkpoint()
        self.mark()

    def close(self) -> None:
        self.twin.close()
        self.durable.close()


def _record_ends(blob: bytes) -> list[int]:
    ends = [0]
    while ends[-1] < len(blob):
        parsed = _parse_one_frame(blob, ends[-1])
        assert parsed is not None, f"pristine WAL unparsable at {ends[-1]}"
        ends.append(parsed[1])
    return ends


@settings(max_examples=30, deadline=None)
@given(st.lists(OPS, min_size=1, max_size=14), ROWS)
def test_any_crash_point_recovers_the_never_crashed_twin(ops, last_rows):
    with tempfile.TemporaryDirectory() as path:
        trio = Trio(path)
        try:
            for op, arg in ops:
                trio.apply(op, arg)
            trio.apply("insert", last_rows)  # DML after the last REFRESH
            trio.durable.simulate_crash()
        finally:
            trio.close()

        (segment, wal_path), = list_segments(path)[-1:]
        with open(wal_path, "rb") as handle:
            pristine = handle.read()
        #: statement ends inside the live segment -> that prefix's state
        #: (offset 0 is the checkpoint, or the empty database's first
        #: statement, that opened the segment)
        at_end = {
            offset: (rows, views)
            for (seg, offset), rows, views in trio.prefixes if seg == segment
        }
        assert pristine and len(pristine) in at_end
        whole_statements = 0
        rows = views = None
        for cut in _record_ends(pristine):
            if cut in at_end:
                rows, views = at_end[cut]
                whole_statements += 1
            if rows is None:
                continue    # segment 1 opens before any view exists
            with open(wal_path, "wb") as handle:
                handle.write(pristine[:cut])
            recovered = repro.open(path, **CONFIG)
            try:
                assert _table_state(recovered.table("t")) == rows, cut
                if cut in at_end:
                    assert _view_state(recovered) == views, cut
            finally:
                recovered.close()
        assert whole_statements == len(at_end)


# ---------------------------------------------------------------------------
# The counts the claim rests on
# ---------------------------------------------------------------------------


def test_n_logged_refreshes_replay_as_one_per_view(tmp_path, monkeypatch):
    """A checkpoint holding both views, then 60 x (INSERT, REFRESH vr,
    REFRESH vi) in the WAL: one ``refresh`` and one rebuild per view."""
    trio = Trio(str(tmp_path))
    try:
        trio.apply("insert", [(1, "a", 0.1), (2, "b", 1e16), (1, "a", 3.25)])
        trio.apply("refresh", "vr")
        trio.apply("checkpoint", None)
        for cycle in range(60):
            trio.apply("insert", [(cycle % 4, "cc", -1e16 + cycle)])
            trio.apply("refresh", "vr")
            trio.apply("refresh", "vi")
        trio.apply("delete", 2)
        live = _view_state(trio.durable)
        trio.durable.simulate_crash()
    finally:
        trio.close()
    refreshes, rebuilds = [], []
    refresh = MaterializedView.refresh

    def counted_refresh(view, context, to_version=None, stats=None):
        refreshes.append(view.name)
        kept = view._group_table
        consumed = refresh(view, context, to_version, stats)
        if view._group_table is not kept:  # a rebuild: a new table
            rebuilds.append(view.name)
        return consumed

    monkeypatch.setattr(MaterializedView, "refresh", counted_refresh)
    recovered = repro.open(str(tmp_path), **CONFIG)
    try:
        assert sorted(refreshes) == ["vi", "vr"]
        assert sorted(rebuilds) == ["vi", "vr"]
        assert _view_state(recovered) == live
    finally:
        recovered.close()


def test_refresh_count_survives_a_crash(tmp_path):
    """Replay skips a REFRESH that changes nothing; it still counts."""
    db = repro.open(str(tmp_path), **CONFIG)
    try:
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 0.5)")
        db.execute(
            "CREATE MATERIALIZED VIEW v AS SELECT k, SUM(v) AS s FROM t "
            "GROUP BY k"
        )
        db.execute("REFRESH MATERIALIZED VIEW v")
        db.execute("INSERT INTO t VALUES (2, 0.25)")
        db.execute("REFRESH MATERIALIZED VIEW v")
        db.execute("REFRESH MATERIALIZED VIEW v")
        assert db.view("v").refresh_count == 4
    finally:
        db.simulate_crash()
        db.close()
    for _ in range(2):      # and again on top of what recovery left
        db = repro.open(str(tmp_path), **CONFIG)
        try:
            assert db.view("v").refresh_count == 4
            db.checkpoint()
        finally:
            db.close()


def test_refresh_before_recreate_belongs_to_the_dropped_view(tmp_path):
    """A pending REFRESH is run before the DDL that re-binds its name:
    the re-created view is then refreshed at most by its own records."""
    trio = Trio(str(tmp_path))
    try:
        trio.apply("insert", [(1, "a", 0.1), (2, "b", 2.0)])
        trio.apply("refresh", "vr")
        trio.apply("recreate", "vr")
        trio.apply("insert", [(3, "cc", 4.0)])
        live = _view_state(trio.durable)
        assert live["vr"][-1] == 1 and live["vr"][-3] < \
            trio.durable.table("t").version
        trio.durable.simulate_crash()
    finally:
        trio.close()
    recovered = repro.open(str(tmp_path), **CONFIG)
    try:
        assert _view_state(recovered) == live
    finally:
        recovered.close()


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def test_what_recovery_keeps_it_copied_off_the_frames(tmp_path):
    """Decoded arrays are read-only views of a checkpoint or WAL frame;
    the served arrays an image restores and the rows an image and a WAL
    record append must own their memory."""
    trio = Trio(str(tmp_path))
    try:
        trio.apply("insert", [(1, "a", 0.1), (2, "b", 1e16)])
        trio.apply("refresh", "vr")
        trio.apply("refresh", "vi")
        trio.apply("checkpoint", None)
        trio.apply("insert", [(3, "cc", -0.0)])
        live = _view_state(trio.durable)
        trio.durable.simulate_crash()
    finally:
        trio.close()
    recovered = repro.open(str(tmp_path), **CONFIG)
    try:
        assert _view_state(recovered) == live
        state = recovered.table("t").physical_state()
        kept = [*state["columns"].values(), state["inserted"],
                state["deleted"]]
        for name in recovered.catalog.view_names():
            view = recovered.view(name)
            kept += [*view.key_arrays, *view.agg_results.values()]
        for arr in kept:
            assert _owner(arr).flags.owndata
    finally:
        recovered.close()
