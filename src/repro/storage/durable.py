"""Durable storage: checkpoint images + WAL replay = bit-identical recovery.

A durable database lives in one directory::

    <data-dir>/
        LOCK             # advisory file lock: one process owns the dir
        checkpoint.bin   # one spill frame: full catalog image
        wal-00000001.log # sealed WAL segments (covered by checkpoint.bin)
        wal-00000002.log # live segment: records after the checkpoint

The checkpoint is the physical state of every table plus every
materialized view's *served* arrays and consumed watermark, framed and
CRC-checked exactly like a spill run file.  The WAL
(:mod:`repro.storage.wal`) holds everything committed since.

The image (v2) stores a table the way the engine reads it — one
:func:`_dump_table` / :func:`_load_table` pair writes and reads both a
checkpoint's tables and an ``attach_table`` WAL record:

* fixed-width columns as raw little-endian bytes;
* the per-row insert and delete versions as runs (``values``,
  ``lengths``): one run per appending statement and per DELETE / UPDATE
  hole, instead of 16 bytes a row;
* every object-storage column (VARCHAR, DECIMAL past 18 digits) as its
  storage dictionary — sorted ``uniques`` (NULL first) plus one code a
  row in the narrowest unsigned dtype — which recovery installs as the
  column's cached :meth:`~repro.engine.table.Column.encoding`, so the
  first GROUP BY or planner bound after a restart encodes nothing.

Every field is checked before a table is created: runs that do not
cover the row count, a code past its dictionary, an unused entry or
``uniques`` that are not strictly sorted values of the column's type
raise :class:`~repro.errors.CheckpointError`, never a shorter table or
wrong group keys.  v1 images (and v1 ``attach_table`` records: every
column's rows, one version pair a row) are still read; the writer
emits only v2.  Measured end to end (``BENCH_34.json``, ten
alternating runs against the v1 writer on a 2-core x86-64 Linux box):
``q1_lowcard``'s ``recovery_s`` (open + first result) 0.135 -> 0.088 s,
Q3's 0.083 -> 0.066 s; directory bytes per user byte 1.34 -> 1.00 (Q1),
1.37 -> 1.00 (Q3), 2.26 -> 1.01 (2^18-row pairs).

Recovery loads the checkpoint, replays the WAL tail, and lands on a
catalog whose repro-digest is **byte-identical** to the database that
crashed — reproducible aggregation makes that a machine-checkable
claim rather than a slogan.  The moving parts that make it hold:

* **Physical-effect logging.** DML records carry the exact column
  tails / masked physical indices a statement produced, so replay
  reconstructs the same physical row order (the paper's Algorithm 1
  territory: physical order is visible to IEEE sums, so recovery
  preserves it bit-for-bit rather than re-running SQL).
* **Version-skip idempotency.** Checkpoints are *fuzzy*: the WAL is
  rotated first, then tables are copied one lock at a time, so a
  record may be both inside the image and in the live segment.  Every
  record carries its row-version watermark and replay skips anything
  the image already contains — applying the log twice is a no-op.
* **Exact-merge view rebuild.** A view's maintenance state is not
  persisted; the view's next refresh rebuilds it from the base rows
  live at that refresh's target watermark — the path a refresh whose
  delta deletes a row takes anyway.  Exact merge guarantees the
  rebuilt state finalizes to the same bytes the incrementally-built
  one would have.
* **One refresh per view.** A ``refresh_view`` record is a watermark,
  not a delta, so replay runs the last one per view
  (:class:`_PendingRefreshes`) instead of one per record;
  ``refresh_count`` still counts them all.  No refresh depends on an
  execution knob, so the record carries none (the ``ctx`` shape older
  writers logged is ignored).
* **Torn-tail truncation.** A crash mid-append leaves a half record;
  recovery truncates to the last intact record.  Damage *before*
  intact records raises :class:`~repro.errors.WalCorruptError` —
  recovery never silently diverges (see :mod:`repro.storage.wal`).
"""

from __future__ import annotations

import operator
import os
import threading

import numpy as np

from ..errors import CatalogError, CheckpointError, StorageError
from .spill import (
    SpillFormatError,
    decode_payload,
    encode_payload,
    unframe_payload,
    write_frame,
)
from .wal import WriteAheadLog, scan_wal

try:  # POSIX advisory locking; absent on Windows (single-process use)
    import fcntl
except ImportError:  # pragma: no cover - platform fallback
    fcntl = None

__all__ = ["DurableStore", "CHECKPOINT_FILE"]

CHECKPOINT_FILE = "checkpoint.bin"
LOCK_FILE = "LOCK"
_CHECKPOINT_FORMAT = "repro-checkpoint"
_CHECKPOINT_VERSION = 2
#: image versions :meth:`DurableStore._read_checkpoint` accepts (v1:
#: the layout-1 tables of writers before the v2 image)
_READABLE_VERSIONS = (1, _CHECKPOINT_VERSION)
#: the table layout :func:`_dump_table` writes, into an image and into
#: an ``attach_table`` record alike (a table without one is layout 1:
#: every column's rows, one insert and one delete version per row)
_TABLE_LAYOUT = 2


# ---------------------------------------------------------------------------
# SQL type <-> wire spec
# ---------------------------------------------------------------------------


def _type_spec(sql_type) -> tuple[str, list]:
    from ..engine.types import (
        BooleanType,
        DateType,
        DecimalSqlType,
        FloatType,
        IntType,
        VarcharType,
    )

    if isinstance(sql_type, IntType):
        return sql_type.name, []
    if isinstance(sql_type, FloatType):
        return sql_type.name, []
    if isinstance(sql_type, DecimalSqlType):
        return "DECIMAL", [int(sql_type.precision), int(sql_type.scale)]
    if isinstance(sql_type, VarcharType):
        return "VARCHAR", [int(sql_type.length)]
    if isinstance(sql_type, DateType):
        return "DATE", []
    if isinstance(sql_type, BooleanType):
        return "BOOLEAN", []
    raise CheckpointError(
        f"cannot persist column type {type(sql_type).__name__}"
    )


def _schema_spec(schema) -> list:
    out = []
    for name, sql_type in schema.columns:
        type_name, args = _type_spec(sql_type)
        out.append([name, type_name, args])
    return out


def _schema_columns(spec) -> list:
    from ..engine.types import type_from_name

    return [
        (name, type_from_name(type_name, tuple(args)))
        for name, type_name, args in spec
    ]


# ---------------------------------------------------------------------------
# Table images: one dump/load pair for checkpoint specs and attach_table
# ---------------------------------------------------------------------------


def _narrowest(bound: int) -> np.dtype:
    """The narrowest unsigned dtype holding ``0 .. bound``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bound <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def _runs(values: np.ndarray) -> dict:
    """A per-row version vector as runs of equal values: one run per
    statement that appended rows, plus one per DELETE / UPDATE hole."""
    if not len(values):
        starts = np.empty(0, dtype=np.int64)
    else:
        starts = np.flatnonzero(values[1:] != values[:-1]) + 1
        starts = np.concatenate(([0], starts))
    lengths = np.diff(np.append(starts, len(values)))
    return {
        "values": values[starts],
        "lengths": lengths.astype(_narrowest(lengths.max(initial=0))),
    }


def _dump_table(table) -> dict:
    """A table's physical state in the layout-2 image: per-row
    versions as runs, every object-storage column (VARCHAR, DECIMAL
    past 18 digits) as its storage dictionary — sorted ``uniques`` plus
    codes in the narrowest unsigned dtype — fixed-width columns as
    their rows."""
    with table.lock:
        state = table.physical_state()
        dictionaries = table.storage_dictionaries()
    columns = dict(state["columns"])
    for name, (codes, uniques) in dictionaries.items():
        columns[name] = {
            "uniques": uniques,
            "codes": codes.astype(_narrowest(len(uniques) - 1)),
        }
    return {
        "name": table.name,
        "schema": _schema_spec(table.schema),
        "layout": _TABLE_LAYOUT,
        "version": int(state["version"]),
        "rows": len(state["inserted"]),
        "inserted": _runs(state["inserted"]),
        "deleted": _runs(state["deleted"]),
        "columns": columns,
    }


def _vector(value, kinds: str, what: str) -> np.ndarray:
    if (not isinstance(value, np.ndarray) or value.ndim != 1
            or value.dtype.kind not in kinds):
        raise CheckpointError(f"malformed checkpoint image: {what}")
    return value


def _expand_runs(runs: dict, rows: int, what: str) -> np.ndarray:
    values = _vector(runs["values"], "i", f"{what} run values")
    lengths = _vector(runs["lengths"], "u", f"{what} run lengths")
    if (len(values) != len(lengths)
            or lengths.max(initial=0) > rows
            or int(lengths.sum(dtype=np.uint64)) != rows):
        raise CheckpointError(
            f"malformed checkpoint image: {what} runs do not cover the "
            f"table's {rows} rows"
        )
    return np.repeat(values, lengths.astype(np.intp))


def _checked_dictionary(stored: dict, kind: type, rows: int,
                        what: str) -> tuple:
    """A stored dictionary that names exactly the rows' keys: one code
    per row, every code inside it, every entry used, and ``uniques``
    strictly sorted values of the column's type (``None`` first)."""
    codes = _vector(stored["codes"], "u", f"{what} codes")
    uniques = _vector(stored["uniques"], "O", f"{what} dictionary")
    if len(codes) != rows:
        raise CheckpointError(
            f"malformed checkpoint image: {what} has {len(codes)} codes "
            f"for {rows} rows"
        )
    if rows and int(codes.max()) >= len(uniques):
        raise CheckpointError(
            f"malformed checkpoint image: {what} has a code past its "
            f"{len(uniques)}-entry dictionary"
        )
    if not np.bincount(codes, minlength=len(uniques)).all():
        raise CheckpointError(
            f"malformed checkpoint image: {what} has a dictionary entry "
            f"no row uses"
        )
    values = uniques.tolist()
    body = values[1:] if values and values[0] is None else values
    if set(map(type, body)) - {kind} or not all(
        map(operator.lt, body, body[1:])
    ):
        raise CheckpointError(
            f"malformed checkpoint image: {what} dictionary is not "
            f"strictly sorted {kind.__name__} values (NULL first)"
        )
    return codes, uniques


def _load_table(catalog, spec: dict):
    """Create the table a :func:`_dump_table` spec (a checkpoint
    image's, or an ``attach_table`` record's) describes and restore its
    rows, checking the spec before anything is created.  A layout-2
    object column's dictionary becomes its cached encoding."""
    from ..engine.types import VarcharType

    schema = _schema_columns(spec["schema"])
    layout = spec.get("layout", 1)
    if layout == 1:
        # every column's rows ("cols" in an attach_table record) and
        # one insert and one delete version per row
        args = (
            spec["cols"] if "cols" in spec else spec["columns"],
            spec["inserted"], spec["deleted"], spec["version"],
        )
    elif layout == _TABLE_LAYOUT:
        rows = int(spec["rows"])
        columns, dictionaries = {}, {}
        for name, sql_type in schema:
            stored, what = spec["columns"][name], f"column {name!r}"
            if sql_type.numpy_dtype != np.dtype(object):
                if len(_vector(stored, "biuf", what)) != rows:
                    raise CheckpointError(
                        f"malformed checkpoint image: {what} has "
                        f"{len(stored)} values for {rows} rows"
                    )
                columns[name] = stored
            else:
                kind = str if isinstance(sql_type, VarcharType) else int
                dictionaries[name] = _checked_dictionary(
                    stored, kind, rows, what
                )
        args = (
            columns,
            _expand_runs(spec["inserted"], rows, "insert version"),
            _expand_runs(spec["deleted"], rows, "delete version"),
            spec["version"], dictionaries,
        )
    else:
        raise CheckpointError(f"unknown table image layout {layout!r}")
    table = catalog.create_table(spec["name"], schema)
    table.restore_physical(*args)
    return table


#: record ops that create or drop a catalog object
_DDL_OPS = frozenset((
    "create_table", "attach_table", "drop_table", "create_view", "drop_view",
))


class _PendingRefreshes:
    """The logged REFRESHes replay has read and not yet run.

    A ``refresh_view`` record is a watermark, not a delta: a view
    consumes ``(its watermark, the record's]`` whatever refreshes lay
    between (exact merge — one refresh over the union of N deltas
    finishes to the bytes the N did; a window that deletes a row is
    one rebuild at the record's watermark).  So replay keeps the last
    record per view while table records stream past and runs one
    refresh per view — at the end of the scan, or before a DDL record
    is applied.  No refresh depends on an execution knob, so all of
    them run under one default context, and the ``ctx`` shape older
    writers logged in each record is ignored.
    """

    def __init__(self, catalog):
        from ..engine.pipeline import ExecutionContext

        self._catalog = catalog
        self._context = ExecutionContext()
        #: view name -> [last record, records seen]
        self._pending: dict = {}

    def add(self, record: dict) -> None:
        entry = self._pending.setdefault(record["name"], [record, 0])
        entry[0] = record
        entry[1] += 1

    def flush(self) -> None:
        pending, self._pending = self._pending, {}
        for name, (record, seen) in pending.items():
            view = self._catalog.get_view(name)
            # every logged REFRESH counted when it ran, also the ones
            # whose work an image or a later record makes unnecessary
            count = view.refresh_count + seen
            watermark = int(record["watermark"])
            if watermark > view.watermark or not view._populated:
                view.refresh(self._context, to_version=watermark)
            view.refresh_count = count


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class DurableStore:
    """One database directory: lock, checkpoint image, WAL segments.

    The store hangs off the catalog (``catalog.storage``) and every
    table/view of a durable database points back at it; the engine's
    mutation paths call the ``log_*`` methods *under their existing
    statement locks*, so the WAL observes exactly the order mutations
    were applied in.
    """

    def __init__(self, path: str, wal_sync: str = "commit",
                 checkpoint_interval: float | None = 60.0,
                 wal_limit_bytes: int = 64 << 20):
        self.path = os.path.abspath(path)
        os.makedirs(self.path, exist_ok=True)
        self.wal_sync = wal_sync
        self.checkpoint_interval = checkpoint_interval
        self.wal_limit_bytes = wal_limit_bytes
        self.catalog = None
        self.wal: WriteAheadLog | None = None
        self.closed = False
        self.checkpoints_taken = 0
        #: database-level session defaults persisted via SET-default
        self.persistent_defaults: dict = {}
        self._ckpt_lock = threading.Lock()
        self._stop = threading.Event()
        self._checkpointer: threading.Thread | None = None
        self._lock_handle = None
        self._acquire_lock()

    # -- directory lock ----------------------------------------------------
    def _acquire_lock(self) -> None:
        handle = open(os.path.join(self.path, LOCK_FILE), "a+")
        if fcntl is not None:
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise StorageError(
                    f"data directory {self.path!r} is locked by another "
                    f"process"
                ) from None
        self._lock_handle = handle

    def _release_lock(self) -> None:
        handle, self._lock_handle = self._lock_handle, None
        if handle is not None:
            if fcntl is not None:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:  # pragma: no cover - defensive
                    pass
            handle.close()

    # -- recovery ----------------------------------------------------------
    def open_catalog(self, catalog) -> None:
        """Restore ``catalog`` from checkpoint + WAL, then attach for
        logging.  The catalog must be empty."""
        first_segment = 1
        next_lsn = 1
        image_path = os.path.join(self.path, CHECKPOINT_FILE)
        if os.path.exists(image_path):
            image = self._read_checkpoint(image_path)
            first_segment = int(image["wal_segment"])
            next_lsn = int(image["next_lsn"])
            self._restore_image(catalog, image)
        refreshes = _PendingRefreshes(catalog)
        for record in scan_wal(self.path, first_segment, repair=True):
            self._apply(catalog, record, refreshes)
            next_lsn = int(record["lsn"]) + 1
        refreshes.flush()
        self.wal = WriteAheadLog(self.path, sync=self.wal_sync)
        self.wal.set_next_lsn(next_lsn)
        self.attach(catalog)

    def attach(self, catalog) -> None:
        """Wire the catalog (and everything in it) to this store."""
        self.catalog = catalog
        catalog.attach_storage(self)

    def start_checkpointer(self) -> None:
        """Start the background WAL compactor (no-op when the interval
        is ``None``)."""
        if self.checkpoint_interval is None or self._checkpointer:
            return
        thread = threading.Thread(
            target=self._checkpoint_loop, name="repro-checkpointer",
            daemon=True,
        )
        self._checkpointer = thread
        thread.start()

    def _checkpoint_loop(self) -> None:
        poll = min(1.0, self.checkpoint_interval)
        waited = 0.0
        while not self._stop.wait(poll):
            waited += poll
            try:
                tail = self.wal.tail_bytes()
            except ValueError:
                return
            if tail and (
                waited >= self.checkpoint_interval
                or tail >= self.wal_limit_bytes
            ):
                waited = 0.0
                try:
                    self.checkpoint()
                except (StorageError, ValueError):  # pragma: no cover
                    # A failed background checkpoint only delays
                    # compaction; the WAL alone still recovers.
                    pass

    # -- checkpoint --------------------------------------------------------
    def checkpoint(self) -> int:
        """Write one full catalog image and compact the WAL behind it.

        Fuzzy and non-blocking for readers: the WAL is rotated first
        (a file open under the WAL mutex), tables and views are then
        copied one statement-lock at a time, and version-skip replay
        makes the rotation-to-copy overlap harmless.  Returns the
        image's replay-horizon segment index.
        """
        with self._ckpt_lock:
            if self.closed or self.wal is None:
                raise StorageError("durable store is closed")
            horizon = self.wal.rotate()
            next_lsn = self.wal.next_lsn
            payload = encode_payload(self._capture_image(horizon, next_lsn))
            final = os.path.join(self.path, CHECKPOINT_FILE)
            tmp = final + ".tmp"
            try:
                with open(tmp, "wb") as handle:
                    write_frame(handle, payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, final)
                dir_fd = os.open(self.path, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot write checkpoint in {self.path!r}: {exc}"
                ) from exc
            self.wal.remove_segments_below(horizon)
            self.checkpoints_taken += 1
            return horizon

    def flush_wal(self) -> None:
        """Force the live WAL segment to disk (only meaningful with
        ``wal_sync='never'``; commit mode already fsyncs per record)."""
        if self.wal is not None and not self.closed:
            self.wal.flush()

    def _capture_image(self, horizon: int, next_lsn: int) -> dict:
        catalog = self.catalog
        with catalog._ddl_lock:
            tables = list(catalog._tables.values())
            views = list(catalog._views.values())
        image = {
            "format": _CHECKPOINT_FORMAT,
            "version": _CHECKPOINT_VERSION,
            "wal_segment": int(horizon),
            "next_lsn": int(next_lsn),
            "defaults": dict(self.persistent_defaults),
            "tables": [_dump_table(table) for table in tables],
            "views": [self._dump_view(view) for view in views],
        }
        image["clock"] = int(catalog.clock.value)
        return image

    @staticmethod
    def _dump_view(view) -> dict:
        with view.table.lock:
            return {
                "name": view.name,
                "sql": view.select.sql(),
                "sum_mode": view.sum_config.mode,
                "levels": int(view.sum_config.levels),
                "watermark": int(view.watermark),
                "populated": bool(view._populated),
                "refresh_count": int(view.refresh_count),
                "ngroups": int(view.ngroups),
                "key_arrays": [np.array(a, copy=True)
                               for a in view.key_arrays],
                "agg_results": {
                    sql: np.array(a, copy=True)
                    for sql, a in view.agg_results.items()
                },
            }

    @staticmethod
    def _read_checkpoint(path: str) -> dict:
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            image = decode_payload(unframe_payload(blob, context=path))
        except (OSError, SpillFormatError) as exc:
            raise CheckpointError(
                f"unreadable checkpoint {path!r}: {exc}"
            ) from exc
        if (
            not isinstance(image, dict)
            or image.get("format") != _CHECKPOINT_FORMAT
            or image.get("version") not in _READABLE_VERSIONS
        ):
            raise CheckpointError(
                f"unsupported checkpoint layout in {path!r}"
            )
        return image

    def _restore_image(self, catalog, image: dict) -> None:
        try:
            for spec in image["tables"]:
                _load_table(catalog, spec)
            for spec in image["views"]:
                view = self._make_view(catalog, spec)
                catalog.create_view(view)
                view.restore_served(
                    spec["watermark"], spec["key_arrays"],
                    spec["agg_results"], spec["ngroups"],
                    spec["populated"], spec["refresh_count"],
                )
            self.persistent_defaults.update(image.get("defaults", {}))
            catalog.clock.advance_to(int(image["clock"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed checkpoint image: {exc}"
            ) from exc

    @staticmethod
    def _make_view(catalog, spec: dict):
        from ..engine.matview import MaterializedView
        from ..engine.operators import SumConfig
        from ..engine.sql import ast, parse

        select = parse(spec["sql"])
        if not isinstance(select, ast.Select):
            raise CheckpointError(
                f"view {spec.get('name')!r} definition is not a SELECT"
            )
        # Older writers also recorded a ``buffer_size`` no kernel read
        # and could name a since-retired mode, which opens as its
        # successor (a ``sorted`` view serves repro bits from its next
        # REFRESH on).
        config = SumConfig(
            SumConfig.stored(spec["sum_mode"]), int(spec["levels"])
        )
        return MaterializedView(
            spec["name"], select, catalog.get, config
        )

    # -- WAL replay --------------------------------------------------------
    def _apply(self, catalog, record: dict, refreshes) -> None:
        op = record.get("op")
        if op in _DDL_OPS:
            # DDL can re-bind the name a pending refresh holds, or drop
            # what it reads: run the pending ones first.
            refreshes.flush()
        if op == "append":
            catalog.get(record["table"]).replay_append(
                record["version"], record["cols"]
            )
        elif op == "mask":
            catalog.get(record["table"]).replay_mask(
                record["version"], record["rows"]
            )
        elif op == "replace":
            catalog.get(record["table"]).replay_replace(
                record["version"], record["rows"], record["cols"]
            )
        elif op == "create_table":
            if record["name"] not in catalog:
                catalog.create_table(
                    record["name"], _schema_columns(record["schema"])
                )
        elif op == "attach_table":
            if record["name"] not in catalog:
                _load_table(catalog, record)
        elif op == "drop_table":
            catalog.drop(record["name"], if_exists=True)
        elif op == "create_view":
            try:
                catalog.get_view(record["name"])
            except CatalogError:
                catalog.create_view(self._make_view(catalog, record))
        elif op == "drop_view":
            catalog.drop_view(record["name"], if_exists=True)
        elif op == "refresh_view":
            refreshes.add(record)
        elif op == "set_default":
            self.persistent_defaults[record["name"]] = record["value"]
        else:
            raise CheckpointError(f"unknown WAL record op {op!r}")

    # -- logging (called by the engine under its statement locks) ----------
    def _append(self, record: dict) -> None:
        if self.closed or self.wal is None:
            return
        self.wal.append(record)

    def log_rows_appended(self, table, version: int, start: int) -> None:
        self._append({
            "op": "append",
            "table": table.name,
            "version": int(version),
            "cols": table.column_tails(start),
        })

    def log_rows_masked(self, table, version: int, hits) -> None:
        self._append({
            "op": "mask",
            "table": table.name,
            "version": int(version),
            "rows": np.asarray(hits, dtype=np.int64),
        })

    def log_rows_replaced(self, table, version: int, hits,
                          start: int) -> None:
        self._append({
            "op": "replace",
            "table": table.name,
            "version": int(version),
            "rows": np.asarray(hits, dtype=np.int64),
            "cols": table.column_tails(start),
        })

    def log_create_table(self, table) -> None:
        self._append({
            "op": "create_table",
            "name": table.name,
            "schema": _schema_spec(table.schema),
        })

    def log_attach_table(self, table) -> None:
        """A pre-populated table joined the catalog: log its full
        physical state (rows were born outside the WAL's sight)."""
        with table.lock:
            self._append({"op": "attach_table", **_dump_table(table)})

    def log_drop_table(self, name: str) -> None:
        self._append({"op": "drop_table", "name": name})

    def log_create_view(self, view) -> None:
        self._append({
            "op": "create_view",
            "name": view.name,
            "sql": view.select.sql(),
            "sum_mode": view.sum_config.mode,
            "levels": int(view.sum_config.levels),
        })

    def log_drop_view(self, name: str) -> None:
        self._append({"op": "drop_view", "name": name})

    def log_view_refreshed(self, view) -> None:
        self._append({
            "op": "refresh_view",
            "name": view.name,
            "watermark": int(view.watermark),
        })

    def log_set_default(self, name: str, value) -> None:
        self.persistent_defaults[name] = value
        self._append({"op": "set_default", "name": name, "value": value})

    # -- teardown ----------------------------------------------------------
    def _stop_checkpointer(self) -> None:
        self._stop.set()
        thread, self._checkpointer = self._checkpointer, None
        if thread is not None:
            thread.join(timeout=10.0)

    def close(self) -> None:
        """Fsync the WAL, stop the checkpointer, release the directory
        lock.  Idempotent; safe on a partially constructed store."""
        if self.closed:
            self._release_lock()
            return
        self.closed = True
        self._stop_checkpointer()
        wal = self.wal
        if wal is not None:
            wal.close()
        self._release_lock()

    def simulate_crash(self) -> None:
        """Testing hook: abandon the directory the way ``kill -9``
        would — no final fsync, no checkpoint, just dropped handles.
        Everything a committed statement fsynced is still on disk;
        nothing else is."""
        if self.closed:
            self._release_lock()
            return
        self.closed = True
        self._stop_checkpointer()
        wal = self.wal
        if wal is not None:
            wal.drop_handle()
        self._release_lock()
