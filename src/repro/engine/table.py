"""Column-store tables with MonetDB/PostgreSQL-style update semantics.

The paper's Algorithm 1 hinges on a storage-layer detail: in
PostgreSQL, "the update is implemented as the creation of a new record
and the masking of the old one, [so] the physical order is different
in the two queries".  :class:`Table` reproduces exactly that:

* rows live in append-only column arrays plus a validity mask;
* ``UPDATE`` masks the old row versions and appends the new versions
  at the tail — *physically reordering* the table;
* scans return rows in physical order (valid rows only), which is the
  order aggregation operators consume.

That makes the engine a faithful testbed for the paper's claim: a
query result over conventional floats may change after an UPDATE that
did not touch the aggregated column, while the reproducible SUM cannot.

MVCC snapshot reads
-------------------

Row versions are drawn from a :class:`VersionClock` — private to the
table when it stands alone, shared across the whole catalog once the
table is registered (:mod:`repro.engine.catalog`).  A mutating
statement *begins* a version, applies its changes under the table
lock, and *commits*; :attr:`VersionClock.stable` is the highest
version with no uncommitted predecessor.  A reader that pins
``stable`` at admission and scans with ``snapshot=pin`` sees exactly
the rows visible at that instant — writers that begin later (or were
still in flight at admission) are invisible, bit for bit, no matter
how long the scan takes.  Writers serialize per table through
:attr:`Table.lock`; readers only take it briefly to materialize column
arrays, never for the duration of a query.

What a column holds
-------------------

A :class:`Column` *is* its storage: one capacity-doubling NumPy buffer
of the type's storage dtype plus a row count — no Python list of boxed
values behind it, nothing to convert before a scan.  Fixed-width types
cost their dtype's width per row (INT/DATE 4 bytes, BIGINT/DOUBLE/
DECIMAL(p <= 18) 8, BOOLEAN 1); VARCHAR and DECIMAL(p > 18) are
object-dtype buffers, 8 bytes of pointer per row plus the ``str`` /
``int`` it points at (NumPy arrays are not traversed by the cyclic
collector, so neither costs a gen-2 collection anything).  The table
adds two ``int64`` vectors — each row's insert and delete version, 16
bytes per row — and derives validity from them.

Every array the table hands out is a view that no later statement
changes: an append writes only buffer slots past the committed row
count (so past every earlier view), a capacity growth allocates a
fresh buffer, and a DELETE/UPDATE overwrites delete versions in a
fresh copy of that vector.  The same rule makes statements atomic:
values are coerced and written past the row count first, and become
rows only when every column has taken them.

Scans are slices
----------------

Statements append at the tail, so insert versions never decrease in
physical order, and the table tracks the lowest delete version it
holds.  A snapshot below that version sees exactly the physical prefix
``[0, rows_at(snapshot))``: :meth:`Table.read` then hands out
``buffer[:n]`` of every column and dictionary — no mask, no copy —
and only a snapshot that sees a delete pays for a masked copy.  What a
read returns is read-only either way: writing into it raises instead
of reaching the table.

Statements arrive as columns
----------------------------

Every DML statement hands the table one sequence of values *per
column* — ``INSERT ... VALUES`` the lists its literal rows were scanned
into, ``INSERT ... SELECT`` the result arrays, ``UPDATE`` the arrays
its assignments evaluated to — and :meth:`Column.coerce` converts each
whole (:meth:`Table.coerce_columns`; vectorised for the integer, float
and boolean types, value by value for DECIMAL, VARCHAR and DATE) before
:meth:`Table.insert_columns` / :meth:`Table.replace_columns` stage
anything.  ``insert_rows`` / ``insert_row`` / ``replace_rows`` /
``append_versions`` take rows as dicts and transpose them into the same
call.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from ..errors import BindError, DataError
from .types import BIGINT, SqlType

__all__ = ["Column", "Table", "Schema", "VersionClock"]


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a read-only array (a new view when it is a slice of
    storage; the flag never reaches the buffer it views)."""
    arr = arr.view()
    arr.flags.writeable = False
    return arr


class VersionClock:
    """Monotone DML clock with a committed-prefix watermark.

    ``begin()`` hands out the next version and marks it in flight;
    ``commit()`` retires it.  :attr:`stable` is the largest version
    ``v`` such that every version ``<= v`` has committed — the value
    snapshot readers pin.  A reader admitted while a write is still in
    flight therefore pins *before* that write and can never observe
    its effects, without ever blocking on the writer.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._next = 0
        self._inflight: set[int] = set()

    def begin(self) -> int:
        with self._lock:
            self._next += 1
            version = self._next
            self._inflight.add(version)
            return version

    def commit(self, version: int) -> None:
        with self._lock:
            self._inflight.discard(version)

    def advance_to(self, version: int) -> None:
        """Ensure future versions exceed ``version`` (used when a
        standalone table joins a catalog's shared clock)."""
        with self._lock:
            self._next = max(self._next, int(version))

    @property
    def value(self) -> int:
        """The most recently issued version (committed or not)."""
        with self._lock:
            return self._next

    @property
    def stable(self) -> int:
        """The committed-prefix watermark: the snapshot readers pin."""
        with self._lock:
            if self._inflight:
                return min(self._inflight) - 1
            return self._next


def _null_first(value):
    """Sort key of an object column's dictionary: ``None`` (NULL)
    before every real value, matching the object-key sort convention
    of the group finalizers (``np.unique`` cannot order ``None``)."""
    return (value is not None, value)


def _extend(codes: np.ndarray, uniques: np.ndarray,
            tail: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An object column's dictionary ``(codes, uniques)`` extended over
    ``tail``, the rows appended after it: values new to the dictionary
    merge into the sorted ``uniques``, the old codes are remapped by one
    take, and only the tail goes through Python."""
    values = tail.tolist()
    known = uniques.tolist()
    index = {value: j for j, value in enumerate(known)}
    fresh = set(values).difference(index)
    if fresh:
        merged = sorted((*known, *fresh), key=_null_first)
        index = {value: j for j, value in enumerate(merged)}
        remap = np.fromiter(
            map(index.__getitem__, known), dtype=np.int64, count=len(known)
        )
        codes = remap[codes]
        uniques = np.empty(len(merged), dtype=object)
        uniques[:] = merged
    # one C-level sweep: no generator frame per row
    tail_codes = np.fromiter(
        map(index.__getitem__, values), dtype=np.int64, count=len(values)
    )
    return np.concatenate((codes, tail_codes)), uniques


class Column:
    """One append-only column: a typed NumPy buffer and a row count.

    Rows ``[0, len(self))`` of the buffer are the column; the slots
    past them are where the next statement *stages* its values
    (:meth:`reserve`) before :meth:`commit` turns them into rows.  A
    view from :meth:`array` — and every slice :meth:`Table.read` hands
    out of it, read-only — therefore never changes: appends write past
    it, growth and :meth:`put` move to a fresh buffer.  Callers must
    hold the owning table's lock (every :class:`Table` accessor does).
    """

    def __init__(self, name: str, sql_type: SqlType):
        self.name = name
        self.sql_type = sql_type
        self._buffer = np.empty(0, dtype=sql_type.numpy_dtype)
        self._rows = 0
        self._encoding: tuple[np.ndarray, np.ndarray] | None = None

    def coerce(self, values) -> np.ndarray:
        """SQL values — a list of Python literals or an array of values
        — as one storage array, converted a column at a time
        (:meth:`SqlType.coerce_column`).  A value the type rejects is a
        :class:`DataError` naming the column; nothing is stored."""
        try:
            return self.sql_type.coerce_column(values)
        except (ValueError, TypeError, OverflowError) as exc:
            raise DataError(f"column {self.name!r}: {exc}") from exc

    def checked(self, values) -> np.ndarray:
        """Pre-coerced storage values as an array that assigns into the
        buffer without loss — the input itself when it already is one."""
        dtype = self._buffer.dtype
        arr = np.asarray(values, dtype=object if dtype == object else None)
        if arr.ndim != 1:
            raise ValueError(f"column {self.name!r}: expected a 1-d array")
        if arr.dtype != dtype and arr.size:
            if arr.dtype.kind not in "biuf":
                raise DataError(
                    f"column {self.name!r}: cannot store {arr.dtype} values "
                    f"as {self.sql_type.name}"
                )
            if dtype.kind == "i":
                # the assignment casts like C: in range it truncates,
                # out of range (or NaN) it would store garbage
                info = np.iinfo(dtype)
                low, high = arr.min().item(), arr.max().item()
                if not (info.min <= low and high <= info.max):
                    raise DataError(
                        f"column {self.name!r}: value out of range for "
                        f"{self.sql_type.name}"
                    )
        return arr

    def _move(self, capacity: int) -> None:
        fresh = np.empty(capacity, dtype=self._buffer.dtype)
        fresh[: self._rows] = self._buffer[: self._rows]
        self._buffer = fresh

    def reserve(self, count: int) -> np.ndarray:
        """The ``count`` buffer slots past the rows, growing by doubling
        when they do not exist yet.  Writing them is invisible to every
        view and to :meth:`array` until :meth:`commit`."""
        end = self._rows + count
        if end > len(self._buffer):
            self._move(max(end, 2 * len(self._buffer)))
        return self._buffer[self._rows : end]

    def commit(self, count: int) -> None:
        """Turn the first ``count`` reserved slots into rows.  A cached
        dictionary stays: it covers a prefix of the rows, and
        :meth:`encoding` extends it over the new tail."""
        self._rows += count

    def put(self, indices: np.ndarray, value) -> None:
        """Overwrite rows in a fresh copy of the buffer (one copy plus
        O(hits)), so views handed out earlier keep what they showed."""
        self._move(len(self._buffer))
        self._buffer[: self._rows][indices] = value
        self._encoding = None

    def array(self) -> np.ndarray:
        """The column as a NumPy array: a zero-copy view of the rows."""
        return self._buffer[: self._rows]

    def encoding(self) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary encoding ``(codes, uniques)`` over all physical rows.

        ``uniques`` holds the distinct stored values in sorted order
        (``None`` first) and ``codes[i]`` is the index of row ``i``'s
        value in ``uniques`` — the column-store analogue of a
        dictionary-compressed string column, which lets the vectorized
        GROUP BY turn key comparisons into integer arithmetic
        (:mod:`repro.engine.vectorized`).  Cached: appends extend an
        object column's dictionary with their rows only (:func:`_extend`),
        :meth:`put` drops it, and a checkpoint image restores it
        (:meth:`install_encoding`).
        """
        cached = self._encoding
        if cached is not None and len(cached[0]) == self._rows:
            return cached
        arr = self.array()
        if cached is not None and arr.dtype == object:
            self._encoding = _extend(*cached, arr[len(cached[0]) :])
        elif arr.dtype == object:
            self._encoding = _extend(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=object), arr
            )
        else:
            uniques, codes = np.unique(arr, return_inverse=True)
            self._encoding = (codes.astype(np.int64, copy=False), uniques)
        return self._encoding

    def install_encoding(self, codes, uniques) -> None:
        """Adopt ``(codes, uniques)`` — a dictionary over every row, as
        :meth:`encoding` computes it — as the cached encoding (the
        caller vouches for it: a checkpoint image's stored dictionary
        the rows were just rebuilt from)."""
        if len(codes) != self._rows:
            raise ValueError(f"column {self.name!r}: dictionary covers "
                             f"{len(codes)} of {self._rows} rows")
        self._encoding = (
            np.array(codes, dtype=np.int64), np.array(uniques, dtype=object)
        )

    def __len__(self) -> int:
        return self._rows


class Schema:
    """Ordered (name, type) column list."""

    def __init__(self, columns: list[tuple[str, SqlType]]):
        seen = set()
        for name, _ in columns:
            low = name.lower()
            if low in seen:
                raise ValueError(f"duplicate column {name!r}")
            seen.add(low)
        self.columns = [(name.lower(), sql_type) for name, sql_type in columns]

    def names(self) -> list[str]:
        return [name for name, _ in self.columns]

    def type_of(self, name: str) -> SqlType:
        low = name.lower()
        for col, sql_type in self.columns:
            if col == low:
                return sql_type
        raise KeyError(f"no column {name!r}")

    def __contains__(self, name: str) -> bool:
        return name.lower() in (col for col, _ in self.columns)

    def __len__(self) -> int:
        return len(self.columns)


class Table:
    """A named table: schema + versioned append chunks + delete vector.

    Every mutation advances a monotone **row-version watermark**
    (:attr:`version`).  Rows remember the watermark value of the
    statement that appended them (their *insert version*) and, in the
    delete vector, the watermark of the statement that masked them
    (their *delete version*; 0 = live).  A consumer that snapshotted
    the watermark at time ``W`` can later read exactly the rows
    inserted since ``W`` — :meth:`read` from physical row
    :meth:`rows_at` ``W`` on — and ask :meth:`deletes_between` whether
    any row live at ``W`` is gone: the delta feed behind
    incrementally-maintained materialized views
    (:mod:`repro.engine.matview`).  Or it scans with ``snapshot=W`` to
    see the table exactly as it stood at ``W`` (the MVCC read path
    behind the serving layer, :mod:`repro.server`).

    Storage is arrays only (see the module docstring): one
    :class:`Column` per schema column plus two ``int64`` columns of
    per-row versions; no attribute is a Python container that grows
    with the row count.  Every array handed out is a stable view.

    Concurrency: :attr:`lock` (re-entrant) serializes mutating
    statements and guards reads of the row count.  Each mutating
    method is statement-atomic under it — a statement that raises
    leaves rows, version and log untouched — and multi-call statements
    (UPDATE) use :meth:`replace_columns` so the delete and re-insert
    share one version.
    """

    def __init__(self, name: str, schema: Schema,
                 clock: VersionClock | None = None):
        self.name = name.lower()
        self.schema = schema
        self._columns = {
            col_name: Column(col_name, sql_type)
            for col_name, sql_type in schema.columns
        }
        #: per physical row: watermark of the appending statement
        self._inserted = Column("<inserted>", BIGINT)
        #: per physical row: watermark of the deleting statement, 0 = live
        self._deleted = Column("<deleted>", BIGINT)
        #: the lowest delete version in ``_deleted`` (inf: none yet) — a
        #: snapshot below it sees a prefix of the rows (:meth:`read`)
        self._first_delete = math.inf
        #: the highest delete version in ``_deleted`` (0: none yet) — no
        #: row is gone since a watermark at or past it
        #: (:meth:`deletes_between`)
        self._last_delete = 0
        #: monotone DML watermark (bumped once per mutating statement)
        self._version = 0
        #: version source — private until a catalog attaches its own
        self._clock = clock if clock is not None else VersionClock()
        #: statement/materialization lock (see class docstring)
        self.lock = threading.RLock()
        #: durable store logging mutations (:mod:`repro.storage.durable`);
        #: ``None`` keeps the table purely in-memory with zero overhead
        self._storage = None

    def attach_clock(self, clock: VersionClock) -> None:
        """Switch to a shared clock (catalog registration), keeping
        existing row versions valid by advancing the shared clock past
        them."""
        if clock is self._clock:
            return
        with self.lock:
            clock.advance_to(self._version)
            self._clock = clock

    def attach_storage(self, storage) -> None:
        """Start logging this table's mutations to a durable store."""
        with self.lock:
            self._storage = storage

    # -- size -------------------------------------------------------------
    def __len__(self) -> int:
        """Number of *visible* rows."""
        return int(np.count_nonzero(self.valid_mask()))

    @property
    def physical_rows(self) -> int:
        """Number of stored row versions (visible + masked)."""
        return len(self._deleted)

    def rows_at(self, snapshot: int | None = None) -> int:
        """Row versions inserted at or before ``snapshot`` (every one
        when ``None``) — the planner's cardinality input, an upper
        bound on the rows visible there (versions masked since still
        count).  Statements append at the tail under :attr:`lock`, so
        insert versions are non-decreasing in physical order and this
        is one binary search."""
        with self.lock:
            inserted = self._inserted.array()
            if snapshot is None:
                return len(inserted)
            return int(np.searchsorted(inserted, snapshot, side="right"))

    @property
    def version(self) -> int:
        """The current row-version watermark."""
        return self._version

    def content_version(self, snapshot: int | None = None) -> int:
        """What names this table's rows as ``snapshot`` sees them — the
        key of everything that copies them (cached join builds): the
        watermark when the snapshot covers every statement
        the table has seen (an in-flight writer has already raised it
        past a reader pinned before), the snapshot itself otherwise."""
        if snapshot is None or snapshot >= self._version:
            return self._version
        return int(snapshot)

    def valid_mask(self) -> np.ndarray:
        """Physical-row liveness now (a fresh array per call)."""
        with self.lock:
            return self._deleted.array() == 0

    def snapshot_mask(self, snapshot: int, start: int = 0) -> np.ndarray:
        """Physical-row visibility at version ``snapshot``: inserted at
        or before it, not deleted at or before it — of the rows from
        ``start`` on."""
        with self.lock:
            ins = self._inserted.array()[start:]
            del_ = self._deleted.array()[start:]
            return (ins <= snapshot) & ((del_ == 0) | (del_ > snapshot))

    def deletes_between(self, since: int, upto: int) -> bool:
        """True when a row live at watermark ``since`` is masked at
        ``upto`` — the delta a materialized view cannot merge.  A row
        both appended and masked inside the window cancels out: it is
        not live at ``since``.  O(1) unless a delete landed after
        ``since``; then one pass over the rows appended by ``since``.
        The bounded window is what lets WAL recovery re-run a REFRESH
        at exactly its logged watermark even though later mutations
        are already in the table."""
        with self.lock:
            if self._last_delete <= since:
                return False
            masked = self._deleted.array()[: self.rows_at(since)]
            return bool(np.any((masked > since) & (masked <= upto)))

    def changed_between(self, a: int, b: int) -> bool:
        """True when any insert or delete landed in version window
        ``(min(a,b), max(a,b)]`` — i.e. states ``a`` and ``b`` differ."""
        lo, hi = (a, b) if a <= b else (b, a)
        if lo == hi:
            return False
        with self.lock:
            ins, del_ = self._inserted.array(), self._deleted.array()
            return bool(
                np.any((ins > lo) & (ins <= hi))
                or np.any((del_ > lo) & (del_ <= hi))
            )

    # -- mutation ----------------------------------------------------------
    def coerce_columns(self, values: dict) -> dict:
        """SQL values per named column (lists of Python literals or
        arrays) as storage arrays.  A statement converts everything it
        means to store through here *first*, so a value its column
        rejects (:class:`DataError`) fails it with nothing staged."""
        for name in values:
            if name not in self._columns:
                raise BindError(f"table {self.name!r} has no column {name!r}")
        return {
            name: self._columns[name].coerce(column)
            for name, column in values.items()
        }

    def _transpose(self, rows: list[dict]) -> dict:
        """Row dicts as one list of values per schema column."""
        names = self.schema.names()
        lowered = [{k.lower(): v for k, v in row.items()} for row in rows]
        for row in lowered:
            missing = [n for n in names if n not in row]
            if missing:
                raise ValueError(f"missing values for columns {missing}")
        return {name: [row[name] for row in lowered] for name in names}

    def _stage(self, columns: dict) -> int:
        """Check one statement's per-column storage values and write
        them past the committed rows — the single copy every append
        path makes.  Returns the row count; :meth:`_apply` commits."""
        arrays = {}
        for name, column in self._columns.items():
            if name not in columns:
                raise BindError(
                    f"table {self.name!r}: no values for column {name!r}"
                )
            arrays[name] = column.checked(columns[name])
        lengths = {len(arr) for arr in arrays.values()}
        if len(lengths) > 1:
            raise ValueError("all columns must have the same length")
        nrows = lengths.pop() if lengths else 0
        for name, arr in arrays.items():
            self._columns[name].reserve(nrows)[:] = arr
        return nrows

    def _apply(self, version: int, hits, nrows: int,
               inserted=None, deleted=0) -> None:
        """Mask ``hits`` and turn the ``nrows`` staged rows into rows
        (inserted by ``version`` and live, unless an image says
        otherwise); ``version`` becomes the watermark.  Nothing here
        can fail half-way."""
        if hits is not None and len(hits):
            overwritten = self._deleted.array()[hits]
            self._deleted.put(hits, version)
            if np.any(overwritten == self._first_delete):
                # a replay re-masked a row holding the lowest version
                self._first_delete = self._lowest_delete()
            else:
                self._first_delete = min(self._first_delete, version)
            self._last_delete = version
        if nrows:
            self._inserted.reserve(nrows)[:] = (
                version if inserted is None else inserted
            )
            self._deleted.reserve(nrows)[:] = deleted
            for column in (*self._columns.values(), self._inserted,
                           self._deleted):
                column.commit(nrows)
            if not np.isscalar(deleted):  # an image's rows may be masked
                self._first_delete = self._lowest_delete()
                self._last_delete = int(self._deleted.array().max())
        self._version = version

    def _lowest_delete(self) -> int | float:
        """The lowest delete version any row holds (inf: none)."""
        deleted = self._deleted.array()
        masked = deleted[deleted != 0]
        return int(masked.min()) if masked.size else math.inf

    def _live(self, physical_indices) -> np.ndarray:
        """The subset of ``physical_indices`` that is not yet masked."""
        indices = np.asarray(physical_indices, dtype=np.int64)
        return indices[self._deleted.array()[indices] == 0]

    def _statement(self, hits=None, columns=None) -> int:
        """One DML statement: mask ``hits`` and/or append ``columns``
        (storage arrays) under a single new version, then log it;
        returns the rows appended.  A statement with no effect does not
        advance the watermark, so it cannot make a fresh materialized
        view look stale."""
        nrows = 0 if columns is None else self._stage(columns)
        if not nrows and (hits is None or not len(hits)):
            return nrows
        start = self.physical_rows
        version = self._clock.begin()
        try:
            self._apply(version, hits, nrows)
            if self._storage is not None:
                if hits is None:
                    self._storage.log_rows_appended(self, version, start)
                elif columns is None:
                    self._storage.log_rows_masked(self, version, hits)
                else:
                    self._storage.log_rows_replaced(
                        self, version, hits, start
                    )
        finally:
            self._clock.commit(version)
        return nrows

    def insert_columns(self, values: dict) -> int:
        """Append one statement's rows, given as SQL values per column,
        as one versioned chunk (one watermark bump — INSERT ... VALUES /
        INSERT ... SELECT); returns the row count.  An empty statement
        leaves the watermark untouched."""
        with self.lock:
            return self._statement(columns=self.coerce_columns(values))

    def insert_row(self, values: dict) -> None:
        self.insert_rows([values])

    def insert_rows(self, rows: list[dict]) -> int:
        """:meth:`insert_columns` for rows given as dicts."""
        return self.insert_columns(self._transpose(rows))

    def bulk_load(self, columns: dict) -> None:
        """Load pre-coerced storage arrays (used by the TPC-H generator)."""
        with self.lock:
            self._statement(
                columns={k.lower(): v for k, v in columns.items()}
            )

    def mask_rows(self, physical_indices: np.ndarray) -> int:
        """Delete row versions (the masking half of UPDATE)."""
        with self.lock:
            hits = self._live(physical_indices)
            self._statement(hits=hits)
            return len(hits)

    def replace_columns(self, physical_indices: np.ndarray,
                        columns: dict) -> int:
        """One UPDATE statement: mask the old versions and append the
        new ones (storage arrays per column — :meth:`coerce_columns`
        makes them) under a *single* version, so a snapshot reader sees
        either the whole statement or none of it — never the masked
        half without the re-inserted half."""
        with self.lock:
            hits = self._live(physical_indices)
            self._statement(hits=hits, columns=columns)
            return len(hits)

    def replace_rows(self, physical_indices: np.ndarray,
                     rows: list[dict]) -> int:
        """:meth:`replace_columns` for new versions given as dicts."""
        return self.replace_columns(
            physical_indices, self.coerce_columns(self._transpose(rows))
        )

    def append_versions(self, rows: list[dict]) -> None:
        """Append new row versions (the re-insertion half of UPDATE)."""
        self.insert_rows(rows)

    # -- durability: logging + replay -------------------------------------
    def column_tails(self, start: int) -> dict:
        """Storage arrays of physical rows ``start:`` per column — the
        physical effect of one append, as the WAL records it."""
        with self.lock:
            return {
                name: column.array()[start:]
                for name, column in self._columns.items()
            }

    def physical_state(self) -> dict:
        """The table's physical state, as the keyword arguments of
        :meth:`restore_physical`: every column's rows (visible and
        masked), per-row insert/delete versions, the watermark.  (A
        checkpoint image stores object columns as their
        :meth:`storage_dictionaries` instead.)"""
        with self.lock:
            return {
                "columns": self.column_tails(0),
                "inserted": self._inserted.array(),
                "deleted": self._deleted.array(),
                "version": self._version,
            }

    def _replay(self, version: int, indices=None, columns=None) -> None:
        """Re-apply one logged statement (idempotent: versions the table
        already contains — a fuzzy checkpoint overlap — are skipped)."""
        with self.lock:
            version = int(version)
            if version <= self._version:
                return
            if indices is not None:
                indices = np.asarray(indices, dtype=np.int64)
            nrows = 0 if columns is None else self._stage(columns)
            self._apply(version, indices, nrows)
            self._clock.advance_to(version)

    def replay_append(self, version: int, columns: dict) -> None:
        """Re-apply one logged append."""
        self._replay(version, columns=columns)

    def replay_mask(self, version: int, indices) -> None:
        """Re-apply one logged delete."""
        self._replay(version, indices=indices)

    def replay_replace(self, version: int, indices, columns: dict) -> None:
        """Re-apply one logged UPDATE: mask + append under one version."""
        self._replay(version, indices=indices, columns=columns)

    def storage_dictionaries(self) -> dict:
        """``{name: (codes, uniques)}`` — :meth:`Column.encoding` over
        every physical row — for the object-storage columns (VARCHAR,
        DECIMAL past 18 digits): what a checkpoint image stores for
        them instead of their rows."""
        with self.lock:
            return {
                name: column.encoding()
                for name, column in self._columns.items()
                if column.sql_type.numpy_dtype == np.dtype(object)
            }

    def restore_physical(self, columns: dict, inserted, deleted,
                         version: int, dictionaries: dict | None = None
                         ) -> None:
        """Install a checkpointed physical state into a freshly created
        (empty) table: column values, per-row insert/delete versions,
        and the watermark — the exact layout the image captured.

        ``dictionaries`` gives object columns as their storage
        dictionary ``(codes, uniques)`` instead of in ``columns``: the
        rows are ``uniques[codes]`` and the pair becomes the column's
        cached :meth:`Column.encoding`, so nothing re-encodes them."""
        dictionaries = dictionaries or {}
        with self.lock:
            if self.physical_rows:
                raise ValueError("restore_physical requires an empty table")
            columns = dict(columns)
            for name, (codes, uniques) in dictionaries.items():
                columns[name] = np.asarray(uniques, dtype=object)[codes]
            nrows = self._stage(columns)
            inserted = self._inserted.checked(inserted)
            deleted = self._deleted.checked(deleted)
            if not len(inserted) == len(deleted) == nrows:
                raise ValueError("row / version length mismatch in image")
            self._apply(int(version), None, nrows, inserted, deleted)
            self._clock.advance_to(self._version)
            for name, (codes, uniques) in dictionaries.items():
                self._columns[name].install_encoding(codes, uniques)

    # -- access --------------------------------------------------------------
    def column_array(self, name: str, visible_only: bool = True) -> np.ndarray:
        with self.lock:
            arr = self._columns[name.lower()].array()
            if visible_only:
                return arr[self.valid_mask()]
            return arr

    def _visible(self, snapshot: int | None,
                 start: int = 0) -> int | np.ndarray:
        """The one visibility decision of a read (under :attr:`lock`)
        over the physical rows from ``start`` on: ``n`` when the rows
        visible at ``snapshot`` (now, when ``None``) are exactly
        ``[start, n)`` — no delete at or before it — and their mask
        over ``[start, physical_rows)`` otherwise."""
        if snapshot is None:
            if self._first_delete == math.inf:
                return self.physical_rows
            return self._deleted.array()[start:] == 0
        if snapshot < self._first_delete:
            return self.rows_at(snapshot)
        return self.snapshot_mask(snapshot, start)

    def read(self, columns: list[str] | None = None, encode=(),
             snapshot: int | None = None,
             start: int = 0) -> tuple[dict, dict, int]:
        """Visible rows in physical order: ``(arrays, encodings,
        copied)``, all under one visibility decision.

        ``arrays`` maps the named columns (every column when ``None``)
        to their visible rows; ``encodings`` maps each object-storage
        column named in ``encode`` to ``(codes, uniques)``, its storage
        dictionary (:meth:`Column.encoding`) with ``codes`` over the
        same rows (other columns are skipped — their keys factorize
        cheaply with :func:`numpy.unique`).  ``snapshot`` pins
        visibility at a row-version watermark: rows of later (or still
        in-flight) statements are excluded.  ``start`` skips the
        physical rows before it: from :meth:`rows_at` a watermark on,
        the rows visible at ``snapshot`` are the ones inserted since
        that watermark, and no mask is taken over the rows before it.

        Every array is read-only and never changes, so it is safe to
        read lock-free while writers go on.  When no delete is visible
        at the snapshot each one is a slice of the table's own buffer
        and ``copied`` is 0; otherwise the visible rows are copied out
        through their mask and ``copied`` counts them.
        """
        names = self.schema.names() if columns is None else [
            name.lower() for name in columns
        ]
        keys = []
        for name in encode:
            column = self._columns.get(name.lower())
            if (column is not None
                    and column.sql_type.numpy_dtype == np.dtype(object)):
                keys.append(column.name)
        if not names and not keys:  # nothing to decide visibility for
            return {}, {}, 0
        with self.lock:
            visible = self._visible(snapshot, start)
            if isinstance(visible, int):
                rows, stop, copied = slice(None), visible, 0
            else:
                rows, stop = visible, start + len(visible)
                copied = int(np.count_nonzero(visible))
            arrays = {
                name: _read_only(
                    self._columns[name].array()[start:stop][rows]
                )
                for name in names
            }
            encodings = {}
            for name in keys:
                codes, uniques = self._columns[name].encoding()
                encodings[name] = (
                    _read_only(codes[start:stop][rows]), uniques
                )
        return arrays, encodings, copied

    def scan(self, columns: list[str] | None = None,
             snapshot: int | None = None) -> dict:
        """Visible rows in physical order, as column arrays: the
        ``arrays`` of :meth:`read` — read-only views that never change,
        slices of the table's buffers unless the snapshot sees a delete.

        ``columns`` restricts the scan to the named columns (projection
        pushdown for the vectorized pipeline); ``None`` scans all.
        ``snapshot`` pins visibility at a row-version watermark.
        """
        return self.read(columns, snapshot=snapshot)[0]

    def morsels(self, morsel_size: int, columns: list[str] | None = None,
                snapshot: int | None = None):
        """Visible rows as columnar chunks of at most ``morsel_size`` rows.

        Chunks are zero-copy views over the :meth:`scan` arrays, yielded
        in physical order; an empty table yields one empty morsel so
        downstream operators still see the column dtypes.  ``columns``
        restricts the scan (projection pushdown); the chunk row count is
        preserved even if the restriction is empty.  ``snapshot`` pins
        row visibility as in :meth:`scan`.
        """
        if morsel_size < 1:
            raise ValueError("morsel_size must be >= 1")
        data = self.scan(self.projection(columns), snapshot=snapshot)
        names = list(data.keys())
        nrows = len(data[names[0]]) if names else 0
        if nrows == 0:
            yield data
            return
        for start in range(0, nrows, morsel_size):
            yield {
                name: arr[start : start + morsel_size]
                for name, arr in data.items()
            }

    def projection(self, columns: list[str] | None) -> list[str] | None:
        """The columns a scan of ``columns`` reads: ``columns``, or the
        first column when that is an empty list — a scan keeps one
        column so its row count survives (COUNT(*)-only plans still
        need to know how many rows each morsel has)."""
        if columns is not None and not columns and self.schema.names():
            return [self.schema.names()[0]]
        return columns

    def key_encodings(self, columns, snapshot: int | None = None) -> dict:
        """Dictionary encodings for the named object-dtype columns: the
        ``encodings`` of :meth:`read` — ``{name: (codes, uniques)}``
        with ``codes`` read-only over the *visible* rows in physical
        (scan) order, pinned at ``snapshot`` when given.  Columns with
        non-object storage are skipped."""
        return self.read([], columns, snapshot)[1]

    def dictionary_size(self, name: str) -> int:
        """Distinct values the named column's storage dictionary holds
        — over every physical row, so an upper bound on its distinct
        values at any snapshot."""
        with self.lock:
            return len(self._columns[name.lower()].encoding()[1])

    def physical_scan(self) -> tuple[dict, np.ndarray]:
        """All row versions plus the validity mask (for UPDATE/DELETE)."""
        with self.lock:
            return (
                {
                    col_name: self._columns[col_name].array()
                    for col_name, _ in self.schema.columns
                },
                self.valid_mask(),
            )

    def rows(self) -> list[tuple]:
        """Visible rows as Python tuples (natural values)."""
        data = self.scan()
        out = []
        names = self.schema.names()
        types = [self.schema.type_of(n) for n in names]
        nrows = len(data[names[0]]) if names else 0
        for i in range(nrows):
            out.append(
                tuple(t.to_python(data[n][i]) for n, t in zip(names, types))
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Table({self.name!r}, {len(self.schema)} cols, "
            f"{len(self)}/{self.physical_rows} rows)"
        )
