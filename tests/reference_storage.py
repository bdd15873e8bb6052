"""List-based reference model of :class:`repro.engine.table.Table`.

This is the storage layout the engine used before columns became
arrays — one Python ``list`` of boxed storage values per column, two
more lists of per-row insert/delete versions — kept as the oracle of
the storage-model property test (``tests/engine/test_storage_model.py``).
It answers the same questions as the real table (``scan`` at a
watermark, the delta since one — ``delta_masks`` states it as the
inserted rows and the deleted ones —, ``column_tails``,
``key_encodings``, ...) by the most literal means available: loops
over rows.

The one deliberate difference from that old code is statement
atomicity: every statement validates all of its values before it
touches a list, so a failing statement leaves no trace (the old code
tore rows; that was a bug, not a semantic).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ListTable"]


def _storage_values(sql_type, values) -> list:
    """Pre-coerced storage values as a list of Python objects, refused
    when the column's dtype cannot hold them."""
    dtype = sql_type.numpy_dtype
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if dtype.kind == "i":
        info = np.iinfo(dtype)
        values = [int(v) for v in values]
        if any(not info.min <= v <= info.max for v in values):
            raise ValueError(f"value out of range for {sql_type.name}")
    return values


class ListTable:
    def __init__(self, schema):
        self.schema = schema
        self.data = {name: [] for name in schema.names()}
        self.inserted: list[int] = []
        self.deleted: list[int] = []
        self.version = 0

    # -- helpers -----------------------------------------------------------
    @property
    def physical_rows(self) -> int:
        return len(self.deleted)

    def _array(self, name, rows) -> np.ndarray:
        dtype = self.schema.type_of(name).numpy_dtype
        out = np.empty(len(rows), dtype=dtype)
        for j, i in enumerate(rows):
            out[j] = self.data[name][i]
        return out

    def _coerce_rows(self, rows) -> dict:
        columns = {name: [] for name in self.data}
        for row in rows:
            lowered = {k.lower(): v for k, v in row.items()}
            for name, sql_type in self.schema.columns:
                if name not in lowered:
                    raise ValueError(f"missing value for {name!r}")
                columns[name].append(sql_type.coerce(lowered[name]))
        return columns

    def _checked_columns(self, columns) -> dict:
        lowered = {k.lower(): v for k, v in columns.items()}
        out = {
            name: _storage_values(sql_type, lowered[name])
            for name, sql_type in self.schema.columns
        }
        if len({len(v) for v in out.values()}) > 1:
            raise ValueError("ragged columns")
        return out

    def _live(self, indices) -> list:
        indices = [int(i) for i in np.asarray(indices, dtype=np.int64)]
        for i in indices:
            self.deleted[i]  # IndexError before anything changes
        return [i for i in indices if self.deleted[i] == 0]

    def _apply(self, version, hits, columns) -> None:
        for i in hits:
            self.deleted[i] = version
        nrows = len(next(iter(columns.values()))) if columns else 0
        for name, values in columns.items():
            self.data[name].extend(values)
        self.inserted.extend([version] * nrows)
        self.deleted.extend([0] * nrows)
        self.version = version

    def _statement(self, version, hits, columns) -> None:
        nrows = len(next(iter(columns.values()))) if columns else 0
        if hits or nrows:
            self._apply(version, hits, columns)

    # -- statements (``version`` is what the real table's clock issued) -----
    def insert_rows(self, rows, version) -> None:
        self._statement(version, [], self._coerce_rows(rows))

    def bulk_load(self, columns, version) -> None:
        self._statement(version, [], self._checked_columns(columns))

    def mask_rows(self, indices, version) -> int:
        hits = self._live(indices)
        self._statement(version, hits, {})
        return len(hits)

    def replace_rows(self, indices, rows, version) -> int:
        hits = self._live(indices)
        self._statement(version, hits, self._coerce_rows(rows))
        return len(hits)

    def replay(self, version, indices=None, columns=None) -> None:
        if version <= self.version:
            return
        columns = {} if columns is None else self._checked_columns(columns)
        hits = [] if indices is None else [int(i) for i in indices]
        self._apply(version, hits, columns)

    def restore_physical(self, columns, inserted, deleted, version) -> None:
        assert not self.deleted
        self._apply(version, [], self._checked_columns(columns))
        self.inserted = [int(v) for v in inserted]
        self.deleted = [int(v) for v in deleted]

    # -- observations --------------------------------------------------------
    def visible(self, snapshot=None) -> list:
        return [
            i for i in range(self.physical_rows)
            if (snapshot is None or self.inserted[i] <= snapshot)
            and (self.deleted[i] == 0
                 or (snapshot is not None and self.deleted[i] > snapshot))
        ]

    def scan(self, snapshot=None) -> dict:
        rows = self.visible(snapshot)
        return {name: self._array(name, rows) for name in self.data}

    def delta_masks(self, since, upto=None):
        inserted, deleted = [], []
        for ins, del_ in zip(self.inserted, self.deleted):
            if upto is None:
                alive, gone = del_ == 0, del_ > since
            else:
                alive = del_ == 0 or del_ > upto
                gone = since < del_ <= upto
            born = ins > since and (upto is None or ins <= upto)
            inserted.append(born and alive)
            deleted.append(ins <= since and gone)
        return np.array(inserted, dtype=bool), np.array(deleted, dtype=bool)

    def column_tails(self, start) -> dict:
        rows = range(start, self.physical_rows)
        return {name: self._array(name, rows) for name in self.data}

    def key_values(self, name, snapshot=None) -> tuple[list, list]:
        """``(visible values, sorted distinct values over all physical
        rows)`` — what a dictionary encoding must decode to."""
        values = self.data[name]
        ordered = sorted(set(values), key=lambda v: (v is not None, v))
        return [values[i] for i in self.visible(snapshot)], ordered
