"""Table + materialized-view catalog.

The catalog also owns the database's **version clock**
(:class:`~repro.engine.table.VersionClock`): every table it holds is
attached to the shared clock, so row versions are drawn from one
monotone counter across the whole database.  That is what makes a
single pinned clock value a consistent MVCC snapshot over every table
(:meth:`~repro.engine.table.VersionClock.stable`), which the serving
layer's snapshot-isolated reads are built on.

A durable database additionally wires the catalog to a
:class:`~repro.storage.durable.DurableStore` (:attr:`Catalog.storage`):
DDL — CREATE/DROP TABLE, CREATE/DROP MATERIALIZED VIEW — is logged to
the write-ahead log here, in the order it was applied under
:attr:`_ddl_lock`, and every table/view the catalog holds is pointed
at the store so its own mutation paths log too.
"""

from __future__ import annotations

import threading

from ..errors import CatalogError
from .table import Schema, Table, VersionClock
from .types import type_from_name

__all__ = ["Catalog"]


class Catalog:
    """Named tables and materialized views of one database."""

    def __init__(self):
        self._tables: dict[str, Table] = {}
        #: view name -> MaterializedView (:mod:`repro.engine.matview`)
        self._views: dict[str, object] = {}
        #: shared monotone DML clock; every held table stamps row
        #: versions from it
        self.clock = VersionClock()
        #: durable store (``None`` = in-memory database)
        self.storage = None
        #: orders DDL against checkpoint capture; never held while
        #: taking a table's statement lock
        self._ddl_lock = threading.Lock()
        #: monotone count of table shape changes (create, attach,
        #: drop).  Plan caches key on it: a cached logical plan binds
        #: table objects and their schemas — a DROP + re-CREATE under
        #: the same name must not serve a plan bound to the old table —
        #: but never a view (views are matched while lowering, at each
        #: query's snapshot), so view DDL and REFRESH leave it alone.
        self.ddl_epoch = 0

    def attach_storage(self, storage) -> None:
        """Wire this catalog — and everything already in it — to a
        durable store.  Called once by the store after recovery."""
        with self._ddl_lock:
            self.storage = storage
            for table in self._tables.values():
                table.attach_storage(storage)
            for view in self._views.values():
                view._storage = storage

    # -- tables ------------------------------------------------------------
    def create_table(self, name: str, columns: list[tuple[str, object]]) -> Table:
        low = name.lower()
        with self._ddl_lock:
            if low in self._tables:
                raise CatalogError(f"table {name!r} already exists")
            if low in self._views:
                raise CatalogError(f"{name!r} names a materialized view")
            resolved = []
            for col_name, sql_type in columns:
                if isinstance(sql_type, str):
                    sql_type = type_from_name(sql_type)
                resolved.append((col_name, sql_type))
            table = Table(low, Schema(resolved), clock=self.clock)
            self._tables[low] = table
            self.ddl_epoch += 1
            if self.storage is not None:
                table.attach_storage(self.storage)
                self.storage.log_create_table(table)
            return table

    def add(self, table: Table) -> None:
        with self._ddl_lock:
            if table.name in self._tables:
                raise CatalogError(f"table {table.name!r} already exists")
            if table.name in self._views:
                raise CatalogError(
                    f"{table.name!r} names a materialized view"
                )
            table.attach_clock(self.clock)
            self._tables[table.name] = table
            self.ddl_epoch += 1
            if self.storage is not None:
                # The table's rows were born outside the WAL's sight —
                # log its full physical state, then start tracking.
                self.storage.log_attach_table(table)
                table.attach_storage(self.storage)

    def get(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no table {name!r}") from None

    def drop(self, name: str, if_exists: bool = False) -> bool:
        low = name.lower()
        with self._ddl_lock:
            if low in self._tables:
                dependents = [
                    view.name for view in self._views.values()
                    if view.table_name == low
                ]
                if dependents:
                    raise CatalogError(
                        f"table {name!r} has dependent materialized views: "
                        + ", ".join(sorted(dependents))
                    )
                del self._tables[low]
                self.ddl_epoch += 1
                if self.storage is not None:
                    self.storage.log_drop_table(low)
                return True
            if not if_exists:
                raise CatalogError(f"no table {name!r}")
            return False

    def names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    # -- materialized views ------------------------------------------------
    def create_view(self, view) -> None:
        with self._ddl_lock:
            if view.name in self._views:
                raise CatalogError(
                    f"materialized view {view.name!r} already exists"
                )
            if view.name in self._tables:
                raise CatalogError(f"{view.name!r} names a table")
            self._views[view.name] = view
            if self.storage is not None:
                view._storage = self.storage
                self.storage.log_create_view(view)

    def get_view(self, name: str):
        try:
            return self._views[name.lower()]
        except KeyError:
            raise CatalogError(f"no materialized view {name!r}") from None

    def drop_view(self, name: str, if_exists: bool = False) -> bool:
        low = name.lower()
        with self._ddl_lock:
            if low in self._views:
                del self._views[low]
                if self.storage is not None:
                    self.storage.log_drop_view(low)
                return True
            if not if_exists:
                raise CatalogError(f"no materialized view {name!r}")
            return False

    def view_names(self) -> list[str]:
        return sorted(self._views)

    def views_on(self, table_name: str) -> list:
        """Views maintained over ``table_name`` (the planner's
        view-matching lookup), in name order for determinism."""
        low = table_name.lower()
        return [
            self._views[name] for name in sorted(self._views)
            if self._views[name].table_name == low
        ]
