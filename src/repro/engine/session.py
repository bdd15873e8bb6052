"""Sessions and the database facade: ``db.session().execute(sql)``.

PR 7 splits the old monolithic ``Database`` in two:

* :class:`Database` owns what is *shared* across connections — the
  catalog (tables, materialized views) and the version clock behind
  MVCC snapshots.  It executes nothing itself:
  :meth:`Database.execute` is the single-session convenience, a thin
  delegate to an implicit default session.
* :class:`Session` owns what is *per connection* — the SUM
  configuration, the execution knobs (``workers`` / ``morsel_size`` /
  ``memory_budget``), the accounting record of its
  last query, and snapshot pinning.  Both the local embedding
  (``db.session()``) and the network client
  (:func:`repro.client.connect`) present this same surface, so code
  written against one runs unchanged against the other.

Reads are **snapshot-isolated**: a SELECT pins the database's
committed-version watermark at admission
(:attr:`~repro.engine.table.VersionClock.stable`) and scans every
table at that version, so its result bits are fixed at admission no
matter what INSERT/DELETE/UPDATE/REFRESH other sessions commit while
it runs.  Writers serialize per table through ``Table.lock``; readers
never wait for them.

DML follows MonetDB/PostgreSQL storage semantics — UPDATE masks old
row versions and appends new ones, physically reordering the table —
which is what lets :mod:`examples.algorithm1_sql` replay the paper's
Algorithm 1 verbatim.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import BindError, ReproError
from .catalog import Catalog
from .executor import (
    QueryResult, execute_select, explain_select, lower, run_planned,
)
from .expr import evaluate
from .operators import SumConfig
from .optimizer import optimize
from .pipeline import DEFAULT_MORSEL_SIZE, ExecutionContext, PipelineStats
from .plan import bind_select
from .sql import ast, parse
from .types import DateType, DecimalSqlType, type_from_name

__all__ = ["Database", "Session"]


def _retired_last_timings(*_):
    raise AttributeError(
        "last_timings is retired: last_pipeline_stats is the one record "
        "of a query (.seconds holds the per-operator CPU seconds)"
    )


class Session:
    """One connection's execution state over a shared :class:`Database`.

    Owns the session-scoped knobs — SUM semantics (``sum_mode`` /
    ``levels``) and the execution shape (``workers``,
    ``morsel_size``, ``memory_budget``) —
    plus :attr:`last_pipeline_stats`, the accounting record of the
    most recent pipeline run: SELECT, INSERT ... SELECT, REFRESH or
    CREATE MATERIALIZED VIEW.  Catalog state (tables,
    views) is shared with every other session of the same database.

    Every SELECT pins the database's committed-version watermark at
    admission and reads all tables at that snapshot;
    :meth:`snapshot` pins one watermark across several statements.

    >>> db = Database()
    >>> s = db.session(sum_mode="repro")
    >>> s.execute("CREATE TABLE r (f DOUBLE)")
    0
    >>> s.execute("INSERT INTO r VALUES (0.5), (0.25)")
    2
    >>> s.execute("SELECT SUM(f) FROM r").scalar()
    0.75
    """

    def __init__(self, database: Database, sum_mode: str = "ieee",
                 levels: int = 2, workers: int = 1,
                 morsel_size: int = DEFAULT_MORSEL_SIZE,
                 memory_budget: int | None = None):
        self.database = database
        self.catalog = database.catalog
        self.sum_config = SumConfig(sum_mode, levels)
        self.execution_context = ExecutionContext(
            workers, morsel_size, memory_budget_bytes=memory_budget,
        )
        #: the :class:`PipelineStats` of the last SELECT, INSERT ...
        #: SELECT, REFRESH or CREATE MATERIALIZED VIEW (``None`` before
        #: the first)
        self.last_pipeline_stats: PipelineStats | None = None
        #: explicit pin from :meth:`snapshot` (``None`` = pin per query)
        self._pinned: int | None = None
        #: test hook: called with the pinned version right after query
        #: admission, before any scan materializes
        self._after_pin = None

    # -- knob surface ------------------------------------------------------
    @property
    def memory_budget(self) -> int | None:
        """Aggregation memory budget in bytes (``None`` = unbounded).

        Settable here or via ``SET memory_budget = N``.  In
        repro mode result bits are invariant under this knob —
        spilling is a pure performance trade, same as ``workers``.
        """
        return self.execution_context.memory_budget_bytes

    @memory_budget.setter
    def memory_budget(self, value) -> None:
        self.execution_context.set_param("memory_budget", value)

    last_timings = property(_retired_last_timings, _retired_last_timings)

    # -- snapshots ---------------------------------------------------------
    def pin_snapshot(self) -> int:
        """The version watermark a query admitted now would read at."""
        if self._pinned is not None:
            return self._pinned
        return self.catalog.clock.stable

    @contextlib.contextmanager
    def snapshot(self):
        """Pin one snapshot across every SELECT in the block.

        Reads inside the block see the database exactly as it stood at
        entry, regardless of concurrent (or even this session's own)
        writes, and plans read row counts there too: repro bits repeat
        byte-identically.  IEEE bits may not when a later SELECT lowers
        differently — another session's REFRESH retired the view state
        an earlier one was served from, or new keys grew the dictionary
        behind a budgeted GROUP BY's external choice.  Yields the
        pinned version.
        """
        previous = self._pinned
        self._pinned = self.catalog.clock.stable
        try:
            yield self._pinned
        finally:
            self._pinned = previous

    # -- public API -------------------------------------------------------
    def execute(self, sql_text: str):
        """Run one SQL statement.

        Returns a :class:`QueryResult` for SELECT and the affected row
        count (an int) for DDL/DML.

        A repeated SELECT skips parse, bind and optimize: the plan cache
        holds its optimized logical plan, which reads no data, keyed by
        ``(sql text, catalog DDL epoch)``.  Every SELECT, hit or miss,
        lowers that plan at its own snapshot and the current knobs
        (:func:`~repro.engine.executor.lower`), so no write, REFRESH or
        ``SET`` invalidates an entry.  Only SELECT plans ever enter the
        cache, so a hit cannot shadow a DML statement.
        """
        context = self.execution_context
        snapshot = self.pin_snapshot()
        plan_key = (sql_text, self.catalog.ddl_epoch)
        logical = context._plan_cache.get(plan_key)
        hit = logical is not None
        if not hit:
            stmt = parse(sql_text)
            if not isinstance(stmt, ast.Select):
                return self._execute_statement(stmt)
        if self._after_pin is not None:
            self._after_pin(snapshot)
        stats = PipelineStats()
        stats.plan_cache_hit = hit
        if hit:
            context.plan_cache_hits += 1
        else:
            logical = optimize(bind_select(stmt, self.catalog.get))
            context.plan_cache_misses += 1
            context._plan_cache.put(plan_key, logical)
        physical = lower(logical, self.sum_config, context,
                         views=self.catalog.views_on, snapshot=snapshot)
        result = run_planned(physical, context, stats, snapshot)
        self.last_pipeline_stats = stats
        return result

    def _execute_statement(self, stmt):
        """Every statement but a SELECT."""
        if isinstance(stmt, ast.Explain):
            return self._explain(stmt.query)
        if isinstance(stmt, ast.CreateTable):
            columns = [
                (col.name, type_from_name(col.type_name, col.type_args))
                for col in stmt.columns
            ]
            self.catalog.create_table(stmt.name, columns)
            return 0
        if isinstance(stmt, ast.DropTable):
            self.catalog.drop(stmt.name, stmt.if_exists)
            return 0
        if isinstance(stmt, ast.CreateMaterializedView):
            from .matview import MaterializedView

            view = MaterializedView(
                stmt.name, stmt.query, self.catalog.get, self.sum_config
            )
            self.catalog.create_view(view)
            try:
                self._refresh(view)
            except BaseException:
                # A failed initial population must not leave a broken
                # view registered (it would also block DROP TABLE).
                self.catalog.drop_view(view.name)
                raise
            return 0
        if isinstance(stmt, ast.RefreshMaterializedView):
            return self._refresh(self.catalog.get_view(stmt.name))
        if isinstance(stmt, ast.DropMaterializedView):
            self.catalog.drop_view(stmt.name, stmt.if_exists)
            return 0
        if isinstance(stmt, ast.SetParam):
            self.execution_context.set_param(stmt.name, stmt.value)
            return 0
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.Update):
            return self._execute_update(stmt)
        if isinstance(stmt, ast.Delete):
            return self._execute_delete(stmt)
        raise TypeError(f"unsupported statement {stmt!r}")

    def _refresh(self, view) -> int:
        # A refresh is a write to the view: hold the base table's
        # statement lock so no DML can slip between the delta read and
        # the consumed watermark.
        stats = PipelineStats()
        with view.table.lock:
            consumed = view.refresh(self.execution_context, stats=stats)
        self.last_pipeline_stats = stats
        return consumed

    def view(self, name: str):
        """The named materialized view (catalog accessor)."""
        return self.catalog.get_view(name)

    def table(self, name: str):
        return self.catalog.get(name)

    def explain(self, sql_text: str) -> str:
        """Plan text for a SELECT (with or without an EXPLAIN prefix).

        Shows the optimized logical plan (pushdown rules applied) and
        the chosen physical operators — where the group ids come from,
        the ``workers`` split, hash-join build sides — without
        executing the query.
        """
        stmt = parse(sql_text)
        if isinstance(stmt, ast.Explain):
            stmt = stmt.query
        if not isinstance(stmt, ast.Select):
            raise TypeError("explain() expects a SELECT statement")
        return self._explain(stmt)

    def close(self) -> None:
        """Nothing to release: a session holds no process, thread or
        file (the catalog belongs to the database).  Kept so a session
        closes like the client connection it mirrors."""

    def __enter__(self) -> Session:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _explain(self, stmt: ast.Select) -> str:
        return explain_select(
            stmt, self.catalog.get, self.sum_config, self.execution_context,
            views=self.catalog.views_on, snapshot=self.pin_snapshot(),
        )

    # -- DML ------------------------------------------------------------------
    def _execute_insert(self, stmt: ast.Insert) -> int:
        table = self.catalog.get(stmt.table)
        names = list(stmt.columns) or table.schema.names()
        if stmt.select is None:
            columns = _value_columns(stmt.values, len(names))
        else:
            # INSERT INTO t SELECT ...: run the query (a full pipeline
            # run, with its own record like a top-level SELECT), then
            # append its columns as one versioned chunk.
            stats = PipelineStats()
            result = execute_select(
                stmt.select, self.catalog.get, self.sum_config, stats,
                self.execution_context, views=self.catalog.views_on,
                snapshot=self.pin_snapshot(),
            )
            self.last_pipeline_stats = stats
            if len(result.names) != len(names):
                raise BindError(
                    f"INSERT arity mismatch: {len(names)} target "
                    f"columns, SELECT produces {len(result.names)}"
                )
            columns = [
                # a stored DECIMAL / DATE is not its value: convert as
                # ``result.rows()`` would
                [sql_type.to_python(v) for v in column]
                if isinstance(sql_type, (DecimalSqlType, DateType))
                else column
                for column, sql_type in zip(result.arrays, result.types)
            ]
        return table.insert_columns(dict(zip(names, columns)))

    def _execute_update(self, stmt: ast.Update) -> int:
        """MonetDB/PostgreSQL-style UPDATE: mask old versions, append new.

        This physically reorders the table — the storage-layer effect
        behind the paper's Algorithm 1.  The mask and the re-insert
        are applied under one row version (``Table.replace_columns``), so
        snapshot readers see the statement atomically.
        """
        table = self.catalog.get(stmt.table)
        with table.lock:
            columns, valid = table.physical_scan()
            types = {n: table.schema.type_of(n) for n in table.schema.names()}
            if stmt.where is not None:
                mask = np.asarray(evaluate(stmt.where, columns, types))
                if mask.shape == ():
                    mask = np.full(len(valid), bool(mask))
                mask = mask.astype(bool) & valid
            else:
                mask = valid.copy()
            hit = np.flatnonzero(mask)
            if hit.size == 0:
                return 0
            # Compute new values over the hit rows (old values visible).
            hit_batch = {name: arr[hit] for name, arr in columns.items()}
            new_values = {}
            for name, expr in stmt.assignments:
                result = np.asarray(evaluate(expr, hit_batch, types))
                if result.shape == ():
                    result = np.full(hit.size, result)
                new_values[name.lower()] = result
            # Mask the old versions and append the new ones at the
            # tail, atomically under one version: the hit rows' stored
            # values, the assigned columns replaced.
            hit_batch.update(table.coerce_columns(new_values))
            table.replace_columns(hit, hit_batch)
            return hit.size

    def _execute_delete(self, stmt: ast.Delete) -> int:
        table = self.catalog.get(stmt.table)
        with table.lock:
            columns, valid = table.physical_scan()
            types = {n: table.schema.type_of(n) for n in table.schema.names()}
            if stmt.where is not None:
                mask = np.asarray(evaluate(stmt.where, columns, types))
                if mask.shape == ():
                    mask = np.full(len(valid), bool(mask))
                mask = mask.astype(bool) & valid
            else:
                mask = valid.copy()
            return table.mask_rows(np.flatnonzero(mask))


class Database:
    """Shared catalog + storage; execution lives in :class:`Session`.

    The constructor knobs are *defaults* for the sessions it creates —
    ``db.session()`` inherits them, ``db.session(workers=8)``
    overrides per connection.  In repro mode the result bits
    are identical for every setting of every execution knob; in IEEE
    mode they may drift — the paper's point, now demonstrable with two
    session parameters.

    ``path`` makes the database **durable**: the directory holds a
    checkpoint image plus a write-ahead log
    (:class:`~repro.storage.durable.DurableStore`), every committed
    mutation is logged before the statement returns, and reopening the
    same path recovers a catalog whose repro-digest is byte-identical
    to the one that closed — or crashed.  ``path=None`` (the default)
    keeps everything in memory.  :func:`repro.open` is the public
    spelling of this constructor.

    ``Database.execute(...)``, ``explain``, ``last_pipeline_stats``
    etc. are thin delegates to an implicit default session — the supported
    single-session spelling (scripts, tests, benches, the docs).
    Anything concurrent should hold an explicit :class:`Session` per
    logical connection.

    >>> db = Database(sum_mode="repro")
    >>> db.execute("CREATE TABLE r (i INT, f DOUBLE)")
    0
    >>> db.execute("INSERT INTO r VALUES (1, 0.5), (2, 0.25)")
    2
    >>> db.execute("SELECT SUM(f) FROM r").scalar()
    0.75
    """

    def __init__(self, sum_mode: str = "ieee", levels: int = 2,
                 workers: int = 1, morsel_size: int = DEFAULT_MORSEL_SIZE,
                 memory_budget: int | None = None,
                 path: str | None = None, wal_sync: str = "commit",
                 checkpoint_interval: float | None = 60.0):
        self.catalog = Catalog()
        self.path = path
        self._storage = None
        #: session-construction defaults (:meth:`session` overrides)
        self.session_defaults = {
            "sum_mode": sum_mode,
            "levels": levels,
            "workers": workers,
            "morsel_size": morsel_size,
            "memory_budget": memory_budget,
        }
        try:
            if path is not None:
                from ..storage.durable import DurableStore

                storage = DurableStore(
                    path, wal_sync=wal_sync,
                    checkpoint_interval=checkpoint_interval,
                )
                self._storage = storage
                storage.open_catalog(self.catalog)
                # SET PERSISTENT defaults recovered from the directory
                # override the constructor's, exactly as they would
                # have in the process that set them (names this
                # version no longer has — an older writer's
                # ``vectorized`` / ``fused`` / ``buffer_size`` / the
                # spill shape / ``shard_workers`` / the forced join
                # build side — select nothing; a retired ``sum_mode``
                # selects its successor, and ``shards = N > 0``, which
                # split aggregates N ways, selects ``workers = N``).
                persisted = storage.persistent_defaults
                for name, value in persisted.items():
                    if name == "sum_mode":
                        value = SumConfig.stored(value)
                    if name in self.session_defaults:
                        self.session_defaults[name] = value
                if persisted.get("shards"):
                    self.session_defaults["workers"] = persisted["shards"]
            # Created eagerly: constructing it validates every default
            # knob at Database() time, exactly as the monolithic class
            # did.
            self._default_session = self.session()
            if self._storage is not None:
                self._storage.start_checkpointer()
        except BaseException:
            # A failed open must not leak the directory lock or a WAL
            # handle — close() is safe on the partially built object.
            self.close()
            raise

    # -- sessions ----------------------------------------------------------
    def session(self, **overrides) -> Session:
        """A new :class:`Session` over this database.

        Keyword overrides replace the database-level defaults for this
        session only (``db.session(sum_mode="repro", workers=8)``).
        """
        unknown = set(overrides) - set(self.session_defaults)
        if unknown:
            raise ReproError(
                f"unknown session options {sorted(unknown)}; valid: "
                + ", ".join(sorted(self.session_defaults))
            )
        options = dict(self.session_defaults)
        options.update(overrides)
        session = Session(self, **options)
        return session

    def close(self) -> None:
        """Fsync and release durable storage (WAL handle, directory
        lock).  The catalog stays readable (a later ``session()``
        works), but nothing lingers after exit.  Idempotent, and safe
        on a database whose ``__init__`` failed partway."""
        storage = getattr(self, "_storage", None)
        if storage is not None:
            storage.close()

    def __enter__(self) -> Database:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- durability --------------------------------------------------------
    @property
    def storage(self):
        """The :class:`~repro.storage.durable.DurableStore` behind a
        durable database (``None`` when in-memory)."""
        return self._storage

    def _require_storage(self):
        from ..errors import StorageError

        if self._storage is None:
            raise StorageError(
                "database is in-memory; open it with a path "
                "(repro.open('/data/dir')) for durability"
            )
        return self._storage

    def checkpoint(self) -> int:
        """Write a full catalog image and compact the WAL behind it.
        Returns the checkpoint's replay-horizon segment index."""
        return self._require_storage().checkpoint()

    def flush_wal(self) -> None:
        """Force the live WAL segment to disk (``wal_sync='never'``
        mode; commit mode fsyncs every record already)."""
        self._require_storage().flush_wal()

    def set_default(self, name: str, value) -> None:
        """Set a session-construction default, durably when the
        database is: recovered processes see it applied before their
        first session is built.  The default session behind
        :meth:`execute` takes it at once, as a reopened directory's
        would."""
        if name not in self.session_defaults:
            raise ReproError(
                f"unknown session option {name!r}; valid: "
                + ", ".join(sorted(self.session_defaults))
            )
        # A session built with the new default runs the knob's
        # validator before anything is logged: a logged bad value would
        # fail every later open of the directory.
        probe = Session(self, **dict(self.session_defaults, **{name: value}))
        self.session_defaults[name] = value
        if self._storage is not None:
            self._storage.log_set_default(name, value)
        if name in ("sum_mode", "levels"):
            self._default_session.sum_config = probe.sum_config
        else:
            self._default_session.execution_context.set_param(name, value)

    def simulate_crash(self) -> None:
        """Testing hook: abandon the data directory as ``kill -9``
        would — handles dropped, no final fsync, no checkpoint."""
        storage = self._require_storage()
        storage.simulate_crash()

    @property
    def default_session(self) -> Session:
        """The implicit session behind ``Database.execute`` and the
        other single-session delegates."""
        return self._default_session

    @property
    def clock(self):
        """The shared version clock (snapshot watermark source)."""
        return self.catalog.clock

    # -- single-session delegates ------------------------------------------
    def execute(self, sql_text: str):
        """Execute on the implicit default session."""
        return self.default_session.execute(sql_text)

    def explain(self, sql_text: str) -> str:
        """EXPLAIN on the implicit default session."""
        return self.default_session.explain(sql_text)

    def view(self, name: str):
        """The named materialized view (catalog accessor)."""
        return self.catalog.get_view(name)

    def table(self, name: str):
        return self.catalog.get(name)

    @property
    def sum_config(self) -> SumConfig:
        return self.default_session.sum_config

    @property
    def execution_context(self) -> ExecutionContext:
        return self.default_session.execution_context

    last_timings = property(_retired_last_timings, _retired_last_timings)

    @property
    def last_pipeline_stats(self) -> PipelineStats | None:
        """The default session's :attr:`Session.last_pipeline_stats`."""
        return self.default_session.last_pipeline_stats

    @property
    def memory_budget(self) -> int | None:
        return self.default_session.memory_budget

    @memory_budget.setter
    def memory_budget(self, value) -> None:
        self.default_session.memory_budget = value


def _value_columns(values, arity: int) -> list[list]:
    """A VALUES list as one list of Python values per target column:
    literal runs arrive as columns already, expression rows are
    evaluated value by value.  Rows keep statement order."""
    columns: list[list] = [[] for _ in range(arity)]
    row_number = 1
    for entry in values:
        literal = isinstance(entry, ast.LiteralRows)
        width = len(entry.columns if literal else entry)
        if width != arity:
            raise BindError(
                f"INSERT arity mismatch: row {row_number} has {width} "
                f"values for {arity} target columns"
            )
        if literal:
            for column, run in zip(columns, entry.columns):
                column.extend(run)
            row_number += len(entry)
        else:
            for column, expr in zip(columns, entry):
                column.append(evaluate(expr, {}, {}))
            row_number += 1
    return columns
