"""Concurrent serving layer: many sessions, one reproducible database.

The paper's guarantee is per *query*: a repro-mode aggregate returns
the same bits for any morsel schedule and worker count.  The server
extends it to a *service*: every connection gets its own
:class:`~repro.engine.session.Session` (its own SUM configuration and
execution knobs) over the shared catalog, reads run snapshot-isolated
against the MVCC row versions, and writers serialize per table — so a
query's result bits are fixed at admission no matter what the other
sessions are doing.

:class:`ReproServer` is a small asyncio front end over the threaded
engine: connections speak the length-prefixed JSON protocol of
:mod:`repro.server.protocol`, statements execute on engine threads
(:class:`StatementThreads`, as many as the admission limit), and
:class:`AdmissionGate` bounds both the in-flight statements and the
waiting backlog — overload is an immediate typed
:class:`~repro.errors.AdmissionError`, not an ever-growing queue; slow
statements hit the per-query :class:`~repro.errors.QueryTimeout`
deadline.

    db = Database(sum_mode="repro")
    async with ReproServer(db, port=7474) as server:
        ...                       # clients: repro.connect((host, port))

or from the shell: ``python -m repro.server --port 7474``.
"""

from __future__ import annotations

import asyncio
import collections
import queue
import threading

from ..errors import AdmissionError, ProtocolError, QueryTimeout, error_to_wire
from .protocol import encode_result, read_frame, write_frame

__all__ = ["AdmissionGate", "ReproServer", "StatementThreads"]


class AdmissionGate:
    """Bounded admission: ``max_inflight`` statements run, at most
    ``max_backlog`` wait, the rest are rejected *immediately* with a
    typed :class:`AdmissionError`.

    Single-loop asyncio discipline: all methods run on the event loop
    thread, so plain counters are race-free.  FIFO hand-off — a
    released slot goes to the longest-waiting statement.
    """

    def __init__(self, max_inflight: int, max_backlog: int):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_backlog < 0:
            raise ValueError("max_backlog must be >= 0")
        self.max_inflight = max_inflight
        self.max_backlog = max_backlog
        self.inflight = 0
        self._waiters: collections.deque[asyncio.Future] = collections.deque()
        #: lifetime counters, in-process only (``server.gate``): the
        #: wire has no op that reads them — ``_dispatch`` takes
        #: ``execute`` / ``explain``
        self.admitted = 0
        self.rejected = 0

    @property
    def queued(self) -> int:
        return len(self._waiters)

    async def acquire(self) -> None:
        """Admit or queue the calling statement; raise
        :class:`AdmissionError` when both the slots and the backlog
        are full."""
        if self.inflight < self.max_inflight and not self._waiters:
            self.inflight += 1
            self.admitted += 1
            return
        if len(self._waiters) >= self.max_backlog:
            self.rejected += 1
            raise AdmissionError(
                f"server at capacity: {self.inflight} statements in "
                f"flight, {len(self._waiters)} queued "
                f"(max_backlog={self.max_backlog})"
            )
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter in self._waiters:
                self._waiters.remove(waiter)
            elif waiter.done() and not waiter.cancelled():
                # The slot was handed to us in the same tick we were
                # cancelled: pass it on.
                self._release_slot()
            raise
        self.admitted += 1

    def release(self) -> None:
        self._release_slot()

    def _release_slot(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                # Hand the slot over; inflight count is unchanged.
                waiter.set_result(None)
                return
        self.inflight -= 1


class StatementThreads:
    """The engine threads admitted statements run on, started on demand
    (the :class:`AdmissionGate` bounds how many can be busy at once).

    A statement goes to the thread that went idle most recently, and a
    thread is idle *before* its result is published.  So a client that
    sends one statement at a time is served by one thread, whose caches
    and allocator arena stay warm, however its requests are timed.
    ``ThreadPoolExecutor`` publishes first and marks the worker idle
    after: whenever the next request won that race it started another
    thread, statements then wandered between two or three allocator
    arenas, and the same run read 12 000 or 170 000 page faults.
    """

    def __init__(self, name: str):
        self._name = name
        self._lock = threading.Lock()
        #: inboxes of the idle threads, most recently idle last
        self._idle: list[queue.SimpleQueue] = []
        self._started = 0
        self._closed = False

    def submit(self, loop, fn, *args) -> asyncio.Future:
        """Run ``fn(*args)`` on an engine thread; a future of ``loop``."""
        future = loop.create_future()
        with self._lock:
            if self._closed:
                raise RuntimeError("statement threads are shut down")
            if self._idle:
                inbox = self._idle.pop()
            else:
                inbox = queue.SimpleQueue()
                self._started += 1
                threading.Thread(
                    target=self._serve, args=(inbox,), daemon=True,
                    name=f"{self._name}_{self._started}",
                ).start()
        inbox.put((loop, future, fn, args))
        return future

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        while True:
            job = inbox.get()
            if job is None:
                return
            loop, future, fn, args = job
            try:
                outcome = (fn(*args), None)
            except BaseException as exc:    # raised again where it is awaited
                outcome = (None, exc)
            with self._lock:
                closed = self._closed
                if not closed:
                    self._idle.append(inbox)
            try:
                loop.call_soon_threadsafe(self._publish, future, *outcome)
            except RuntimeError:
                pass            # the loop is gone: nobody is waiting
            del job, loop, future, fn, args, outcome
            if closed:
                return

    @staticmethod
    def _publish(future, result, exc) -> None:
        if future.cancelled():
            return
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)

    def shutdown(self) -> None:
        """Stop the idle threads now, busy ones after their statement."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for inbox in idle:
            inbox.put(None)


class ReproServer:
    """Asyncio TCP / unix-socket server over a shared ``Database``.

    Each accepted connection performs a ``hello`` (optionally carrying
    session options) and gets a dedicated engine session —
    ``session_factory(**options)`` when given, else
    ``database.session(**options)``.  Statements run on
    :class:`StatementThreads` (at most ``max_inflight`` — one per
    admissible statement) under the :class:`AdmissionGate` and the
    per-query ``query_timeout``.

    A timed-out statement keeps its admission slot until the engine
    thread actually finishes — the deadline bounds the *caller's* wait,
    and capacity accounting stays truthful.
    """

    def __init__(self, database, host: str = "127.0.0.1", port: int = 0,
                 unix_path: str | None = None, max_inflight: int = 8,
                 max_backlog: int = 32, query_timeout: float | None = None,
                 session_factory=None):
        self.database = database
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.query_timeout = query_timeout
        self.gate = AdmissionGate(max_inflight, max_backlog)
        self._session_factory = session_factory or database.session
        self._pool = StatementThreads("repro-serve")
        self._server: asyncio.AbstractServer | None = None
        self._connections = 0

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> None:
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=self.unix_path
            )
        else:
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._pool.shutdown()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def address(self):
        """Client-side connect address: ``(host, port)`` or the unix
        socket path."""
        if self.unix_path is not None:
            return self.unix_path
        return (self.host, self.port)

    # -- connection handling -----------------------------------------------
    async def _serve_connection(self, reader, writer) -> None:
        self._connections += 1
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            while True:
                request = await read_frame(reader)
                if request is None or request.get("op") == "close":
                    if request is not None:
                        write_frame(
                            writer, {"id": request.get("id"), "ok": True}
                        )
                        await writer.drain()
                    return
                reply = await self._dispatch(session, request)
                write_frame(writer, reply)
                await writer.drain()
        except (ConnectionError, ProtocolError, asyncio.IncompleteReadError):
            pass  # client vanished or spoke garbage: drop the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _handshake(self, reader, writer):
        request = await read_frame(reader)
        if request is None:
            return None
        if request.get("op") != "hello":
            write_frame(writer, {
                "id": request.get("id"), "ok": False,
                "error": error_to_wire(
                    ProtocolError("expected a hello frame")
                ),
            })
            await writer.drain()
            return None
        try:
            session = self._session_factory(**request.get("options") or {})
        except Exception as exc:
            write_frame(writer, {
                "id": request.get("id"), "ok": False,
                "error": error_to_wire(exc),
            })
            await writer.drain()
            return None
        write_frame(writer, {
            "id": request.get("id"), "ok": True,
            "server": {
                "max_inflight": self.gate.max_inflight,
                "max_backlog": self.gate.max_backlog,
                "query_timeout": self.query_timeout,
            },
        })
        await writer.drain()
        return session

    async def _dispatch(self, session, request: dict) -> dict:
        request_id = request.get("id")
        op = request.get("op")
        sql = request.get("sql")
        if op not in ("execute", "explain") or not isinstance(sql, str):
            return {
                "id": request_id, "ok": False,
                "error": error_to_wire(
                    ProtocolError(f"malformed request op={op!r}")
                ),
            }
        try:
            payload = await self._run_gated(session, op, sql)
        except Exception as exc:
            return {"id": request_id, "ok": False, "error": error_to_wire(exc)}
        payload["id"] = request_id
        payload["ok"] = True
        return payload

    async def _run_gated(self, session, op: str, sql: str) -> dict:
        """Admission gate + engine-thread execution + query deadline.

        The deadline covers queue wait *and* execution: an admitted
        query stuck behind a writer lock times out just like one stuck
        in the backlog.
        """
        loop = asyncio.get_running_loop()

        async def admit_and_run():
            await self.gate.acquire()
            future = self._pool.submit(
                loop, self._run_statement, session, op, sql
            )
            # Release only when the engine thread is truly done — on
            # timeout the future keeps running, and its slot must stay
            # occupied until then (also swallow its late exception).
            future.add_done_callback(
                lambda f: (self.gate.release(), f.cancelled() or f.exception())
            )
            return await asyncio.shield(future)

        try:
            return await asyncio.wait_for(admit_and_run(), self.query_timeout)
        except asyncio.TimeoutError:
            raise QueryTimeout(
                f"query exceeded the {self.query_timeout}s deadline"
            ) from None

    def _run_statement(self, session, op: str, sql: str) -> dict:
        if op == "explain":
            return {"kind": "text", "value": session.explain(sql)}
        result = session.execute(sql)
        if isinstance(result, int):
            return {"kind": "rowcount", "value": result}
        return {"kind": "result", "result": encode_result(result)}
