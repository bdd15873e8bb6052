"""Network client: the :class:`~repro.engine.session.Session` surface
over a socket.

:func:`connect` opens a :class:`RemoteSession` whose ``execute`` /
``explain`` behave exactly like a local session's — SELECTs come back
as ``QueryResult`` objects with **bit-identical** numeric columns
(arrays cross the wire as raw bytes, never as decimal text), DML
returns row counts, and failures raise the same typed exceptions the
engine raises locally (:class:`~repro.errors.ParseError`,
:class:`~repro.errors.CatalogError`,
:class:`~repro.errors.AdmissionError`,
:class:`~repro.errors.QueryTimeout`, ...), rehydrated from their wire
codes.

    with repro.connect(("127.0.0.1", 7474), sum_mode="repro") as s:
        s.execute("INSERT INTO t VALUES (1, 0.5)")
        total = s.execute("SELECT SUM(f) FROM t").scalar()

Session options passed to :func:`connect` (``sum_mode``, ``workers``,
``memory_budget``, ...) travel in the hello frame and
configure the server-side session, same knobs as ``db.session()``;
``workers`` splits an aggregate over partial tables inside the server
process, it starts no process.
"""

from __future__ import annotations

import itertools
import socket

from ..errors import ConnectionClosed, ProtocolError, error_from_wire
from ..server.protocol import decode_result, recv_frame, send_frame

__all__ = ["RemoteSession", "connect"]


def connect(address, timeout: float | None = None, **options) -> "RemoteSession":
    """Open a session to a :class:`~repro.server.ReproServer`.

    ``address`` is ``(host, port)`` for TCP or a filesystem path (str)
    for a unix socket; ``timeout`` bounds every socket operation;
    keyword ``options`` configure the server-side session
    (``sum_mode``, ``workers``, ``memory_budget``, ...); a name the
    server's ``db.session()`` does not know is a typed error.
    """
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        address = tuple(address)
    sock.settimeout(timeout)
    try:
        sock.connect(address)
        return RemoteSession(sock, options)
    except BaseException:
        sock.close()
        raise


class RemoteSession:
    """One server-side session, driven over a blocking socket."""

    def __init__(self, sock: socket.socket, options: dict):
        self._sock = sock
        self._ids = itertools.count(1)
        self._closed = False
        #: admission/timeout limits the server reported in the hello
        self.server_info = self._call(
            {"op": "hello", "options": options}
        ).get("server", {})

    # -- the Session surface ----------------------------------------------
    def execute(self, sql_text: str):
        """Run one statement: ``QueryResult`` for SELECT, row count
        for DDL/DML.  Raises the engine's typed errors."""
        reply = self._call({"op": "execute", "sql": sql_text})
        if reply["kind"] == "rowcount":
            return reply["value"]
        return decode_result(reply["result"])

    def explain(self, sql_text: str) -> str:
        return self._call({"op": "explain", "sql": sql_text})["value"]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            send_frame(self._sock, {"id": next(self._ids), "op": "close"})
            recv_frame(self._sock)
        except (OSError, ConnectionClosed):
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"RemoteSession({self._sock.getsockname()!r}, {state})"

    # -- plumbing ----------------------------------------------------------
    def _call(self, message: dict) -> dict:
        if self._closed:
            raise ConnectionClosed("session is closed")
        message["id"] = next(self._ids)
        send_frame(self._sock, message)
        reply = recv_frame(self._sock)
        if reply.get("id") != message["id"]:
            raise ProtocolError(
                f"out-of-order reply: sent id {message['id']}, "
                f"got {reply.get('id')!r}"
            )
        if not reply.get("ok"):
            raise error_from_wire(reply.get("error") or {})
        return reply
