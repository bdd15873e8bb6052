"""Typed exception hierarchy shared by the engine and the wire protocol.

Every error the engine raises deliberately derives from
:class:`ReproError` and carries a stable ``code`` string, so the
serving layer (:mod:`repro.server`) can serialize a failure faithfully
and the client (:mod:`repro.client`) can re-raise the *same* exception
type on the other side of the socket — a ``ParseError`` over the wire
is still a ``ParseError`` to the caller.

Seven classes also inherit the builtin the engine raised before the
hierarchy existed: ``ValueError`` for parse / bind / config / data /
spill-format failures, ``KeyError`` and ``ValueError`` for catalog
failures, ``OverflowError`` (and ``ValueError``, through
:class:`DataError`) for a sum past the extractor ladder's range.  They stay, because callers catch the builtins: 62 tier-1
tests do (knob validation on every entry point, statement atomicity,
catalog lookups, ``repro.open`` with a bad knob), and
``DurableStore._restore_image``'s ``except (KeyError, TypeError,
ValueError)`` is what turns a duplicate or unparsable object in a
checkpoint image into a :class:`CheckpointError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ParseError",
    "BindError",
    "CatalogError",
    "ConfigError",
    "DataError",
    "LadderOverflowError",
    "AdmissionError",
    "QueryTimeout",
    "ProtocolError",
    "ConnectionClosed",
    "StorageError",
    "SpillFormatError",
    "WalCorruptError",
    "CheckpointError",
    "error_code",
    "error_to_wire",
    "error_from_wire",
]


class ReproError(Exception):
    """Base of every engine-raised error.

    ``code`` is the stable wire identifier; subclasses override it.
    """

    code = "error"


class ParseError(ReproError, ValueError):
    """SQL text the lexer or parser rejects."""

    code = "parse_error"


class BindError(ReproError, ValueError):
    """Expression or name-resolution failure (unknown/ambiguous column,
    bad aggregate usage).  The engine's :class:`~repro.engine.expr.
    ExprError` family derives from this."""

    code = "bind_error"


class CatalogError(ReproError, KeyError, ValueError):
    """Catalog failure: missing/duplicate table or materialized view,
    DROP blocked by dependents.

    Inherits both ``KeyError`` (missing objects were a ``KeyError``
    before the hierarchy existed) and ``ValueError`` (duplicates were
    a ``ValueError``); ``__str__`` is restored to the plain message —
    ``KeyError``'s repr-quoting would leak into wire payloads.
    """

    code = "catalog_error"
    __str__ = Exception.__str__


class ConfigError(ReproError, ValueError):
    """Invalid session knob name or value (the ``SET`` pragma paths)."""

    code = "config_error"


class DataError(ReproError, ValueError):
    """A value a statement tried to store does not fit its column's
    type: an integer outside the column's width, a DECIMAL past its
    storage, a string past its VARCHAR length.  The statement fails
    whole — nothing is stored, nothing is logged."""

    code = "data_error"


class LadderOverflowError(DataError, OverflowError):
    """A reproducible sum met a value too large for the extractor
    ladder.

    The top anchor must remain a normal number, which caps handled
    magnitudes at roughly ``2**(E_max + W - m - 2)`` (about ``2**986``
    for binary64 with W = 40); the paper's implementation has the same
    restriction.  The same type reaches the caller in-process, from an
    executor process and over the wire."""

    code = "ladder_overflow"


class AdmissionError(ReproError):
    """The server refused to admit a query: the in-flight limit is
    reached and the backlog is full.  Overload degrades into this
    typed, immediate rejection instead of unbounded queueing."""

    code = "admission_rejected"


class QueryTimeout(ReproError):
    """A query exceeded the server's per-query deadline (queue wait
    plus execution)."""

    code = "query_timeout"


class ProtocolError(ReproError):
    """Malformed frame or unknown request on the wire."""

    code = "protocol_error"


class ConnectionClosed(ReproError):
    """The peer closed the connection mid-conversation."""

    code = "connection_closed"


class StorageError(ReproError):
    """Base of every durable-storage failure: spill files, the
    write-ahead log, and checkpoint images.  Carrying a stable code
    keeps storage failures typed across the server wire instead of
    leaking as bare ``ValueError`` text."""

    code = "storage_error"


class SpillFormatError(StorageError, ValueError):
    """A spill run file or framed payload is truncated, corrupted, or
    mis-shaped.

    Lives here (rather than :mod:`repro.storage.spill`, which re-exports
    it) so the serving layer can serialize it like every other engine
    error; inherits ``ValueError`` for the callers that predate the
    typed hierarchy."""

    code = "spill_format_error"


class WalCorruptError(StorageError):
    """The write-ahead log is damaged *before* its tail: a record in
    the committed middle of the log fails its CRC/frame check while
    later records are still intact.  Recovery refuses to continue —
    replaying around a hole could silently produce different bits.

    (A damaged *tail* is not this error: a torn final record is the
    expected crash shape and recovery truncates it.)"""

    code = "wal_corrupt"


class CheckpointError(StorageError):
    """A checkpoint image is unreadable (bad frame, CRC mismatch,
    unsupported layout) or could not be written."""

    code = "checkpoint_error"


#: code -> class, for re-raising a faithful type client-side.
_WIRE_TYPES = {
    cls.code: cls
    for cls in (
        ReproError,
        ParseError,
        BindError,
        CatalogError,
        ConfigError,
        DataError,
        LadderOverflowError,
        AdmissionError,
        QueryTimeout,
        ProtocolError,
        ConnectionClosed,
        StorageError,
        SpillFormatError,
        WalCorruptError,
        CheckpointError,
    )
}


def error_code(exc: BaseException) -> str:
    """The stable wire code of an exception (generic for non-engine
    errors)."""
    return getattr(exc, "code", "error")


def error_to_wire(exc: BaseException) -> dict:
    """Serialize an exception for the wire protocol."""
    return {
        "code": error_code(exc),
        "type": type(exc).__name__,
        "message": str(exc),
    }


def error_from_wire(payload: dict) -> ReproError:
    """Rehydrate a wire error into the matching typed exception.

    Unknown codes degrade to :class:`ReproError`; the original
    type name is preserved in the message so nothing is lost.
    """
    code = payload.get("code", "error")
    message = payload.get("message", "")
    cls = _WIRE_TYPES.get(code)
    if cls is None:
        cls = ReproError
        type_name = payload.get("type")
        if type_name and type_name not in (cls.__name__,):
            message = f"{type_name}: {message}"
    return cls(message)
