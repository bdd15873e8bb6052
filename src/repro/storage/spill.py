"""Columnar spill format for out-of-core aggregation.

A *run file* holds one serialized partial group table: the group keys
(dictionary-encoded per key column) plus every partial aggregate state
— exact int64 quantum ladders for the repro sums
(:class:`~repro.aggregation.grouped.GroupedSummation`), plain
accumulator arrays for IEEE/integer sums, per-group value sets for
COUNT(DISTINCT), and the MIN/MAX/COUNT arrays.  Because every one of
those states merges *exactly*, a table that round-trips through this format and is re-merged produces
**bit-identical** results — which is what lets the external GROUP BY
operator (:mod:`repro.aggregation.external_agg`) treat the memory
budget as a pure performance knob.

File layout::

    MAGIC (8B) | payload length (u64 LE) | payload | crc32 (u32 LE) | END (8B)

The payload is a self-describing tagged tree: scalars, strings,
lists/tuples/dicts, and NumPy arrays stored as ``dtype.str`` plus raw
little-endian bytes (so the IEEE bit patterns round-trip exactly on
every architecture).  Object-dtype key dictionaries and DISTINCT value
sets fall back to :mod:`pickle` frames — they hold plain Python values
produced by this process, never untrusted input.

Crash safety: a truncated or corrupted file fails the length, CRC, or
end-marker check and raises :class:`SpillFormatError` — the engine
never silently aggregates over half a run.

Ownership: **a decoded array is a read-only view over the frame it came
from; whoever keeps one copies it.**  :func:`read_frame` hands back a
read-only ``memoryview`` of the verified payload and
:func:`decode_payload` builds its arrays over that view, so reading a
checkpoint, a WAL segment, a run file or an exchange frame touches each
array's bytes once — in the copy its keeper makes (``Table._stage``, a
state's ``load``, a view's ``restore_served``).  A write to a decoded
array raises, so a keeper that forgot its copy fails at once instead of
corrupting a buffer it shares; and a kept view would pin its whole
frame in memory.  Only the stream :class:`FrameDecoder` copies payloads
out, because the buffer it parses keeps moving.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import numpy as np

from ..core.params import RsumParams
from ..errors import SpillFormatError
from ..fp.formats import format_by_name

__all__ = [
    "SPILL_MAGIC",
    "FrameDecoder",
    "SpillFormatError",
    "dump_grouped_summation",
    "decode_payload",
    "dump_table",
    "encode_payload",
    "frame_payload",
    "iter_frames",
    "load_grouped_summation",
    "load_table_into",
    "read_frame",
    "read_run_file",
    "unframe_payload",
    "write_frame",
    "write_run_file",
]

SPILL_MAGIC = b"RSPILL01"
_END_MARK = b"RSPLEND."


# ---------------------------------------------------------------------------
# Tagged value codec
# ---------------------------------------------------------------------------

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# Precompiled structs: the codec runs once per spilled value, so the
# struct-format parse is worth hoisting.
_S_I64 = struct.Struct("<q")
_S_F64 = struct.Struct("<d")
_S_U8 = struct.Struct("<B")
_S_U16 = struct.Struct("<H")
_S_U32 = struct.Struct("<I")
_S_U64 = struct.Struct("<Q")


def _encode(value, out: bytearray) -> None:
    """Append one value's tagged encoding to ``out``."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif isinstance(value, (int, np.integer)):
        value = int(value)
        if _INT64_MIN <= value <= _INT64_MAX:
            out += b"i" + _S_I64.pack(value)
        else:
            # A Python int past int64 keeps its exact value.
            raw = value.to_bytes(
                (value.bit_length() + 8) // 8, "little", signed=True
            )
            out += b"I" + _S_U32.pack(len(raw)) + raw
    elif isinstance(value, (float, np.floating)):
        out += b"f" + _S_F64.pack(float(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"s" + _S_U32.pack(len(raw)) + raw
    elif isinstance(value, bytes):
        out += b"b" + _S_U32.pack(len(value)) + value
    elif isinstance(value, np.ndarray):
        if value.dtype == object:
            raw = pickle.dumps(value.tolist(), protocol=4)
            out += b"o" + _S_U32.pack(len(raw)) + raw
        else:
            little = np.ascontiguousarray(
                value.astype(value.dtype.newbyteorder("<"), copy=False)
            ).reshape(-1)
            dts = little.dtype.str.encode("ascii")
            out += (
                b"A"
                + _S_U16.pack(len(dts))
                + dts
                + _S_U64.pack(little.nbytes)
            )
            # the array's own buffer, not a tobytes() temporary
            out += little.view(np.uint8).data
    elif isinstance(value, (set, frozenset)):
        raw = pickle.dumps(set(value), protocol=4)
        out += b"S" + _S_U32.pack(len(raw)) + raw
    elif isinstance(value, tuple):
        out += b"U" + _S_U32.pack(len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, list):
        out += b"L" + _S_U32.pack(len(value))
        for item in value:
            _encode(item, out)
    elif isinstance(value, dict):
        out += b"D" + _S_U32.pack(len(value))
        for key, item in value.items():
            _encode(key, out)
            _encode(item, out)
    else:
        raise TypeError(f"cannot spill-encode {type(value).__name__}")


class _Reader:
    """Walks one payload through a read-only ``memoryview``: nothing
    is sliced out as ``bytes`` except what the value itself is."""

    def __init__(self, buf):
        self.buf = memoryview(buf).toreadonly()
        self.pos = 0

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > len(self.buf):
            raise SpillFormatError("spill payload truncated mid-value")
        piece = self.buf[self.pos : end]
        self.pos = end
        return piece

    def unpack(self, s: struct.Struct):
        try:
            (value,) = s.unpack_from(self.buf, self.pos)
        except struct.error:
            raise SpillFormatError(
                "spill payload truncated mid-value"
            ) from None
        self.pos += s.size
        return value

    def decode(self):
        tag = chr(self.unpack(_S_U8))
        if tag == "N":
            return None
        if tag == "T":
            return True
        if tag == "F":
            return False
        if tag == "i":
            return self.unpack(_S_I64)
        if tag == "I":
            raw = self.take(self.unpack(_S_U32))
            return int.from_bytes(raw, "little", signed=True)
        if tag == "f":
            return self.unpack(_S_F64)
        if tag == "s":
            return str(self.take(self.unpack(_S_U32)), "utf-8")
        if tag == "b":
            return bytes(self.take(self.unpack(_S_U32)))
        if tag == "A":
            dts = str(self.take(self.unpack(_S_U16)), "ascii")
            raw = self.take(self.unpack(_S_U64))
            try:
                dtype = np.dtype(dts)
            except TypeError as exc:
                raise SpillFormatError(f"bad array dtype {dts!r}") from exc
            if dtype.itemsize and len(raw) % dtype.itemsize:
                raise SpillFormatError("array byte length not a dtype multiple")
            # A view over the frame (read-only, like the frame); only a
            # foreign byte order costs a copy here.
            arr = np.frombuffer(raw, dtype=dtype)
            if not dtype.isnative:
                arr = arr.astype(dtype.newbyteorder("="))
                arr.flags.writeable = False
            return arr
        if tag == "o":
            items = self._unpickle(self.take(self.unpack(_S_U32)))
            arr = np.fromiter(items, dtype=object, count=len(items))
            arr.flags.writeable = False
            return arr
        if tag == "S":
            return self._unpickle(self.take(self.unpack(_S_U32)))
        if tag == "U":
            return tuple(self.decode() for _ in range(self.unpack(_S_U32)))
        if tag == "L":
            return [self.decode() for _ in range(self.unpack(_S_U32))]
        if tag == "D":
            count = self.unpack(_S_U32)
            out = {}
            for _ in range(count):
                key = self.decode()
                out[key] = self.decode()
            return out
        raise SpillFormatError(f"unknown spill value tag {tag!r}")

    @staticmethod
    def _unpickle(raw):
        try:
            return pickle.loads(raw)
        except Exception as exc:  # truncated/corrupted pickle frame
            raise SpillFormatError("corrupted object frame") from exc


def encode_payload(value) -> bytes:
    """Serialize one payload tree with the tagged spill codec.

    The distributed exchange ships shard replicas and control payloads
    as codec trees inside :func:`frame_payload` frames — the same bytes
    a run file holds, minus the filesystem."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def decode_payload(raw):
    """Inverse of :func:`encode_payload` over any bytes-like ``raw``
    (raises on damage).  Arrays in the tree are read-only views over
    ``raw`` — see the module docstring's ownership rule."""
    reader = _Reader(raw)
    value = reader.decode()
    if reader.pos != len(raw):
        raise SpillFormatError("trailing bytes after spill payload")
    return value


# ---------------------------------------------------------------------------
# Framing: one layout for run files AND the shard-exchange wire
#
# The frame is self-delimiting (magic | u64 payload length | payload |
# crc32 | end marker), so the same bytes work as an on-disk run file,
# an in-memory buffer, or a stream of back-to-back frames on a pipe —
# the spill format *is* the wire protocol.  Every reader — one blob,
# a stream, the WAL's segment walk — goes through read_frame, which
# validates magic, length, end marker, and CRC; damage raises, never
# mis-reads.
# ---------------------------------------------------------------------------

_HEAD_LEN = len(SPILL_MAGIC) + 8
_FOOT_LEN = 4 + len(_END_MARK)


def _frame_parts(payload) -> tuple[bytes, bytes]:
    """The header and footer that make ``payload`` a frame."""
    return (
        SPILL_MAGIC + _S_U64.pack(len(payload)),
        _S_U32.pack(zlib.crc32(payload)) + _END_MARK,
    )


def frame_payload(payload: bytes) -> bytes:
    """One framed, checksummed blob (the run-file layout, in memory)."""
    head, foot = _frame_parts(payload)
    return b"".join((head, payload, foot))


def write_frame(handle, payload) -> int:
    """Write ``payload`` to ``handle`` as one frame — header, payload,
    footer, without joining them into another payload-sized copy first;
    returns the frame's length."""
    head, foot = _frame_parts(payload)
    handle.write(head)
    handle.write(payload)
    handle.write(foot)
    return len(head) + len(payload) + len(foot)


#: refuse absurd frame lengths when probing damaged bytes
_MAX_FRAME = 1 << 40


def read_frame(blob, pos: int = 0, context: str = "frame"):
    """THE frame parser: verify the frame that starts at ``blob[pos]``
    and return ``(payload, end offset)`` — or ``None`` when ``blob``
    ends before the frame does (a stream reader waits for more bytes,
    everyone else calls that truncation).  Any damage raises: magic,
    length cap, end marker, CRC.  The payload is a read-only
    ``memoryview`` of ``blob``, not a copy."""
    head = pos + _HEAD_LEN
    if len(blob) < head:
        return None
    if blob[pos : pos + len(SPILL_MAGIC)] != SPILL_MAGIC:
        raise SpillFormatError(f"{context}: not a spill frame")
    (length,) = _S_U64.unpack_from(blob, pos + len(SPILL_MAGIC))
    if length > _MAX_FRAME:
        raise SpillFormatError(f"{context}: absurd frame length {length}")
    end = head + length + _FOOT_LEN
    if len(blob) < end:
        return None
    (crc,) = _S_U32.unpack_from(blob, head + length)
    if blob[end - len(_END_MARK) : end] != _END_MARK:
        raise SpillFormatError(f"{context}: missing end marker")
    payload = memoryview(blob)[head : head + length].toreadonly()
    if zlib.crc32(payload) != crc:
        payload.release()
        raise SpillFormatError(f"{context}: payload checksum mismatch")
    return payload, end


def unframe_payload(blob, context: str = "frame") -> memoryview:
    """Verify and strip exactly one frame (raises on any damage); the
    payload comes back as a read-only view of ``blob``."""
    parsed = read_frame(blob, 0, context)
    if parsed is None or parsed[1] != len(blob):
        raise SpillFormatError(
            f"{context}: {len(blob)} bytes are not exactly one frame "
            "(truncated, or trailing bytes)"
        )
    return parsed[0]


class FrameDecoder:
    """Incremental reader for a stream of back-to-back frames.

    Feed arbitrary byte chunks (socket reads, pipe messages, file
    slices); complete payloads come back verified, in order.  Chunk
    boundaries carry no meaning — any split of the same byte stream
    decodes to the same payload sequence.  A stream that ends mid-frame
    is truncation: :meth:`finish` raises rather than letting a partial
    partial-aggregate state pass as complete.
    """

    def __init__(self, context: str = "frame stream"):
        self._context = context
        self._buffer = bytearray()
        self.frames_decoded = 0

    def feed(self, chunk: bytes) -> list[bytes]:
        """Absorb ``chunk``; return every newly completed payload."""
        self._buffer += chunk
        payloads = []
        pos = 0
        while True:
            parsed = read_frame(
                self._buffer, pos, f"{self._context}[{self.frames_decoded}]"
            )
            if parsed is None:
                break
            payload, pos = parsed
            # Copy out and let go: the buffer is about to move, which a
            # bytearray refuses while a view of it is alive.
            payloads.append(bytes(payload))
            payload.release()
            self.frames_decoded += 1
        del self._buffer[:pos]
        return payloads

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer:
            raise SpillFormatError(
                f"{self._context}: stream truncated mid-frame "
                f"({len(self._buffer)} dangling bytes after "
                f"{self.frames_decoded} complete frames)"
            )


def iter_frames(blob: bytes, context: str = "frame stream"):
    """Yield each verified payload of a concatenated-frame blob."""
    decoder = FrameDecoder(context)
    yield from decoder.feed(blob)
    decoder.finish()


def write_run_file(path: str, payload: bytes) -> int:
    """Write one framed, checksummed run file; returns bytes written."""
    with open(path, "wb") as handle:
        return write_frame(handle, payload)


def read_run_file(path: str) -> memoryview:
    """Read and verify one run file's payload (raises on any damage)."""
    with open(path, "rb") as handle:
        blob = handle.read()
    return unframe_payload(blob, context=path)


# ---------------------------------------------------------------------------
# The grouped rsum ladders' round-trip
# ---------------------------------------------------------------------------


def dump_grouped_summation(grouped) -> dict:
    """Payload tree for a :class:`GroupedSummation` (exact)."""
    return {
        "fmt": grouped.params.fmt.name,
        "levels": int(grouped.params.levels),
        "w": int(grouped.params.w),
        "ngroups": int(grouped.ngroups),
        "e0": grouped.e0,
        "s": list(grouped.s),
        "c": list(grouped.c),
        "nan": grouped.nan_cnt,
        "pos": grouped.pos_cnt,
        "neg": grouped.neg_cnt,
    }


def load_grouped_summation(data: dict):
    from ..aggregation.grouped import GroupedSummation

    try:
        params = RsumParams(
            format_by_name(data["fmt"]), data["levels"], data["w"]
        )
        grouped = GroupedSummation(params, int(data["ngroups"]))
        # The ladder adds into these in place: copy them off the frame.
        levels = [np.array(level, dtype=np.int64) for level in data["s"]]
        carries = [np.array(level, dtype=np.int64) for level in data["c"]]
        if len(levels) != params.levels or len(carries) != params.levels:
            raise SpillFormatError("level count mismatch in rsum payload")
        grouped.e0 = np.array(data["e0"], dtype=np.int64)
        grouped.s = levels
        grouped.c = carries
        grouped.nan_cnt = np.array(data["nan"], dtype=np.int64)
        grouped.pos_cnt = np.array(data["pos"], dtype=np.int64)
        grouped.neg_cnt = np.array(data["neg"], dtype=np.int64)
        for arr in (
            grouped.e0, grouped.nan_cnt, grouped.pos_cnt, grouped.neg_cnt,
            *grouped.s, *grouped.c,
        ):
            if arr.shape != (grouped.ngroups,):
                raise SpillFormatError("rsum array length mismatch")
    except (KeyError, TypeError, ValueError) as exc:
        raise SpillFormatError(f"bad GroupedSummation payload: {exc}") from exc
    return grouped


# ---------------------------------------------------------------------------
# Group keys (engine layer; every aggregate state dumps and loads itself,
# see repro.engine.aggregates)
# ---------------------------------------------------------------------------


def _float_bits(col: np.ndarray) -> np.ndarray:
    return col.view(np.uint32 if col.dtype == np.float32 else np.uint64)


def _dump_key_column(col: np.ndarray) -> dict:
    """Dictionary-encode one key column (exact, bit-preserving)."""
    if col.dtype == object:
        from ..engine.operators import factorize_object

        codes, uniques = factorize_object(col)
        return {"enc": "object", "codes": codes, "uniques": list(uniques)}
    if col.dtype.kind == "f":
        # Encode the raw bit patterns so every NaN payload and signed
        # zero round-trips exactly (np.unique would conflate them).
        uniques, codes = np.unique(_float_bits(col), return_inverse=True)
        return {
            "enc": "bits",
            "dtype": col.dtype.str,
            "codes": codes.astype(np.int64, copy=False),
            "uniques": uniques,
        }
    uniques, codes = np.unique(col, return_inverse=True)
    return {
        "enc": "plain",
        "dtype": col.dtype.str,
        "codes": codes.astype(np.int64, copy=False),
        "uniques": uniques,
    }


def _load_key_column(data: dict, ngroups: int) -> np.ndarray:
    codes = np.asarray(data["codes"], dtype=np.int64)
    if codes.shape != (ngroups,):
        raise SpillFormatError("key code length mismatch")
    if data["enc"] == "object":
        out = np.empty(ngroups, dtype=object)
        uniques = data["uniques"]
        for i, code in enumerate(codes.tolist()):
            out[i] = uniques[code]
        return out
    dtype = np.dtype(data["dtype"]).newbyteorder("=")
    uniques = np.asarray(data["uniques"])
    if data["enc"] == "bits":
        return uniques[codes].view(dtype)
    return uniques[codes].astype(dtype, copy=False)


# ---------------------------------------------------------------------------
# Partial group tables
# ---------------------------------------------------------------------------


def dump_table(table) -> bytes:
    """Serialize one partial group table into spill payload bytes."""
    ngroups = table.ngroups
    nkeys = len(table.group_exprs)
    keys = []
    for i in range(nkeys):
        keys.append(_dump_key_column(table._key_column(i)))
    payload = {
        "version": 1,
        "nkeys": nkeys,
        "ngroups": ngroups,
        "key_dtypes": (
            None if table._key_dtypes is None
            else [np.dtype(dt).str for dt in table._key_dtypes]
        ),
        "keys": keys,
        "states": [state.dump() for state in table.states],
    }
    return encode_payload(payload)


def load_table_into(payload: bytes, table) -> None:
    """Restore a run's contents into ``table`` — a *freshly built* empty
    table of the same class, group expressions, and aggregate specs as
    the one that was dumped (the external operator guarantees this).

    The table's key registry and state objects are filled in place, so
    the result merges through the ordinary exact
    :meth:`~repro.engine.vectorized.VectorizedGroupTable.merge`.
    """
    data = decode_payload(payload)
    if not isinstance(data, dict) or data.get("version") != 1:
        raise SpillFormatError("unsupported spill payload version")
    nkeys = data["nkeys"]
    if nkeys != len(table.group_exprs):
        raise SpillFormatError("group key arity mismatch")
    if table.ngroups != (0 if nkeys else 1):
        raise ValueError("load_table_into requires a fresh empty table")
    ngroups = int(data["ngroups"])
    if data["key_dtypes"] is not None:
        table._key_dtypes = [
            np.dtype(dt).newbyteorder("=") for dt in data["key_dtypes"]
        ]
    key_columns = [
        _load_key_column(column, ngroups) for column in data["keys"]
    ]
    if nkeys:
        keys = list(zip(*[column.tolist() for column in key_columns]))
        mapping = table._bulk_register(keys)
        if table.ngroups != ngroups or not np.array_equal(
            mapping, np.arange(ngroups, dtype=np.int64)
        ):
            raise SpillFormatError("duplicate group key in spill payload")
    states = data["states"]
    if len(states) != len(table.states):
        raise SpillFormatError("aggregate state count mismatch")
    for state, state_data in zip(table.states, states):
        state.load(state_data)
