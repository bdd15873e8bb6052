"""Write-ahead log: framed, CRC-checked, fsync-on-commit mutation records.

Every mutating statement the engine commits — INSERT / DELETE / UPDATE
row effects, CREATE/DROP TABLE, CREATE/REFRESH/DROP MATERIALIZED VIEW,
persistent ``SET`` defaults — is appended here as **one spill frame**
(:func:`repro.storage.spill.frame_payload` around the tagged codec):
the same self-delimiting ``magic | length | payload | crc32 | end``
layout the external aggregation's run files use.
Column data inside a record travels as raw little-endian array bytes,
so the IEEE bit patterns that make results reproducible are the bit
patterns that hit the disk.

Records carry a strictly increasing LSN.  The log is segmented
(``wal-00000001.log``, ...): a checkpoint rotates to a fresh segment
so compaction can delete everything the checkpoint image already
covers without touching the file writers append to.

Crash semantics (the contract recovery leans on):

* a **torn tail** — the file ends mid-frame, or the final frame fails
  its CRC and *nothing valid follows* — is the expected shape of a
  crash mid-append.  The reader truncates at the last valid record:
  a committed prefix, never half a record, never wrong bits.
* **mid-log damage** — a record fails its check but a later intact
  frame exists in the same or a later segment — means committed data
  was lost or mangled.  That raises :class:`~repro.errors.
  WalCorruptError`; silently skipping the hole could replay to a
  database that *differs* from the one that crashed, which is exactly
  what this engine can never do.
"""

from __future__ import annotations

import os
import threading

from ..errors import WalCorruptError
from .spill import (
    SPILL_MAGIC,
    decode_payload,
    encode_payload,
    frame_payload,
    read_frame,
)

__all__ = ["WriteAheadLog", "read_segment", "scan_wal", "segment_path"]

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def segment_path(directory: str, index: int) -> str:
    return os.path.join(
        directory, f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"
    )


def list_segments(directory: str) -> list[tuple[int, str]]:
    """``(index, path)`` of every WAL segment, ascending."""
    out = []
    for name in os.listdir(directory):
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX):
            stem = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
            try:
                out.append((int(stem), os.path.join(directory, name)))
            except ValueError:
                continue
    out.sort()
    return out


def _parse_one_frame(blob: bytes, pos: int):
    """Parse the frame starting at ``pos``; returns ``(record, end)``
    or ``None`` when the bytes there are not one intact record."""
    try:
        parsed = read_frame(blob, pos)
        if parsed is None:
            return None
        record = decode_payload(parsed[0])
    except Exception:
        return None
    if not isinstance(record, dict) or not isinstance(record.get("lsn"), int):
        return None
    return record, parsed[1]


def _any_valid_frame_after(blob: bytes, start: int) -> bool:
    """True when any intact record frame begins at or after ``start``
    (the mid-log-corruption probe)."""
    pos = blob.find(SPILL_MAGIC, start)
    while pos != -1:
        if _parse_one_frame(blob, pos) is not None:
            return True
        pos = blob.find(SPILL_MAGIC, pos + 1)
    return False


def read_segment(path: str, repair: bool = False):
    """All intact records of one segment, in order: ``(records,
    valid_bytes)``.

    Damage after the last intact record is classified: if any intact
    frame follows the damage point it is mid-log corruption
    (:class:`WalCorruptError`); otherwise it is a torn tail and — with
    ``repair=True`` — the file is physically truncated to the valid
    prefix so the damage cannot be misread twice.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    records = []
    pos = 0
    while pos < len(blob):
        parsed = _parse_one_frame(blob, pos)
        if parsed is None:
            if _any_valid_frame_after(blob, pos + 1):
                raise WalCorruptError(
                    f"{path}: damaged record at byte {pos} with intact "
                    f"records after it — committed WAL data is corrupt"
                )
            if repair:
                with open(path, "r+b") as handle:
                    handle.truncate(pos)
                    handle.flush()
                    os.fsync(handle.fileno())
            break
        record, pos = parsed
        records.append(record)
    else:
        pos = len(blob)
    return records, pos


def scan_wal(directory: str, first_segment: int = 1, repair: bool = False):
    """Records of every segment ``>= first_segment``, in LSN order.

    A torn tail is only legal in the *last* segment: an earlier
    segment that ends mid-record while later segments hold data is
    mid-log corruption.  LSNs must be strictly increasing across the
    whole scan — a valid-looking frame with a regressing LSN means
    records were lost or reordered, which also raises.
    """
    segments = [
        (index, path) for index, path in list_segments(directory)
        if index >= first_segment
    ]
    records = []
    last_lsn = None
    for n, (index, path) in enumerate(segments):
        seg_records, valid_bytes = read_segment(path, repair=repair)
        if (
            n + 1 < len(segments)
            and valid_bytes != os.path.getsize(path)
            and any(
                os.path.getsize(later) for _, later in segments[n + 1:]
            )
        ):
            raise WalCorruptError(
                f"{path}: torn segment with non-empty segments after it"
            )
        for record in seg_records:
            lsn = record["lsn"]
            if last_lsn is not None and lsn <= last_lsn:
                raise WalCorruptError(
                    f"{path}: LSN {lsn} after {last_lsn} — records lost "
                    f"or reordered"
                )
            last_lsn = lsn
            records.append(record)
    return records


class WriteAheadLog:
    """Appender over the segment files.

    ``append`` frames one record dict (stamping the next LSN), writes
    it to the live segment, and — when ``sync='commit'``, the default —
    fsyncs before returning, so a record the caller saw succeed
    survives power loss.  ``sync='never'`` leaves flushing to the OS
    (benchmarks; crash-consistency then only covers what the kernel
    wrote back).

    Thread safety: one internal mutex orders appends; callers already
    hold their table's statement lock, and :meth:`rotate` takes only
    this mutex, so checkpointing never deadlocks against writers.
    """

    def __init__(self, directory: str, sync: str = "commit"):
        if sync not in ("commit", "never"):
            raise ValueError("wal sync must be 'commit' or 'never'")
        self.directory = directory
        self.sync = sync
        self._lock = threading.Lock()
        self._handle = None
        self.closed = False
        segments = list_segments(directory)
        self._segment = segments[-1][0] if segments else 1
        self._next_lsn = 1
        self._open_segment()

    # -- internals ---------------------------------------------------------
    def _open_segment(self) -> None:
        self._handle = open(segment_path(self.directory, self._segment), "ab")

    def _fsync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- append path -------------------------------------------------------
    @property
    def segment(self) -> int:
        """Index of the live (appended-to) segment."""
        return self._segment

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def set_next_lsn(self, lsn: int) -> None:
        """Recovery hands back the first unused LSN."""
        with self._lock:
            self._next_lsn = max(self._next_lsn, int(lsn))

    def append(self, record: dict) -> int:
        """Frame, write, and (in commit mode) fsync one record; returns
        its LSN."""
        with self._lock:
            if self.closed:
                raise ValueError("write-ahead log is closed")
            lsn = self._next_lsn
            self._next_lsn += 1
            frame = frame_payload(encode_payload({"lsn": lsn, **record}))
            self._handle.write(frame)
            if self.sync == "commit":
                self._fsync()
            return lsn

    def flush(self) -> None:
        """Flush and fsync the live segment regardless of sync mode."""
        with self._lock:
            if not self.closed:
                self._fsync()

    def tail_bytes(self) -> int:
        """Bytes appended to the live segment (compaction trigger)."""
        with self._lock:
            if self.closed:
                return 0
            self._handle.flush()
            return os.path.getsize(
                segment_path(self.directory, self._segment)
            )

    # -- checkpoint support ------------------------------------------------
    def rotate(self) -> int:
        """Seal the live segment and start the next one; returns the
        new segment's index (the checkpoint's replay horizon).  Holds
        only the WAL mutex — never a table lock — so a writer blocked
        here is blocked for a file open, not for the checkpoint copy."""
        with self._lock:
            if self.closed:
                raise ValueError("write-ahead log is closed")
            self._fsync()
            self._handle.close()
            self._segment += 1
            self._open_segment()
            self._fsync()
            return self._segment

    def remove_segments_below(self, first_live: int) -> int:
        """Delete sealed segments a durable checkpoint made redundant."""
        removed = 0
        for index, path in list_segments(self.directory):
            if index < first_live:
                os.remove(path)
                removed += 1
        return removed

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        """Fsync and release the live segment.  Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            try:
                self._fsync()
            finally:
                self._handle.close()
                self._handle = None

    def drop_handle(self) -> None:
        """Abandon the file handle *without* the final fsync — the
        crash-simulation hook.  Bytes already fsynced (every committed
        record in commit mode) stay durable; nothing else is promised,
        which is the point."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self._handle.close()
            self._handle = None
