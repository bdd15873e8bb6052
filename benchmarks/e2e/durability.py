"""The durability check: every acknowledged write is readable after a
restart from only the bytes flushed before the crash.

Killing a process leaves the operating system's cache intact, so a
SIGKILL alone proves nothing about ``fsync``.  This check runs in
process, records through a wrapped ``os.fsync`` how long each file was
when it was last flushed, abandons the database the way ``kill -9``
would, cuts every WAL segment back to its flushed length, and reopens.
"""

from __future__ import annotations

import os
from pathlib import Path

import repro
from repro.storage.wal import list_segments

from common import Sizes, fresh_dir
from workloads import (
    CREATE_VIEW_SQL, FILTERED_SQL, REFRESH_SQL, VIEW_SQL, Mirror, ObsStream,
    load_tables, result_bits,
)


class FsyncLedger:
    """Wraps ``os.fsync`` while active: counts the calls and keeps, per
    file, its length at its last fsync (the storage layer reaches fsync
    through the ``os`` module, so swapping the attribute sees them all)."""

    def __init__(self):
        self.calls = 0
        self.flushed: dict[str, int] = {}
        self._real = os.fsync

    def _fsync(self, fd) -> None:
        self._real(fd)
        self.calls += 1
        self.flushed[os.readlink(f"/proc/self/fd/{fd}")] = os.fstat(fd).st_size

    def __enter__(self) -> "FsyncLedger":
        os.fsync = self._fsync
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real

    def discard_unflushed(self, directory: str) -> int:
        """Truncate every WAL segment of ``directory`` to its length at
        its last fsync (0 when it never had one); returns bytes cut."""
        cut = 0
        for _, path in list_segments(directory):
            keep = self.flushed.get(os.path.realpath(path), 0)
            cut += os.path.getsize(path) - keep
            os.truncate(path, keep)
        return cut


def durability_check(work: Path, seed: int, sizes: Sizes, tally) -> dict:
    """``sizes.durability_cycles`` cycles of INSERT (+ DELETE every 8th)
    + REFRESH on an embedded durable database beside an in-memory
    mirror, then crash, discard, reopen.  Every acknowledged statement
    must be there and the repro bits must equal the mirror's; a miss
    fails all of them.  Returns what it did, for the run's info block."""
    stream = ObsStream(seed, sizes)
    tables = [stream.initial()]
    directory = str(fresh_dir(work / "durability"))
    mirror = Mirror(tables, seed)
    acknowledged = 0
    try:
        with FsyncLedger() as ledger:
            db = repro.open(directory)
            try:
                load_tables(db, tables)
                session = db.session(sum_mode="repro")
                session.execute(CREATE_VIEW_SQL)
                db.checkpoint()
                for cycle in range(sizes.durability_cycles):
                    statements = [stream.insert_sql(cycle),
                                  stream.delete_sql(cycle), REFRESH_SQL]
                    for sql in filter(None, statements):
                        session.execute(sql)
                        acknowledged += 1
                        if sql is not REFRESH_SQL:
                            mirror.execute(sql)
                db.simulate_crash()
            finally:
                db.close()
        cut = ledger.discard_unflushed(directory)

        tally.attempted += acknowledged
        db = repro.open(directory)
        try:
            session = db.session(sum_mode="repro")
            same_bits = all(
                result_bits(session.execute(sql))
                == result_bits(mirror.execute(sql))
                for sql in (FILTERED_SQL, VIEW_SQL)
            )
            # the last REFRESH survived iff the view still answers for
            # the recovered table's newest snapshot
            view_fresh = "ViewScan" in session.explain(VIEW_SQL)
        finally:
            db.close()
        if not (same_bits and view_fresh):
            tally.fail("acknowledged writes missing after discarding "
                       "unflushed bytes", statements=acknowledged)
    finally:
        mirror.close()
    return {"durability_acknowledged": acknowledged,
            "durability_fsyncs": ledger.calls,
            "durability_unflushed_bytes_cut": cut}
