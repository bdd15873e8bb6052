"""The timed run: SQL text in, result bits out, through ``repro.connect``.

One single-threaded closed-loop client drives the production server
(``python -m repro.server --data-dir ...``, a child process) over TCP
loopback.  The ``ieee`` and ``repro`` connections are used alternately,
never concurrently, and the order flips every pair so drift cancels.
Every time is taken beside a sample of :class:`common.SpeedReference`
and reported at reference speed.  Tracing is off here; :mod:`traced` is
the separate per-layer run.
"""

from __future__ import annotations

import gc
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.errors import AdmissionError, ReproError

from common import (
    SERVED_KNOBS, SRC, Sizes, SpeedReference, directory_bytes, fresh_dir,
    median, percentile, tail_supported,
)
from durability import durability_check
from workloads import (
    CREATE_VIEW_SQL, FILTERED_SQL, REFRESH_SQL, VIEW_SQL, Mirror, ObsStream,
    Workload, close_to, load_tables, result_bits,
)

STATEMENT_TIMEOUT_S = 60.0
SERVER_START_TIMEOUT_S = 120.0
WARMUP_PAIRS = 3
CHECK_EVERY = 10


# -- accounting ----------------------------------------------------------------

class Tally:
    """Statements attempted and failed.  An error, a timeout, a refusal
    and a wrong result each fail the statement they happened to."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.notes: list[str] = []

    def timed(self, conn, sql: str):
        """Run one statement; ``(seconds, result-or-None)``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = conn.execute(sql)
        except (ReproError, OSError) as exc:
            elapsed = time.perf_counter() - start
            self.rejected += isinstance(exc, AdmissionError)
            self.fail(f"{type(exc).__name__}: {exc} [{sql[:60]!r}]")
            return elapsed, None
        return time.perf_counter() - start, result

    def fail(self, note: str, statements: int = 1) -> None:
        self.failed += statements
        if len(self.notes) < 20:
            self.notes.append(note)

    def expect(self, ok: bool, note: str) -> None:
        if not ok:
            self.fail(note)


# -- the server child ----------------------------------------------------------

class ServerChild:
    """``python -m repro.server`` on a durable directory, as a child
    process on an ephemeral loopback port."""

    def __init__(self, data_dir: Path):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--data-dir", str(data_dir),
             "--port", "0", "--checkpoint-interval",
             str(SERVED_KNOBS["checkpoint_interval_s"])],
            env=env, stdout=subprocess.PIPE,
        )
        try:
            self.address = ("127.0.0.1", self._read_port())
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        """Parse ``serving on host:port (...)`` off the child's stdout."""
        fd = self.process.stdout.fileno()
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        line = b""
        while b"\n" not in line:
            ready, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.monotonic())
            )
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise RuntimeError(f"server did not start: {line!r}")
            line += chunk
        return int(line.split(b"serving on ", 1)[1].split(b" ", 1)[0]
                   .rsplit(b":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for row in f:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server child")

    def kill(self) -> None:
        """SIGKILL and reap: the crash the WAL exists for."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()


def build_directory(path: Path, tables) -> float:
    """Load ``tables`` into a fresh durable directory, create the view,
    checkpoint, close.  Returns the checkpoint's seconds."""
    fresh_dir(path)
    db = repro.open(str(path))
    try:
        load_tables(db, tables)
        with db.session(sum_mode="repro") as session:
            session.execute(CREATE_VIEW_SQL)
        start = time.perf_counter()
        db.checkpoint()
        return time.perf_counter() - start
    finally:
        db.close()


class Served:
    """A running server on ``path`` plus the client's two connections,
    warmed up on the workload's statement."""

    def __init__(self, path: Path, sql: str, expected, tally: Tally):
        self.path = path
        self.server = ServerChild(path)
        self.conns: dict = {}
        try:
            for mode in ("ieee", "repro"):
                self.conns[mode] = repro.connect(
                    self.server.address, timeout=STATEMENT_TIMEOUT_S,
                    sum_mode=mode,
                )
            for _ in range(WARMUP_PAIRS):
                for mode in ("ieee", "repro"):
                    _, result = tally.timed(self.conns[mode], sql)
                    check_read(tally, mode, result, expected)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for conn in self.conns.values():
            conn.close()
        self.server.kill()


def check_read(tally: Tally, mode: str, result, expected) -> None:
    """The paper's invariant on one served result: repro bits equal the
    oracle's byte for byte; IEEE within 1e-9 relative of them."""
    if result is None:
        return                      # already counted as failed
    if mode == "repro":
        tally.expect(result_bits(result) == result_bits(expected),
                     "repro result differs from the oracle's bits")
    else:
        tally.expect(close_to(result, expected),
                     "ieee result beyond 1e-9 of the oracle")


# -- the measured loops --------------------------------------------------------

@dataclass
class Samples:
    """Seconds per statement at reference speed (see
    :class:`common.SpeedReference`): each is the clock's reading times
    the factor sampled at the start of its pair or cycle."""

    reference: SpeedReference = field(default_factory=SpeedReference)
    ieee: list = field(default_factory=list)      # SELECT, sum_mode=ieee
    repro: list = field(default_factory=list)
    insert: list = field(default_factory=list)
    refresh: list = field(default_factory=list)
    #: one per pair or cycle, in order — so ``factors[i]`` is the factor
    #: of ``ieee[i]`` and ``repro[i]`` (their pairs or cycles come first)
    factors: list = field(default_factory=list)
    rows_scanned: int = 0                          # by the repro SELECTs

    def next_factor(self) -> float:
        self.factors.append(self.reference.scale())
        return self.factors[-1]


def measure_pairs(served: Served, sql: str, expected, rows: int, seconds: int,
                  min_pairs: int, tally: Tally, samples: Samples) -> None:
    """Interleaved ieee/repro pairs for ``seconds`` seconds — longer
    only if that is what ``min_pairs`` pairs take (the tail percentile
    needs them), never beyond 5x."""
    start = time.perf_counter()
    pair = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= 5 * seconds or (elapsed >= seconds and pair >= min_pairs):
            break
        factor = samples.next_factor()
        order = ("ieee", "repro") if pair % 2 == 0 else ("repro", "ieee")
        for mode in order:
            taken, result = tally.timed(served.conns[mode], sql)
            getattr(samples, mode).append(taken * factor)
            check_read(tally, mode, result, expected)
        samples.rows_scanned += rows
        pair += 1


def run_cycles(served: Served, stream: ObsStream, mirror: Mirror, cycles: int,
               full: bool, tally: Tally, samples: Samples) -> None:
    """Write cycles on ``obs``: an acknowledged INSERT and a REFRESH —
    and, when ``full`` (``durable_mixed``), the filtered GROUP BY in
    both modes after the INSERT, a view-served SELECT after the REFRESH
    and a DELETE every 8th cycle.  The mirror takes the same DML between
    timed statements and is compared every ``CHECK_EVERY`` cycles."""
    conn = served.conns["repro"]
    for cycle in range(cycles):
        factor = samples.next_factor()
        insert = stream.insert_sql(cycle)
        taken, count = tally.timed(conn, insert)
        samples.insert.append(taken * factor)
        tally.expect(count == mirror.execute(insert), "INSERT row count")
        check = cycle % CHECK_EVERY == CHECK_EVERY - 1
        if full:
            expected = mirror.execute(FILTERED_SQL) if check else None
            order = ("ieee", "repro") if cycle % 2 == 0 else ("repro", "ieee")
            for mode in order:
                taken, result = tally.timed(served.conns[mode], FILTERED_SQL)
                getattr(samples, mode).append(taken * factor)
                if check:
                    check_read(tally, mode, result, expected)
            samples.rows_scanned += mirror.live_rows("obs")
        taken, _ = tally.timed(conn, REFRESH_SQL)
        samples.refresh.append(taken * factor)
        if full:
            _, viewed = tally.timed(conn, VIEW_SQL)
            if check:
                check_read(tally, "repro", viewed, mirror.execute(VIEW_SQL))
            delete = stream.delete_sql(cycle)
            if delete is not None:
                _, count = tally.timed(conn, delete)
                tally.expect(count == mirror.execute(delete),
                             "DELETE row count")
    _, viewed = tally.timed(conn, VIEW_SQL)
    check_read(tally, "repro", viewed, mirror.execute(VIEW_SQL))


def measure_recovery(killed: Path, work: Path, workload: Workload,
                     mirror: Mirror, repeats: int, tally: Tally,
                     reference: SpeedReference) -> float:
    """Median seconds of ``repro.open()`` + first full result of the
    workload's statement, on copies of the SIGKILLed directory.  Every
    acknowledged statement must be there: the recovered bits are held
    against the mirror, which saw exactly the acknowledged DML."""
    expected = mirror.execute(workload.sql)
    expected_view = mirror.execute(VIEW_SQL)
    copy = work / "recover"

    def reopen():
        db = repro.open(str(copy))
        return db, db.session(sum_mode="repro").execute(workload.sql)

    times = []
    for _ in range(repeats):
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(killed, copy)
        tally.attempted += 2
        (db, result), seconds, _ = reference.timed(reopen)
        try:
            times.append(seconds)
            check_read(tally, "repro", result, expected)
            check_read(tally, "repro",
                       db.session(sum_mode="repro").execute(VIEW_SQL),
                       expected_view)
        finally:
            db.close()
    shutil.rmtree(copy)
    return median(times)


def run_timed(workload: Workload, seed: int, seconds: int, sizes: Sizes,
              work: Path) -> dict:
    """One timed run of one workload; returns the result record."""
    tally = Tally()
    samples = Samples()
    reference = samples.reference
    full = workload.mixed
    stream = ObsStream(seed, sizes)
    tables, generate_s, _ = reference.timed(
        lambda: workload.read_tables(seed, sizes) + [stream.initial()]
    )

    mirror = Mirror(tables, seed)
    served = None
    try:
        expected = mirror.execute(workload.sql)
        accuracy = workload.fsum_check(mirror.scan(), expected)

        def set_up(path):
            build_directory(path, tables)
            return Served(path, workload.sql, expected, tally)

        # Set up several times and report the median; the last one stays.
        setup_times, raw_setup_times = [], []
        for attempt in range(sizes.setups):
            if served is not None:
                served.close()
            served, at_speed, raw = reference.timed(
                lambda: set_up(work / f"data{attempt}")
            )
            setup_times.append(at_speed)
            raw_setup_times.append(raw)

        gc.collect()
        gc.freeze()     # set-up garbage stays out of the client's GC passes
        try:
            if full:
                run_cycles(served, stream, mirror,
                           sizes.mixed_cycles_per_s * seconds, True, tally,
                           samples)
            else:
                rows = sum(data.nrows for data in tables[:-1])
                measure_pairs(served, workload.sql, expected, rows, seconds,
                              sizes.min_pairs, tally, samples)
                run_cycles(served, stream, mirror, sizes.write_cycles, False,
                           tally, samples)
        finally:
            gc.unfreeze()
        if full:    # the table moved: hold the final state to fsum too
            accuracy = workload.fsum_check(
                mirror.scan(), mirror.execute(workload.sql)
            )
        tally.expect(accuracy.ok and accuracy.sums > 0,
                     "oracle sums beyond the ladder's bound of math.fsum")
        peak_rss_mb = served.server.peak_rss_mb()
        served.close()          # SIGKILL: nothing is flushed on the way out
        stored = directory_bytes(served.path)
        user = sum(data.user_bytes() for data in tables[:-1]) + (
            mirror.live_rows("obs") * 12
        )
        recovery_s = measure_recovery(
            served.path, work, workload, mirror, sizes.recoveries, tally,
            reference,
        )
        durability = durability_check(work, seed, sizes, tally) if full else {}
    finally:
        if served is not None:
            served.close()
        mirror.close()

    ratios = [r / i for r, i in zip(samples.repro, samples.ieee)]
    metrics = {
        "setup_s": (generate_s + median(setup_times), "s"),
        "repro_p50_ms": (1e3 * median(samples.repro), "ms"),
        "repro_p90_ms": (1e3 * percentile(samples.repro, 90), "ms"),
        "ieee_p50_ms": (1e3 * median(samples.ieee), "ms"),
        "repro_over_ieee": (median(ratios), "ratio"),
        "repro_mrows_per_s": (
            samples.rows_scanned / sum(samples.repro) / 1e6, "Mrow/s"),
        "server_peak_rss_mb": (peak_rss_mb, "MB"),
        "insert_p50_ms": (1e3 * median(samples.insert), "ms"),
        "refresh_p50_ms": (1e3 * median(samples.refresh), "ms"),
        "recovery_s": (recovery_s, "s"),
        "stored_bytes_per_user_byte": (stored / user, "ratio"),
    }
    return {
        "tally": tally,
        "metrics": metrics,
        "info": {
            "pairs": len(ratios),
            "tail_supported": tail_supported(len(samples.repro)),
            "write_cycles": len(samples.insert),
            "failed_frac": tally.failed / max(1, tally.attempted),
            "fsum_checked_sums": accuracy.sums,
            "fsum_worst_rel_err": accuracy.worst_rel,
            # what the clock read, before the speed reference was applied
            "raw_repro_p50_ms": 1e3 * median(
                t / f for t, f in zip(samples.repro, samples.factors)),
            "raw_setup_runs_s": raw_setup_times,
            "speed_factor_p50": median(samples.factors),
            "stored_bytes": stored,
            "user_bytes": user,
            **durability,
        },
    }
