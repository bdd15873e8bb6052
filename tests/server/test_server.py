"""Serving layer: wire protocol, admission control, typed errors.

End-to-end tests run a real :class:`ReproServer` on an event loop in a
background thread and drive it with real blocking-socket clients —
the exact production path, port 0 so the OS picks a free port.
"""

from __future__ import annotations

import asyncio
import collections
import os
import platform
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.engine import Database, QueryResult
from repro.errors import (
    AdmissionError,
    BindError,
    CatalogError,
    ConfigError,
    DataError,
    LadderOverflowError,
    ParseError,
    ProtocolError,
    QueryTimeout,
    ReproError,
    error_code,
    error_from_wire,
    error_to_wire,
)
from repro.server import AdmissionGate, ReproServer, StatementThreads
from repro.server.protocol import decode_result, encode_result

# ---------------------------------------------------------------------------
# Harness: a server on a background event-loop thread
# ---------------------------------------------------------------------------


class ServerThread:
    def __init__(self, db, **kwargs):
        self.db = db
        self.kwargs = kwargs
        self.address = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "server failed to start"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        async with ReproServer(self.db, **self.kwargs) as server:
            self.server = server
            self.address = server.address
            self._ready.set()
            await self._stop.wait()

    def stop(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)


@pytest.fixture
def served():
    db = Database(sum_mode="repro")
    server = ServerThread(db)
    yield db, server
    server.stop()


# ---------------------------------------------------------------------------
# Typed errors: wire codec
# ---------------------------------------------------------------------------


def test_error_wire_roundtrip_preserves_class():
    for exc in (
        ParseError("bad token"),
        CatalogError("no table 'x'"),
        ConfigError("workers must be >= 1"),
        AdmissionError("full"),
        QueryTimeout("too slow"),
    ):
        back = error_from_wire(error_to_wire(exc))
        assert type(back) is type(exc)
        assert str(exc) in str(back)


def test_unknown_wire_code_degrades_to_repro_error():
    back = error_from_wire(
        {"code": "from_the_future", "type": "FancyError", "message": "boom"}
    )
    assert type(back) is ReproError
    assert "FancyError" in str(back) and "boom" in str(back)


def test_catalog_error_is_keyerror_with_clean_message():
    exc = CatalogError("no table 'x'")
    assert isinstance(exc, KeyError) and isinstance(exc, ValueError)
    assert str(exc) == "no table 'x'"  # no KeyError repr-quoting


# ---------------------------------------------------------------------------
# Result codec: bit-exact columns
# ---------------------------------------------------------------------------


def test_result_codec_is_bit_exact_for_floats():
    tricky = np.array(
        [0.1 + 0.2, 1e308, 5e-324, -0.0, float("inf"), float("nan")]
    )
    result = QueryResult(["f"], [tricky], [None])
    back = decode_result(encode_result(result))
    assert back.arrays[0].tobytes() == tricky.tobytes()  # NaN payload too


def test_result_codec_roundtrips_types_and_objects():
    db = Database()
    db.execute(
        "CREATE TABLE t (k INT, f DOUBLE, s VARCHAR(5), d DATE, "
        "m DECIMAL(12,3))"
    )
    db.execute("INSERT INTO t VALUES (7, 2.5, 'hi', '2024-06-01', 1.125)")
    result = db.execute("SELECT k, f, s, d, m FROM t")
    back = decode_result(encode_result(result))
    assert back.names == result.names
    assert [repr(t) for t in back.types] == [repr(t) for t in result.types]
    assert back.rows() == result.rows()
    for mine, theirs in zip(result.arrays, back.arrays):
        if mine.dtype.kind != "O":
            assert mine.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------------------
# AdmissionGate semantics (pure asyncio, no sockets)
# ---------------------------------------------------------------------------


def test_admission_gate_bounds_inflight_and_backlog():
    async def scenario():
        gate = AdmissionGate(max_inflight=2, max_backlog=1)
        await gate.acquire()
        await gate.acquire()
        assert gate.inflight == 2
        queued = asyncio.ensure_future(gate.acquire())
        await asyncio.sleep(0)
        assert gate.queued == 1
        with pytest.raises(AdmissionError):
            await gate.acquire()  # backlog full -> immediate rejection
        gate.release()  # slot hands over FIFO
        await queued
        assert gate.inflight == 2 and gate.queued == 0
        gate.release()
        gate.release()
        assert gate.inflight == 0
        assert gate.rejected == 1 and gate.admitted == 3

    asyncio.run(scenario())


def test_admission_gate_cancelled_waiter_frees_backlog():
    async def scenario():
        gate = AdmissionGate(max_inflight=1, max_backlog=2)
        await gate.acquire()
        waiter = asyncio.ensure_future(gate.acquire())
        await asyncio.sleep(0)
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        assert gate.queued == 0
        gate.release()
        assert gate.inflight == 0

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


def test_execute_matches_local_bits(served):
    db, server = served
    local = db.session()
    local.execute("CREATE TABLE t (k INT, f DOUBLE)")
    for i in range(100):
        local.execute(f"INSERT INTO t VALUES ({i % 7}, {(0.1 * i) ** 3!r})")
    query = "SELECT k, SUM(f), COUNT(*) FROM t GROUP BY k ORDER BY k"
    expected = local.execute(query)
    with repro.connect(server.address, sum_mode="repro", workers=2) as s:
        got = s.execute(query)
    assert got.names == expected.names
    for mine, theirs in zip(expected.arrays, got.arrays):
        assert mine.tobytes() == theirs.tobytes()


def test_remote_session_full_surface(served):
    db, server = served
    with repro.connect(server.address) as s:
        assert s.server_info["max_inflight"] == 8
        assert s.execute("CREATE TABLE t (f DOUBLE)") == 0
        assert s.execute("INSERT INTO t VALUES (0.5), (0.25)") == 2
        assert s.execute("SELECT SUM(f) FROM t").scalar() == 0.75
        assert s.execute("SET workers = 2") == 0
        assert "physical plan" in s.explain("SELECT SUM(f) FROM t")
        assert s.execute("DELETE FROM t WHERE f > 0.3") == 1


def test_typed_errors_cross_the_wire(served):
    db, server = served
    with repro.connect(server.address) as s:
        with pytest.raises(ParseError):
            s.execute("SELEC 1")
        with pytest.raises(CatalogError):
            s.execute("SELECT * FROM missing")
        with pytest.raises(ConfigError):
            s.execute("SET workers = 0")
        s.execute("CREATE TABLE t (f DOUBLE)")
        with pytest.raises(BindError):
            s.execute("SELECT nope FROM t")
        # The connection survives errors.
        assert s.execute("SELECT COUNT(*) FROM t").scalar() == 0


def test_ladder_overflow_is_one_typed_error(served):
    """A repro SUM past the ladder's range (|v| >= 2**986) fails as the
    same typed error in-process, on executor processes and over the
    wire — and the fleet that raised it still answers."""
    db, server = served
    db.execute("CREATE TABLE big (k INT, v DOUBLE)")
    db.execute("INSERT INTO big VALUES (1, 1.0), (2, 2e300)")
    query = "SELECT k, SUM(v) FROM big GROUP BY k"
    errors = []
    for workers in (1, 2):
        session = db.session(workers=workers)
        try:
            with pytest.raises(DataError) as info:
                session.execute(query)
            errors.append(info.value)
            assert session.execute(
                "SELECT COUNT(*) FROM big").scalar() == 2
        finally:
            session.close()
    with repro.connect(server.address, workers=2) as s:
        with pytest.raises(DataError) as info:
            s.execute(query)
        errors.append(info.value)
    for err in errors:
        assert type(err) is LadderOverflowError
        assert isinstance(err, OverflowError)
        assert error_code(err) == "ladder_overflow"
    assert len({str(err) for err in errors}) == 1


def test_lexer_and_dml_errors_are_typed_on_the_wire(served):
    """Reproduced at the commit before the compiled scanner: each of
    these escaped as a bare ``ValueError`` and arrived with wire code
    ``error`` — and ``SELECT 1 + ٣`` arrived as the number 4."""
    db, server = served
    with repro.connect(server.address) as s:
        s.execute("CREATE TABLE t (k INT, v DOUBLE, s VARCHAR(4))")
        for sql, code in [
            ("INSERT INTO t VALUES (1, 1e, 'a')", "parse_error"),
            ("INSERT INTO t VALUES (1, 1e+, 'a')", "parse_error"),
            ("SELECT ²", "parse_error"),
            ("SELECT 1 + ٣", "parse_error"),
            ("INSERT INTO t VALUES (1, 2.0)", "bind_error"),
            ("INSERT INTO t VALUES (1, 2.0, 'a'), (2, 3.0)", "bind_error"),
            ("INSERT INTO t VALUES (1, 'x', 'a')", "data_error"),
        ]:
            with pytest.raises(ReproError) as info:
                s.execute(sql)
            assert info.value.code == code, sql
        assert s.execute("SELECT COUNT(*) FROM t").scalar() == 0
        assert s.execute("SELECT 1 + 3").scalar() == 4


def test_order_by_output_position_served(served):
    """``ORDER BY <n>`` through the wire: every group comes back, in
    the order of the n-th output column (it used to be one 0-d row),
    and a constant key that is no position is a typed ``BindError``."""
    db, server = served
    with repro.connect(server.address) as s:
        s.execute("CREATE TABLE t (k INT, v DOUBLE)")
        s.execute("INSERT INTO t VALUES (2, 1.0), (1, 2.0), (3, 3.0), (1, 4.0)")
        got = s.execute("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY 1")
        assert [arr.shape for arr in got.arrays] == [(3,), (3,)]
        assert got.rows() == [(1, 6.0), (2, 1.0), (3, 3.0)]
        got = s.execute("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY 2 DESC")
        assert got.rows() == [(1, 6.0), (3, 3.0), (2, 1.0)]
        assert s.execute("SELECT k, v FROM t ORDER BY 1").column(
            "k").tolist() == [1, 1, 2, 3]
        assert "Sort(k)" in s.explain("SELECT k, v FROM t ORDER BY 1")
        for key in ("3", "'k'"):
            with pytest.raises(BindError, match="ORDER BY"):
                s.execute(f"SELECT k, v FROM t ORDER BY {key}")


def test_order_by_desc_integer_keys_served(served):
    """``ORDER BY <integer> DESC`` through the wire: the cases of
    ``TestOrderByEdges::test_order_by_desc_integer_keys_are_exact``."""
    from order_by_cases import check_desc_integer_keys

    db, server = served
    with repro.connect(server.address) as s:
        check_desc_integer_keys(s.execute)


def test_invalid_session_options_rejected_at_hello(served):
    db, server = served
    with pytest.raises(ReproError):
        repro.connect(server.address, bogus_knob=1)
    # Retired engine switches are unknown too, never silently ignored;
    # the error names what a session does accept.
    for retired in ("fused", "vectorized", "kernel_cache_size",
                    "spill_partitions", "spill_merge_fanin", "shards",
                    "shard_workers"):
        with pytest.raises(ReproError) as err:
            repro.connect(server.address, **{retired: False})
        assert "unknown session options" in str(err.value)
        assert retired in str(err.value)
        assert "morsel_size" in str(err.value)
        assert "workers" in str(err.value).replace(retired, "")
    with repro.connect(server.address, workers=2) as s:
        assert s.execute("SELECT 1 + 1").scalar() == 2


def test_unix_socket_serving(tmp_path):
    db = Database(sum_mode="repro")
    path = str(tmp_path / "repro.sock")
    server = ServerThread(db, unix_path=path)
    try:
        with repro.connect(path) as s:
            s.execute("CREATE TABLE t (f DOUBLE)")
            s.execute("INSERT INTO t VALUES (1.5)")
            assert s.execute("SELECT SUM(f) FROM t").scalar() == 1.5
    finally:
        server.stop()


# -- admission control e2e -------------------------------------------------


class _SlowSession:
    """Session whose SELECTs stall — injected via ``session_factory``
    to make admission states reproducible in tests."""

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def execute(self, sql):
        if sql.lstrip().upper().startswith("SELECT SLOW"):
            time.sleep(self._delay)
            sql = sql.replace("SLOW", "", 1)
        return self._inner.execute(sql)

    def explain(self, sql):
        return self._inner.explain(sql)

    def close(self):
        self._inner.close()


def _slow_server(db, delay, **kwargs):
    return ServerThread(
        db, session_factory=lambda **opts: _SlowSession(
            db.session(**opts), delay
        ),
        **kwargs,
    )


def test_backlog_overflow_is_typed_rejection():
    db = Database(sum_mode="repro")
    db.execute("CREATE TABLE t (f DOUBLE)")
    db.execute("INSERT INTO t VALUES (1.0)")
    server = _slow_server(db, delay=1.5, max_inflight=1, max_backlog=1)
    try:
        sessions = [repro.connect(server.address) for _ in range(3)]
        outcomes = {}

        def fire(i):
            try:
                outcomes[i] = sessions[i].execute("SELECT SLOW SUM(f) FROM t")
            except Exception as exc:
                outcomes[i] = exc

        threads = []
        for i in range(3):  # 1 runs, 1 queues, 1 must bounce
            thread = threading.Thread(target=fire, args=(i,))
            thread.start()
            threads.append(thread)
            time.sleep(0.3)
        for thread in threads:
            thread.join(timeout=15)
        rejected = [v for v in outcomes.values() if isinstance(v, AdmissionError)]
        served_fine = [v for v in outcomes.values() if isinstance(v, QueryResult)]
        assert len(rejected) == 1, outcomes
        assert len(served_fine) == 2, outcomes
        for s in sessions:
            s.close()
    finally:
        server.stop()


def test_query_timeout_fires_and_connection_survives():
    db = Database(sum_mode="repro")
    db.execute("CREATE TABLE t (f DOUBLE)")
    db.execute("INSERT INTO t VALUES (1.0)")
    server = _slow_server(db, delay=1.0, query_timeout=0.2)
    try:
        with repro.connect(server.address) as s:
            started = time.monotonic()
            with pytest.raises(QueryTimeout):
                s.execute("SELECT SLOW SUM(f) FROM t")
            assert time.monotonic() - started < 0.9  # deadline, not delay
            # Same connection keeps working after the timeout.
            assert s.execute("SELECT SUM(f) FROM t").scalar() == 1.0
    finally:
        server.stop()


# -- concurrent served digest ----------------------------------------------


def test_eight_served_sessions_match_serial_replay_bits(served):
    db, server = served
    n_clients, steps = 8, 15
    setup = db.session()
    setup.execute("CREATE TABLE cs (k INT, f DOUBLE)")

    def script(client_id):
        rng = np.random.default_rng(77 + client_id)
        ops = []
        for step in range(steps):
            key = client_id * 100 + int(rng.integers(0, 4))
            if rng.random() < 0.75:
                ops.append(
                    f"INSERT INTO cs VALUES ({key}, "
                    f"{float(rng.standard_normal())!r})"
                )
            else:
                ops.append(f"DELETE FROM cs WHERE k = {key}")
        return ops

    scripts = [script(i) for i in range(n_clients)]

    # Serial reference in a separate database with the same config.
    ref_db = Database(sum_mode="repro")
    ref = ref_db.session()
    ref.execute("CREATE TABLE cs (k INT, f DOUBLE)")
    for step in range(steps):
        for ops in scripts:
            ref.execute(ops[step])
    query = "SELECT k, SUM(f), COUNT(*) FROM cs GROUP BY k ORDER BY k"
    expected = ref.execute(query)

    barrier = threading.Barrier(n_clients)
    failures = []

    def client(ops):
        try:
            with repro.connect(server.address, sum_mode="repro") as s:
                barrier.wait()
                for sql in ops:
                    s.execute(sql)
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append(exc)

    threads = [
        threading.Thread(target=client, args=(ops,)) for ops in scripts
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not failures, failures

    with repro.connect(server.address, sum_mode="repro") as s:
        got = s.execute(query)
    assert got.names == expected.names
    for mine, theirs in zip(expected.arrays, got.arrays):
        assert mine.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------------------
# Engine threads: which thread a statement runs on
# ---------------------------------------------------------------------------


def test_statement_threads_are_idle_before_their_result_is_seen():
    """Pure asyncio, no sockets: the next statement is submitted the
    instant the last one resolves — the race ``ThreadPoolExecutor``
    loses (it read 2-3 threads on this loop) — and still finds the
    thread idle.  Errors arrive as the future's exception."""

    async def main():
        pool = StatementThreads("repro-serve-test")
        loop = asyncio.get_running_loop()
        ran_on = {
            await pool.submit(loop, threading.get_ident) for _ in range(2000)
        }
        with pytest.raises(ZeroDivisionError):
            await pool.submit(loop, lambda: 1 // 0)
        ran_on.add(await pool.submit(loop, threading.get_ident))
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(loop, threading.get_ident)
        return ran_on

    assert len(asyncio.run(main())) == 1


def test_statement_threads_never_outnumber_the_statements_in_flight():
    """Stress: eight submitters, a 10 us switch interval.  A lost update
    of the idle list would strand a thread (a ninth one starts) or hand
    one inbox to two statements at once (``busy`` reads 2)."""

    busy = collections.Counter()

    def job(value):
        me = threading.get_ident()
        busy[me] += 1
        at_once = busy[me]
        busy[me] -= 1
        return value, me, at_once

    async def main():
        pool = StatementThreads("repro-serve-test")
        loop = asyncio.get_running_loop()

        async def submitter(n):
            return [await pool.submit(loop, job, (n, i)) for i in range(300)]

        try:
            return await asyncio.wait_for(
                asyncio.gather(*(submitter(n) for n in range(8))), 60
            )
        finally:
            pool.shutdown()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcomes = asyncio.run(main())
    finally:
        sys.setswitchinterval(interval)
    for n, replies in enumerate(outcomes):
        assert [value for value, _, _ in replies] == [
            (n, i) for i in range(300)
        ]
    flat = [reply for replies in outcomes for reply in replies]
    assert {at_once for _, _, at_once in flat} == {1}
    assert len({thread for _, thread, _ in flat}) <= 8


class _WhereSession:
    """Session that answers every statement with the engine thread it
    ran on (as a row count: the one reply that needs no result)."""

    def __init__(self, barrier=None):
        self._barrier = barrier

    def execute(self, sql):
        if self._barrier is not None and sql == "together":
            self._barrier.wait(10)
        return threading.get_ident()

    def close(self):
        pass


def _engine_threads():
    return {
        t for t in threading.enumerate() if t.name.startswith("repro-serve")
    }


def test_one_statement_at_a_time_is_served_by_one_thread():
    """Two connections used alternately, never concurrently (the
    benchmark's client): a thread is idle before its reply is sent, so
    the next statement always finds it and no second thread starts."""
    before = _engine_threads()
    server = ServerThread(
        Database(), session_factory=lambda **opts: _WhereSession()
    )
    try:
        with repro.connect(server.address) as a, \
                repro.connect(server.address) as b:
            ran_on = {
                conn.execute("alone") for _ in range(300) for conn in (a, b)
            }
        assert len(ran_on) == 1
        assert len(_engine_threads() - before) == 1
    finally:
        server.stop()


def test_concurrent_statements_get_threads_and_serial_ones_reuse_the_last():
    before = _engine_threads()
    barrier = threading.Barrier(3)
    server = ServerThread(
        Database(), session_factory=lambda **opts: _WhereSession(barrier)
    )
    try:
        conns = [repro.connect(server.address) for _ in range(3)]
        together = {}

        def fire(i):
            together[i] = conns[i].execute("together")

        clients = [threading.Thread(target=fire, args=(i,)) for i in range(3)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=15)
        # the barrier only opens when all three run at once
        assert len(set(together.values())) == 3, together
        alone = {conns[i % 3].execute("alone") for i in range(60)}
        assert len(alone) == 1 and alone < set(together.values())
        for conn in conns:
            conn.close()
    finally:
        server.stop()
    deadline = time.monotonic() + 5
    while _engine_threads() - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _engine_threads() - before   # stop() ends the idle threads


# ---------------------------------------------------------------------------
# python -m repro.server: start-up order
# ---------------------------------------------------------------------------


def test_server_process_freezes_its_heap_before_it_listens(
    monkeypatch, tmp_path, capsys
):
    """What recovery built never dies: it is collected once and frozen
    out of every later gen-2 traversal, after the directory is open and
    before the first connection can be accepted."""
    from repro.server import __main__ as entry

    events = []

    class FakeGc:
        collect = staticmethod(lambda: events.append("collect"))
        freeze = staticmethod(lambda: events.append("freeze"))

    class FakeServer:
        address = ("127.0.0.1", 0)

        def __init__(self, db, **kwargs):
            events.append(("open", db.catalog.storage is not None))

        async def start(self):
            events.append("listen")

        async def serve_forever(self):
            events.append("serve")

        async def stop(self):
            events.append("stop")

    monkeypatch.setattr(entry, "gc", FakeGc)
    monkeypatch.setattr(entry, "ReproServer", FakeServer)
    monkeypatch.setattr(
        entry, "_settle_allocator", lambda: events.append("settle")
    )
    entry.main(["--data-dir", str(tmp_path), "--checkpoint-interval", "0.5"])
    capsys.readouterr()
    assert events == [
        "settle", ("open", True), "collect", "freeze", "listen", "serve",
        "stop",
    ]


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds"
)
def test_settled_allocator_recycles_arrays_that_keep_growing():
    """Counts, not times: four arrays that grow a little every round (a
    filtered scan of a table taking INSERTs) are recycled from the heap
    once the allocator is settled — the rounds after the first take no
    page faults.  Unsettled, glibc trims or unmaps them every round
    (over 100 000 faults on this loop)."""
    code = """
import resource
import numpy as np
from repro.server.__main__ import _settle_allocator

_settle_allocator()
rows, faults = 60_000, []
for _ in range(201):
    rows += 200
    arrays = [np.ones(rows) for _ in range(4)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print(faults[-1] - faults[0])
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 2_000, out.stdout
