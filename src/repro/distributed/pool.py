"""Shard worker process pool: lifecycle + shipped-copy tracking.

One pool holds one executor process per shard (worker id = shard id),
each running :func:`repro.distributed.worker.worker_main` over its own
duplex pipe.
Workers are daemonic — an interpreter that exits without calling
:meth:`close` cannot leave orphan executors behind — but sessions are
expected to close their pools (``Database.close()`` / ``with
Database(...)`` tears them down promptly; a GC finalizer on the
execution context is the backstop).

The pool also remembers which copies — shard replicas, broadcast join
builds — each worker already holds (``shipped``), so repeated queries
over unchanged table content pay the shipping cost once: the warm path
is pure compute + partial-state exchange.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading

from .worker import worker_main

__all__ = ["ShardWorkerPool"]


class ShardWorkerPool:
    """A fixed-size fleet of shard executor processes, one per shard."""

    def __init__(self, nworkers: int, mp_context=None):
        if nworkers < 1:
            raise ValueError("shard worker count must be >= 1")
        ctx = mp_context if mp_context is not None else multiprocessing.get_context()
        self.nworkers = nworkers
        #: serializes whole exchange rounds (ship + run + collect) so
        #: concurrent sessions sharing a context never interleave
        #: messages on one worker's pipe
        self.lock = threading.Lock()
        #: (worker id, copy slot) -> shipped token
        self.shipped: dict = {}
        #: makes the tokens of a snapshot-less read unique (coordinator)
        self.unpinned_reads = itertools.count()
        self._procs = []
        self._conns = []
        self.closed = False
        for i in range(nworkers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=worker_main,
                args=(child_conn,),
                name=f"repro-shard-worker-{i}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def conn(self, worker_id: int):
        return self._conns[worker_id]

    def alive(self) -> bool:
        return not self.closed and all(p.is_alive() for p in self._procs)

    @property
    def pids(self) -> list[int]:
        return [p.pid for p in self._procs]

    def close(self) -> None:
        """Stop every worker: polite ``stop``, then join, then
        terminate stragglers.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1)
        self.shipped.clear()
