"""``python -m repro.server`` — stand up a reproducible SQL server.

    python -m repro.server --port 7474 --sum-mode repro --workers 4
    python -m repro.server --unix /tmp/repro.sock --init schema.sql
    python -m repro.server --data-dir /var/lib/repro --port 7474

``--init`` runs a SQL script (one statement per ``;``) against the
database before accepting connections — the usual way to load a schema
and seed data for a demo or benchmark.

``--data-dir`` makes the served database durable: every committed
mutation hits the write-ahead log before its acknowledgement goes back
over the wire, and a SIGTERM shuts the server down *cleanly* — stop
accepting, drain, checkpoint, release the directory lock — so the next
start recovers instantly from the image instead of replaying the log.
A ``kill -9`` is also safe (that is the point of the WAL); it just
recovers through replay.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import signal

import numpy as np

from ..engine import Database, SumConfig
from . import ReproServer


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a repro database over TCP or a unix socket.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7474)
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="serve on a unix socket instead of TCP")
    parser.add_argument("--data-dir", default=None, metavar="DIR",
                        help="durable data directory (checkpoint + WAL); "
                             "omit for an in-memory database")
    parser.add_argument("--checkpoint-interval", type=float, default=60.0,
                        metavar="SECONDS",
                        help="background WAL compaction cadence "
                             "(with --data-dir)")
    parser.add_argument("--sum-mode", default="repro",
                        choices=SumConfig.MODES,
                        help="default SUM semantics for new sessions")
    parser.add_argument("--workers", type=int, default=1,
                        help="default partial group tables each in-memory "
                             "aggregate splits its morsels over, merged "
                             "exactly in the server process (1 = one "
                             "table)")
    parser.add_argument("--max-inflight", type=int, default=8,
                        help="statements executing concurrently")
    parser.add_argument("--max-backlog", type=int, default=32,
                        help="statements allowed to wait for a slot")
    parser.add_argument("--query-timeout", type=float, default=None,
                        metavar="SECONDS", help="per-statement deadline")
    parser.add_argument("--init", default=None, metavar="SCRIPT.sql",
                        help="SQL script to run before serving")
    return parser.parse_args(argv)


def _run_init_script(db: Database, path: str) -> int:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    ran = 0
    session = db.session()
    for statement in text.split(";"):
        statement = statement.strip()
        if statement:
            session.execute(statement)
            ran += 1
    return ran


def _settle_allocator() -> None:
    """Pin glibc's moving mmap threshold where it ends up anyway.

    malloc serves a block larger than every block freed so far from a
    private mapping: fresh zero pages, ~0.5 ms a megabyte to fault in,
    unmapped again at ``free``; smaller ones are recycled from the heap
    at no cost.  A table that grows with every INSERT keeps its scan
    arrays just past that threshold, and whether a statement then took
    700 page faults or none depended on what had been freed before it.
    Freeing one block of the largest size the threshold can reach
    (32 MB; the heap is trimmed past twice that) settles it for the
    life of the process.  The block is never touched, so it costs no
    memory; other allocators ignore it.
    """
    np.empty(32 * 2**20 - 2**16, dtype=np.uint8)


async def _amain(args) -> None:
    _settle_allocator()
    db = Database(
        sum_mode=args.sum_mode, workers=args.workers,
        path=args.data_dir,
        checkpoint_interval=args.checkpoint_interval,
    )
    try:
        if args.init:
            ran = _run_init_script(db, args.init)
            print(f"init: ran {ran} statements from {args.init}")
        server = ReproServer(
            db, host=args.host, port=args.port, unix_path=args.unix,
            max_inflight=args.max_inflight, max_backlog=args.max_backlog,
            query_timeout=args.query_timeout,
        )
        # What exists once the directory is open (modules, the catalog,
        # recovered plans and view states) lives as long as the process:
        # take it out of every later collection's traversal.
        gc.collect()
        gc.freeze()
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            loop.add_signal_handler(signal.SIGINT, stop.set)
        where = server.address if args.unix else "%s:%d" % server.address
        durable = f", data_dir={args.data_dir}" if args.data_dir else ""
        print(f"serving on {where} (sum_mode={args.sum_mode}, "
              f"max_inflight={args.max_inflight}{durable})")
        serve = asyncio.ensure_future(server.serve_forever())
        waiter = asyncio.ensure_future(stop.wait())
        try:
            await asyncio.wait(
                [serve, waiter], return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            waiter.cancel()
            serve.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await serve
            await server.stop()
            if args.data_dir:
                # Sealed shutdown: image the final state so the next
                # start recovers from the checkpoint, not a log replay.
                db.checkpoint()
                print("checkpoint written, data directory sealed")
    finally:
        db.close()


def main(argv=None) -> None:
    try:
        asyncio.run(_amain(_parse_args(argv)))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
