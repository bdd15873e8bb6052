"""Shard executor: the per-process worker loop.

Executor ``s`` of ``N`` owns *its* replica of each table it has been
asked about — every ``N``-th visible row from row ``s`` on, the columns
a plan reads, named by the table's content version and shipped by the
coordinator as a framed, CRC-checked spill payload
(:mod:`repro.storage.spill`) — and answers ``run`` requests by
executing the local pipeline over it: morsel scan -> filters /
hash-join probes -> partial aggregate, with the same operators and the
same group table the in-process engine uses.  The reply is the partial
group table, serialized with :func:`dump_table` and framed — the spill
run-file format used as the wire protocol.

Everything here is spawn-safe: :func:`worker_main` is a top-level
function and tasks arrive as plain picklable plan fragments (AST
expressions, SQL types, aggregate calls, the build-row rule).
"""

from __future__ import annotations

import time
import traceback
from functools import partial

import numpy as np

from ..engine import pipeline as pipeline_mod
from ..engine.join import HashJoin
from ..engine.operators import (
    AggregateSpec,
    Batch,
    SumConfig,
    factorize_object,
)
from ..engine.pipeline import apply_where
from ..errors import ReproError, error_to_wire
from ..storage.spill import (
    decode_payload,
    dump_table,
    frame_payload,
    unframe_payload,
)

__all__ = ["worker_main"]


def _shard_morsels(task, replica):
    """The shard replica as renamed, encoded morsels (mirrors
    :func:`repro.engine.executor._scan_morsels`, replica-side)."""
    columns = replica["columns"]
    reverse = {src: key for key, src in task["column_map"].items()}
    renamed = {
        reverse.get(name, name): arr for name, arr in columns.items()
    }
    names = list(renamed)
    nrows = len(renamed[names[0]]) if names else 0
    encodings = {}
    for key in task["encode_keys"]:
        column = renamed.get(key)
        if column is not None and column.dtype == object:
            # Replica columns are immutable, so the factorization is
            # cached per source column — the worker-side analogue of
            # Table.key_encodings (re-encoding every run would dwarf
            # the aggregation itself on object-dtype group keys).
            source = task["column_map"].get(key, key)
            cached = replica["encodings"].get(source)
            if cached is None:
                cached = factorize_object(column)
                replica["encodings"][source] = cached
            encodings[key] = cached
    morsel_size = task["morsel_size"]
    types = task["types"]
    morsels = []
    # max(nrows, 1): an empty shard still yields one empty morsel, so
    # downstream operators see the column dtypes — same contract as
    # Table.morsels.
    for start in range(0, max(nrows, 1), morsel_size):
        stop = start + morsel_size
        chunk = {name: arr[start:stop] for name, arr in renamed.items()}
        chunk_encodings = {
            name: (codes[start:stop], uniques)
            for name, (codes, uniques) in encodings.items()
        } or None
        morsels.append(Batch(chunk, types, chunk_encodings))
    return morsels


def _local_probes(task, copies):
    """One probe step per shipped join descriptor, in chain order: the
    :class:`HashJoin`'s ``probe`` bound to the descriptor's build-row
    rule.  The hash table is cached on the broadcast build entry —
    keyed by the keys/kind it was built for — so repeated tasks over
    the same build pay the build cost once."""
    probes = []
    for desc in task["joins"]:
        entry = copies.get(desc["token"])
        if entry is None:
            raise KeyError(
                f"join build {desc['token']!r} was never shipped"
            )
        cache_key = (
            tuple(k.sql() for k in desc["build_keys"]),
            tuple(k.sql() for k in desc["probe_keys"]),
            desc["kind"], desc["probe_is_left"],
        )
        join = entry["joins"].get(cache_key)
        if join is None:
            build_batch = Batch(
                dict(entry["columns"]), dict(entry["types"])
            )
            join = HashJoin(
                build_batch, tuple(desc["build_keys"]),
                tuple(desc["probe_keys"]), desc["kind"],
                desc["probe_is_left"],
            )
            entry["joins"][cache_key] = join
        probes.append(partial(join.probe, group_keys=desc["group_keys"]))
    return probes


def _execute_task(task, replica, copies):
    """Run one shard-local partial aggregation; returns the table."""
    sum_config = SumConfig(task["sum_mode"], task["sum_levels"])
    specs = [AggregateSpec(call, sum_config) for call in task["agg_calls"]]
    morsels = _shard_morsels(task, replica)
    probes = _local_probes(task, copies)
    table = pipeline_mod.make_group_table(tuple(task["group_exprs"]), specs)
    # The shipped chain in order: the same two operators the in-process
    # pipeline's transform applies.
    for batch in morsels:
        for step in task["chain_ops"]:
            if step[0] == "filter":
                batch = apply_where(batch, step[1])
            else:
                batch = probes[step[1]](batch)
        table.update(batch)
    return table, len(morsels)


def worker_main(conn) -> None:
    """The executor loop: serve ``load`` / ``run`` / ``stop`` requests
    over one pipe until told to stop (or the pipe closes)."""
    copies: dict = {}   # token -> shard replica or broadcast join build
    by_slot: dict = {}  # slot -> the token it currently holds
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "load":
                _, slot, token, types, frame = message
                payload = decode_payload(
                    unframe_payload(frame, context=f"shipped {slot[0]}")
                )
                # New content (DML on a table the copy reads, or an
                # older pinned snapshot) supersedes the slot's old copy.
                copies.pop(by_slot.get(slot), None)
                by_slot[slot] = token
                copies[token] = {
                    # kept, so copied off the frame (spill's ownership
                    # rule): aligned arrays, and the frame can go
                    "columns": {
                        name: np.array(column)
                        for name, column in payload["columns"].items()
                    },
                    "types": types,
                    "encodings": {}, "joins": {},
                }
            elif kind == "run":
                _, token, task = message
                replica = copies.get(token)
                if replica is None:
                    raise KeyError(
                        f"shard replica {token!r} was never shipped"
                    )
                busy_started = time.thread_time()
                table, nmorsels = _execute_task(task, replica, copies)
                busy = time.thread_time() - busy_started
                frame = frame_payload(dump_table(table))
                conn.send(("partial", nmorsels, busy, frame, table.ladder))
            else:
                raise ValueError(f"unknown shard request {kind!r}")
        except Exception as exc:
            # an engine error travels in its wire form, so the
            # coordinator raises the type the in-process engine would
            wire = error_to_wire(exc) if isinstance(exc, ReproError) else None
            try:
                conn.send(("error", traceback.format_exc(), wire))
            except (OSError, BrokenPipeError):  # coordinator went away
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover - teardown best effort
        pass
