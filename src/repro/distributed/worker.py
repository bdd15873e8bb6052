"""Shard executor: the per-process worker loop.

Each worker process owns a cache of *shard replicas* — the shard-local
column arrays of one table version, shipped by the coordinator as
framed, CRC-checked spill payloads (:mod:`repro.storage.spill`) — and
answers ``run`` requests by executing the local pipeline over one
shard: morsel scan -> filters -> partial aggregate, on the same group
table (kernel-driven or interpreted) the in-process engine uses.  The
reply is the partial group table, serialized with :func:`dump_table`
and framed — the spill run-file format used as the wire protocol.

Everything here is spawn-safe: :func:`worker_main` is a top-level
function, tasks arrive as plain picklable plan fragments (AST
expressions, SQL types, aggregate calls), and fused kernels — which
hold exec-compiled functions and cannot cross a process boundary — are
compiled *locally*, from the shipped plan description, through the same
:func:`repro.engine.fused.compile_fused` entry point (bits are
identical with or without the kernel, so a worker-side compile decline
is only a slowdown, never a divergence).
"""

from __future__ import annotations

import time
import traceback
from collections import OrderedDict

from ..engine import pipeline as pipeline_mod
from ..engine.fused import compile_fused
from ..engine.join import HashJoin
from ..engine.operators import (
    AggregateSpec,
    Batch,
    SumConfig,
    factorize_object,
)
from ..engine.physical import (
    PhysAggregate,
    PhysFilter,
    PhysPipeline,
    PhysProbe,
    PhysScan,
)
from ..engine.pipeline import apply_where
from ..storage.spill import (
    decode_payload,
    dump_table,
    frame_payload,
    unframe_payload,
)

__all__ = ["worker_main"]


class _KernelHost:
    """The minimal kernel-cache surface :func:`compile_fused` needs —
    one per worker process, so repeated tasks reuse compiled kernels.
    Mirrors the in-process context's counters."""

    def __init__(self):
        self._kernel_cache: OrderedDict = OrderedDict()
        self.kernel_cache_hits = 0
        self.kernel_cache_misses = 0
        self.kernel_cache_evictions = 0


#: Stand-in for the scan's table object: ``compile_fused`` only checks
#: it is not ``None`` (the generated kernel touches batches, never the
#: table), and worker processes have no table — only shard replicas.
_REPLICA_TABLE = object()


def _compile_kernel(task, specs, host):
    scan = PhysScan(
        table=_REPLICA_TABLE,
        binding="",
        column_map=dict(task["column_map"]),
        types=dict(task["types"]),
        predicate=None,
        encode_keys=tuple(task["encode_keys"]),
    )
    ops = []
    for step in task["chain_ops"]:
        if step[0] == "filter":
            ops.append(PhysFilter(step[1]))
        else:
            # Probe stage: a replica-backed build pipeline carrying the
            # coordinator's build schema and content fingerprint, so
            # the worker-side kernel signature matches DML semantics
            # (a new build version is a new cache entry).
            desc = task["joins"][step[1]]
            build_scan = PhysScan(
                table=_REPLICA_TABLE,
                binding="",
                column_map={name: name for name in desc["types"]},
                types=dict(desc["types"]),
                predicate=None,
                encode_keys=(),
            )
            ops.append(PhysProbe(
                build=PhysPipeline(build_scan),
                build_keys=tuple(desc["build_keys"]),
                probe_keys=tuple(desc["probe_keys"]),
                kind=desc["kind"],
                probe_is_left=desc["probe_is_left"],
                build_side=desc["build_side"],
                est_build_rows=desc["rows"],
                fingerprint=tuple(desc["fingerprint"]),
            ))
    chain = PhysPipeline(scan, ops)
    aggregate = PhysAggregate(tuple(task["group_exprs"]), specs)
    return compile_fused(chain, aggregate, host)


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


def _local_joins(task, builds):
    """Construct (or fetch) one :class:`HashJoin` per shipped join
    descriptor, in chain order.  The hash table is cached on the
    broadcast build entry — keyed by the keys/kind it was built for —
    so repeated tasks over the same build pay the build cost once."""
    joins = []
    for desc in task["joins"]:
        entry = builds.get(desc["token"])
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
                dict(entry["columns"]), dict(desc["types"])
            )
            join = HashJoin(
                build_batch, tuple(desc["build_keys"]),
                tuple(desc["probe_keys"]), desc["kind"],
                desc["probe_is_left"],
            )
            entry["joins"][cache_key] = join
        joins.append(join)
    return joins


def _execute_task(task, replica, host, builds):
    """Run one shard-local partial aggregation; returns the table."""
    sum_config = SumConfig(task["sum_mode"], task["sum_levels"])
    specs = [AggregateSpec(call, sum_config) for call in task["agg_calls"]]
    group_exprs = tuple(task["group_exprs"])
    morsels = _shard_morsels(task, replica)
    joins = _local_joins(task, builds)
    kernel = _compile_kernel(task, specs, host) if task["fused"] else None
    if kernel is not None and kernel.njoins != len(joins):
        kernel = None
    # Without a kernel, walk the shipped chain in order (filters via
    # apply_where, probes via the interpreted HashJoin.probe) —
    # bit-identical to the fused kernel by construction.
    chain_ops = () if kernel is not None else task["chain_ops"]
    table = pipeline_mod.make_group_table(group_exprs, specs, kernel, joins)
    for batch in morsels:
        for step in chain_ops:
            if step[0] == "filter":
                batch = apply_where(batch, step[1])
            else:
                batch = joins[step[1]].probe(batch)
        table.update(batch)
    return table, len(morsels)


def worker_main(conn) -> None:
    """The executor loop: serve ``load`` / ``run`` / ``stop`` requests
    over one pipe until told to stop (or the pipe closes)."""
    replicas: dict = {}   # token -> {columns, encodings caches}
    by_slot: dict = {}    # replica slot -> its current token
    builds: dict = {}     # broadcast-build token -> {columns, joins}
    build_by_slot: dict = {}  # build slot -> its current token
    host = _KernelHost()
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
                _, token, frame = message
                payload = decode_payload(
                    unframe_payload(frame, context="shard replica")
                )
                # A newer table version supersedes the old replica of
                # the same (table, shards, columns, shard) slot.
                slot = (token[0], token[1], token[3], token[4])
                old = by_slot.get(slot)
                if old is not None and old != token:
                    replicas.pop(old, None)
                by_slot[slot] = token
                replicas[token] = {
                    "columns": payload["columns"], "encodings": {},
                }
            elif kind == "build":
                _, slot, token, frame = message
                payload = decode_payload(
                    unframe_payload(frame, context="join build")
                )
                # A newer build (DML on a build-side table, or a new
                # snapshot) supersedes the old broadcast in this slot.
                old = build_by_slot.get(slot)
                if old is not None and old != token:
                    builds.pop(old, None)
                build_by_slot[slot] = token
                builds[token] = {
                    "columns": payload["columns"], "joins": {},
                }
            elif kind == "run":
                _, shard_id, token, task = message
                replica = replicas.get(token)
                if replica is None:
                    raise KeyError(
                        f"shard replica {token!r} was never shipped"
                    )
                busy_started = time.thread_time()
                table, nmorsels = _execute_task(task, replica, host, builds)
                busy = time.thread_time() - busy_started
                frame = frame_payload(dump_table(table))
                conn.send(
                    ("partial", shard_id, table.ngroups, nmorsels, busy,
                     frame, table.ladder)
                )
            else:
                raise ValueError(f"unknown shard request {kind!r}")
        except Exception:
            try:
                conn.send(("error", traceback.format_exc()))
            except (OSError, BrokenPipeError):  # coordinator went away
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover - teardown best effort
        pass
