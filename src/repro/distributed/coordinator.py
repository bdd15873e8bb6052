"""Sharded aggregation coordinator: ship shards, collect partials,
merge exactly, finalize once.

The coordinator side of the ``ShardedAggregate`` physical node.  For
one aggregate query it:

1. resolves the table's shard layout at the query snapshot (cached per
   table version — INSERTs re-shard by versioning, not by mutation);
2. ships any shard replicas the executor processes do not already hold,
   as framed spill payloads over the worker pipes;
3. sends each shard's task (a picklable plan fragment: group
   expressions, aggregate calls, filter predicates, types) to its
   worker — placement is ``shard % nworkers``, overridable in tests;
4. collects the framed partial group tables **in arrival order** —
   whichever executor answers first is served first;
5. merges the partials **in shard-id order** and finalizes once
   (:func:`repro.engine.pipeline.finish_grouped`, the one epilogue).

Step 5 makes arrival order structurally invisible, and the paper's
exact-merge property makes even the merge *order* irrelevant for the
repro modes — the belt under the suspenders.  The seeded-permutation
tests force adversarial arrival schedules through a service-order hook
(:data:`_service_order`) and assert byte-identical finalizes.
"""

from __future__ import annotations

import time
from functools import partial
from multiprocessing.connection import wait as _connection_wait

from ..aggregation.grouped import LadderCounters
from ..engine.physical import PhysProbe
from ..engine.pipeline import PipelineStats, finish_grouped
from ..errors import ReproError
from ..storage.spill import encode_payload, frame_payload, unframe_payload

__all__ = ["ShardExchangeError", "run_sharded_grouped_pipeline"]


class ShardExchangeError(ReproError):
    """A shard executor failed or the exchange wire was damaged."""


#: Test hook: reorder the list of ready worker connections before
#: replies are drained (seeded arrival-permutation tests).  ``None``
#: serves natural arrival order.
_service_order = None


def _placement(shard: int, nworkers: int) -> int:
    """shard -> worker process (overridable in tests: placement must be
    invisible in result bits)."""
    return shard % nworkers


def _build_task(aggregate, scan, chain_ops, joins, context):
    sum_config = aggregate.specs[0].sum_config
    return {
        "group_exprs": tuple(aggregate.group_exprs),
        "agg_calls": tuple(spec.call for spec in aggregate.specs),
        "sum_mode": sum_config.mode,
        "sum_levels": sum_config.levels,
        "types": dict(scan.types),
        "column_map": dict(scan.column_map),
        "encode_keys": tuple(scan.encode_keys),
        # Operator chain in order: ("filter", predicate AST) per
        # filter, ("probe", join index) per hash-join probe — the
        # worker walks the chain from this.
        "chain_ops": tuple(chain_ops),
        # Per-probe join descriptors (chain order); the build batches
        # themselves travel separately as broadcast "build" messages
        # keyed by each descriptor's token.
        "joins": tuple(joins),
        "morsel_size": int(context.morsel_size),
    }


def _plan_chain(query, context, timings, snapshot):
    """Lower the query's operator chain for shipping: ``(chain_ops,
    join_descs, build_frames)``.  Each probe's build side is
    materialized here on the coordinator (it has the catalog) and
    broadcast to the executors as a framed column payload."""
    from ..engine.executor import _materialize_build, build_signature

    chain_ops: list = []
    join_descs: list = []
    build_frames: list = []  # (slot signature, token, frame) per probe
    for op in query.pipeline.ops:
        if isinstance(op, PhysProbe):
            structure, content = build_signature(op.build)
            token = ("join_build", structure, content, snapshot)
            batch = _materialize_build(op, context, timings, snapshot)
            frame = frame_payload(
                encode_payload(
                    {"version": 1, "columns": dict(batch.columns)}
                )
            )
            join_descs.append({
                "token": token,
                "build_keys": tuple(op.build_keys),
                "probe_keys": tuple(op.probe_keys),
                "kind": op.kind,
                "probe_is_left": bool(op.probe_is_left),
                "group_keys": op.group_keys,
                "build_side": op.build_side,
                "rows": int(batch.nrows),
                "types": dict(batch.types),
            })
            build_frames.append((("join_build", structure), token, frame))
            chain_ops.append(("probe", len(join_descs) - 1))
        else:
            chain_ops.append(("filter", op.predicate))
    return chain_ops, join_descs, build_frames


def run_sharded_grouped_pipeline(query, context, timings=None,
                                 snapshot=None):
    """Drive one sharded aggregate to ``(key_arrays, results,
    ngroups)`` — the same contract as the thread pipeline drivers."""
    aggregate = query.aggregate
    scan = query.pipeline.source
    table = scan.table
    nshards = aggregate.shards
    nworkers = max(1, min(aggregate.shard_workers or nshards, nshards))
    stats = PipelineStats(nworkers)
    stats.sharded = True
    stats.shards = nshards
    chain_ops, join_descs, build_frames = _plan_chain(
        query, context, timings, snapshot
    )
    task = _build_task(aggregate, scan, chain_ops, join_descs, context)

    source_columns = list(scan.column_map.values())
    if not source_columns and table.schema.names():
        # COUNT(*)-only plans still need row counts per shard.
        source_columns = [table.schema.names()[0]]
    cols_sig = tuple(sorted(source_columns))

    pool = context.shard_pool(nworkers)

    try:
        with pool.lock:
            ship_started = time.perf_counter()
            version_key, _, _ = table.shard_layout(nshards, snapshot)
            assignment: dict[int, list[int]] = {}
            for shard in range(nshards):
                assignment.setdefault(
                    _placement(shard, nworkers) % nworkers, []
                ).append(shard)
            expected = 0
            for worker_id, shards_for in sorted(assignment.items()):
                conn = pool.conn(worker_id)
                # Broadcast join build sides this worker does not
                # already hold (cached per slot like shard replicas;
                # build-table DML changes the token through the
                # signature's table versions, superseding the stale build).
                for slot_sig, token, frame in build_frames:
                    slot = (worker_id, slot_sig)
                    if pool.shipped.get(slot) != token:
                        conn.send(("build", slot_sig, token, frame))
                        pool.shipped[slot] = token
                        stats.exchange_bytes += len(frame)
                for shard in shards_for:
                    token = (
                        table.name, nshards, version_key, cols_sig, shard,
                    )
                    slot = (worker_id, (token[0], token[1], token[3], shard))
                    if pool.shipped.get(slot) != token:
                        columns = table.shard_scan(
                            nshards, shard, source_columns, snapshot
                        )
                        frame = frame_payload(
                            encode_payload(
                                {"version": 1, "columns": columns}
                            )
                        )
                        conn.send(("load", token, frame))
                        pool.shipped[slot] = token
                        stats.exchange_bytes += len(frame)
                    conn.send(("run", shard, token, task))
                    expected += 1
            ship_seconds = time.perf_counter() - ship_started

            # Collect replies in arrival order (permutable in tests).
            frames: dict[int, bytes] = {}
            ladders: dict = {}  # shard id -> the executor's LadderCounters
            conn_to_worker = {
                pool.conn(worker_id): worker_id for worker_id in assignment
            }
            remaining = {
                worker_id: len(shards_for)
                for worker_id, shards_for in assignment.items()
            }
            while expected:
                pending = [
                    conn for conn, worker_id in conn_to_worker.items()
                    if remaining[worker_id] > 0
                ]
                ready = _connection_wait(pending)
                if _service_order is not None:
                    ready = _service_order(list(ready))
                for conn in ready:
                    worker_id = conn_to_worker[conn]
                    message = conn.recv()
                    if message[0] == "error":
                        raise ShardExchangeError(
                            f"shard executor {worker_id} failed:\n"
                            f"{message[1]}"
                        )
                    (_, shard_id, _ngroups, nmorsels, busy, frame,
                     ladder) = message
                    frames[shard_id] = frame
                    ladders[shard_id] = ladder
                    stats.worker_busy[worker_id] += busy
                    stats.worker_morsels[worker_id] += nmorsels
                    stats.morsel_count += nmorsels
                    stats.exchange_bytes += len(frame)
                    remaining[worker_id] -= 1
                    expected -= 1
    except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
        # A dead executor poisons the pool: discard it so the next
        # query starts a fresh fleet instead of hanging on a dead pipe.
        context.discard_shard_pool()
        raise ShardExchangeError(
            f"shard executor pipe failed: {exc!r}"
        ) from exc
    except ShardExchangeError:
        context.discard_shard_pool()
        raise

    # Merge in shard-id order — arrival order cannot matter, by
    # construction; exact state merge makes even this order choice
    # invisible in the repro modes.
    ladder = LadderCounters()  # counted where the rows were fed
    partials = []
    for shard in sorted(frames):
        ladder.merge(ladders[shard])
        partials.append(partial(
            unframe_payload, frames[shard], context=f"shard {shard} partial"
        ))
    if timings is not None:
        timings.add("shard_exchange", ship_seconds)
    return finish_grouped(
        [(0, partials)], aggregate.group_exprs, aggregate.specs, ladder,
        context, stats, timings, sum(stats.worker_busy),
    )
