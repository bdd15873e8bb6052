"""Sharded aggregation coordinator: ship shards, collect partials,
merge exactly, finalize once.

The coordinator side of the ``ShardedAggregate`` physical node.  For
one aggregate query at ``workers = N`` it:

1. names the table's rows at the query snapshot
   (:meth:`repro.engine.table.Table.content_version`: the table's own
   watermark, so a write to *another* table changes no name);
2. ships executor ``s`` — there is one process per shard — every
   ``N``-th visible row starting at row ``s``, unless it already holds
   the rows of that name, as a framed spill payload over its pipe; join
   build sides are broadcast under the same rule, named by the content
   of every table they read;
3. sends each executor the task (a picklable plan fragment: group
   expressions, aggregate calls, filter predicates, types);
4. collects the framed partial group tables **in arrival order** —
   whichever executor answers first is served first;
5. merges the partials **in shard order** and finalizes once
   (:func:`repro.engine.pipeline.finish_grouped`, the one epilogue).

Which rows an executor receives is invisible in the bits — partial
states merge exactly — so the split is the cheapest balanced one: a
strided view, dealt by position (and balanced under clustered filters
such as a date range, which contiguous ranges would not be).  Step 5
makes arrival order structurally invisible too; the seeded-permutation
tests force adversarial arrival schedules through a service-order hook
(:data:`_service_order`) and assert byte-identical finalizes.
"""

from __future__ import annotations

import time
from functools import partial
from multiprocessing.connection import wait as _connection_wait

from ..aggregation.grouped import LadderCounters
from ..engine.operators import SumConfig
from ..engine.physical import PhysProbe
from ..engine.pipeline import finish_grouped
from ..errors import ReproError, error_from_wire
from ..storage.spill import encode_payload, frame_payload, unframe_payload

__all__ = ["ShardExchangeError", "run_sharded_grouped_pipeline"]


class ShardExchangeError(ReproError):
    """A shard executor failed or the exchange wire was damaged."""


#: Test hook: reorder the list of ready worker connections before
#: replies are drained (seeded arrival-permutation tests).  ``None``
#: serves natural arrival order.
_service_order = None


def _build_task(aggregate, scan, chain_ops, joins, context):
    # SELECT DISTINCT aggregates nothing: any SUM config serves it
    sum_config = (aggregate.specs[0].sum_config if aggregate.specs
                  else SumConfig())
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
        # themselves travel separately, broadcast under each
        # descriptor's token.
        "joins": tuple(joins),
        "morsel_size": int(context.morsel_size),
    }


def _frame_columns(columns: dict) -> bytes:
    return frame_payload(encode_payload({"version": 1, "columns": columns}))


def _lacking(pool, slot, token) -> list[int]:
    """The executors that do not hold ``token`` in ``slot``."""
    return [
        worker_id for worker_id in range(pool.nworkers)
        if pool.shipped.get((worker_id, slot)) != token
    ]


def _send(pool, stats, worker_id, slot, token, message) -> None:
    """Ship one framed copy (the message's last field) to an executor."""
    pool.conn(worker_id).send(message)
    pool.shipped[worker_id, slot] = token
    stats.exchange_bytes += len(message[-1])


def _plan_chain(query, context, stats, snapshot, pool, once):
    """Lower the query's operator chain for shipping: ``(chain_ops,
    join_descs)``.  Each probe's build side is named by its
    :func:`~repro.engine.executor.build_signature`; one an executor
    lacks is materialized here on the coordinator (it has the catalog)
    and broadcast as a framed column payload."""
    from ..engine.executor import _materialize_build, build_signature

    chain_ops: list = []
    join_descs: list = []
    for op in query.pipeline.ops:
        if isinstance(op, PhysProbe):
            structure, content = build_signature(op.build, snapshot)
            slot = ("join_build", structure)
            token = (*slot, content, *once)

            lacking = _lacking(pool, slot, token)
            if lacking:
                batch = _materialize_build(op, context, stats, snapshot)
                message = ("load", slot, token, dict(batch.types),
                           _frame_columns(dict(batch.columns)))
                for worker_id in lacking:
                    _send(pool, stats, worker_id, slot, token, message)
            join_descs.append({
                "token": token,
                "build_keys": tuple(op.build_keys),
                "probe_keys": tuple(op.probe_keys),
                "kind": op.kind,
                "probe_is_left": bool(op.probe_is_left),
                "group_keys": op.group_keys,
            })
            chain_ops.append(("probe", len(join_descs) - 1))
        else:
            chain_ops.append(("filter", op.predicate))
    return chain_ops, join_descs


def run_sharded_grouped_pipeline(query, context, stats, snapshot=None):
    """Drive one sharded aggregate to ``(key_arrays, results,
    ngroups)`` — the same contract as the in-process grouped driver."""
    aggregate = query.aggregate
    scan = query.pipeline.source
    table = scan.table
    pool = context.shard_pool()
    nshards = pool.nworkers
    stats.start(nshards)
    stats.sharded = True

    # COUNT(*)-only plans still need row counts per shard.
    source_columns = table.projection(list(scan.column_map.values()))
    # Only a pinned read names content exactly — live rows can change
    # between the name and the scan — so what an unpinned one ships gets
    # a name nothing will ask for again (sessions always pin).
    once = () if snapshot is not None else (next(pool.unpinned_reads),)

    try:
        with pool.lock:
            ship_started = time.perf_counter()
            chain_ops, join_descs = _plan_chain(
                query, context, stats, snapshot, pool, once
            )
            task = _build_task(
                aggregate, scan, chain_ops, join_descs, context
            )
            # Shard s is every nshards-th visible row from row s on:
            # executor s keeps it until the table's content moves on.
            slot = (table.name, nshards, tuple(sorted(source_columns)))
            token = (*slot, table.content_version(snapshot), *once)
            lacking = _lacking(pool, slot, token)
            if lacking:
                columns, _, copied = table.read(source_columns,
                                                snapshot=snapshot)
                stats.scan_rows_copied += copied
                for shard in lacking:
                    replica = {
                        name: arr[shard::nshards]
                        for name, arr in columns.items()
                    }
                    _send(pool, stats, shard, slot, token,
                          ("load", slot, token, None,
                           _frame_columns(replica)))
            for shard in range(nshards):
                pool.conn(shard).send(("run", token, task))
            ship_seconds = time.perf_counter() - ship_started

            # Collect replies in arrival order (permutable in tests).
            frames: list = [None] * nshards
            ladders: list = [None] * nshards  # per executor LadderCounters
            pending = {pool.conn(shard): shard for shard in range(nshards)}
            while pending:
                ready = _connection_wait(list(pending))
                if _service_order is not None:
                    ready = _service_order(list(ready))
                for conn in ready:
                    shard = pending.pop(conn)
                    message = conn.recv()
                    if message[0] == "error":
                        _, trace, wire = message
                        if wire is not None:
                            raise error_from_wire(wire)
                        raise ShardExchangeError(
                            f"shard executor {shard} failed:\n{trace}"
                        )
                    _, nmorsels, busy, frames[shard], ladders[shard] = message
                    stats.worker_busy[shard] += busy
                    stats.worker_morsels[shard] += nmorsels
                    stats.morsel_count += nmorsels
                    stats.exchange_bytes += len(frames[shard])
    except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
        # A dead executor poisons the pool: discard it so the next
        # query starts a fresh fleet instead of hanging on a dead pipe.
        context.discard_shard_pool()
        raise ShardExchangeError(
            f"shard executor pipe failed: {exc!r}"
        ) from exc
    except ReproError:
        # an executor's failure (typed, or a ShardExchangeError) leaves
        # the other executors' replies undrained: a fresh fleet serves
        # the next query
        context.discard_shard_pool()
        raise

    # Merge in shard order — arrival order cannot matter, by
    # construction; exact state merge makes even this order choice
    # invisible in repro mode.
    ladder = LadderCounters()  # counted where the rows were fed
    for counters in ladders:
        ladder.merge(counters)
    partials = [
        partial(unframe_payload, frame, context=f"shard {shard} partial")
        for shard, frame in enumerate(frames)
    ]
    stats.add_seconds("shard_exchange", ship_seconds)
    return finish_grouped(
        [(0, partials)], aggregate.group_exprs, aggregate.specs, ladder,
        stats, sum(stats.worker_busy),
    )
