"""PARTITIONANDAGGREGATE (paper Algorithm 4).

    1: partitions <- PARALLELPARTITION(input, key, F = f**d)
    2: for each p in partitions with index i parallel do
    3:     privateTables[i] <- HASHAGGREGATION(p)
    4: for each t in privateTables parallel do
    5:     for each (key, value) in t do
    6:         sharedTable[key] += value

Threads are simulated deterministically: the input (or the partition
list) is divided among ``threads`` workers, each worker aggregates into
private tables, and the private tables are transferred into the shared
table in worker order.  For the reproducible specs the transfer uses
the exact state merge (``operator+=(repro<ScalarT,L>)``), so the final
bits are independent of the thread count, partition depth, fan-out and
buffer size — properties the test suite asserts.  For the conventional
float spec the transfer adds finalised floats, which is exactly the
(order-sensitive) behaviour of a real engine.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.result import GroupByResult

from ..tuning import choose_partition_depth
from .accumulators import AggregatorSpec
from .hash_agg import group_ids
from .partition import DEFAULT_FANOUT, parallel_partition

__all__ = ["partition_and_aggregate"]


def partition_and_aggregate(
    keys: np.ndarray,
    values: np.ndarray,
    spec: AggregatorSpec,
    depth: int | None = None,
    fanout: int = DEFAULT_FANOUT,
    threads: int = 1,
    hashing: str = "identity",
    engine: str = "numpy",
    elementwise: bool = False,
) -> GroupByResult:
    """Algorithm 4 over any accumulator spec.

    ``depth=None`` applies the offline tuning rule of Section V-C
    (Figure 9 thresholds) to the actual number of groups.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be equal-length 1-D arrays")
    if threads < 1:
        raise ValueError("threads must be positive")
    if depth is None:
        ngroups = np.unique(keys).size if keys.size else 0
        depth = choose_partition_depth(max(1, ngroups), fanout)

    # Line 1: partition (a no-op forwarding the input when F = 1).
    partitions = parallel_partition(
        keys, values, depth, fanout, threads=threads, hashing=hashing
    )

    # Lines 2-3: private HASHAGGREGATION per work unit.  With d = 0 the
    # single partition is instead split among the threads (each thread
    # aggregates its share of the input into a private table).
    private: list[tuple[np.ndarray, object]] = []
    if depth == 0 and threads > 1:
        k, v = partitions[0]
        bounds = np.linspace(0, k.size, threads + 1).astype(np.int64)
        work = [
            (k[bounds[t] : bounds[t + 1]], v[bounds[t] : bounds[t + 1]])
            for t in range(threads)
        ]
    else:
        work = [p for p in partitions if p[0].size]
    for part_keys, part_values in work:
        if part_keys.size == 0:
            continue
        gids, distinct = group_ids(part_keys, engine=engine, hashing=hashing)
        table = spec.make_table(len(distinct))
        if elementwise:
            spec.accumulate_elementwise(table, gids, part_values)
        else:
            spec.accumulate(table, gids, part_values)
        private.append((distinct, table))

    # Lines 4-6: transfer into the shared table in worker order.
    shared_gid: dict[int, int] = {}
    for distinct, _ in private:
        for key in distinct.tolist():
            if key not in shared_gid:
                shared_gid[key] = len(shared_gid)
    shared_keys = np.asarray(list(shared_gid.keys()), dtype=keys.dtype)
    shared_table = spec.make_table(len(shared_gid))
    for distinct, table in private:
        mapping = np.asarray(
            [shared_gid[key] for key in distinct.tolist()], dtype=np.int64
        )
        spec.merge(shared_table, table, mapping)
    return GroupByResult(shared_keys, spec.finalize(shared_table), spec.name)
