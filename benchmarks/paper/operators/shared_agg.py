"""SHAREDAGGREGATION (Cieslewicz & Ross, paper Section VII).

All threads aggregate into one shared (lock-free) hash table.  The
interleaving of threads is decided by the OS scheduler, which is the
canonical source of run-to-run non-determinism: with conventional
floats, two runs of the *same* query on the *same* data can return
different bits.

This module simulates that interleaving deterministically-per-seed:
the input is divided into per-thread chunks, each chunk is cut into
small batches (a thread's quantum between context switches), and a
seeded RNG picks which thread's next batch runs, preserving each
thread's internal order.  Different seeds model different schedules.
The reproducibility claim is then directly testable:

* conventional floats — results vary across seeds;
* ``repro<ScalarT,L>`` — bit-identical for every seed.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.result import GroupByResult

from .accumulators import AggregatorSpec
from .hash_agg import group_ids

__all__ = ["shared_aggregate"]


def shared_aggregate(
    keys: np.ndarray,
    values: np.ndarray,
    spec: AggregatorSpec,
    threads: int = 4,
    seed: int | None = 0,
    batch_size: int = 64,
    engine: str = "numpy",
) -> GroupByResult:
    """Aggregate through one shared table under a simulated schedule.

    ``seed`` selects the thread interleaving (None: round-robin).
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be equal-length 1-D arrays")
    if threads < 1:
        raise ValueError("threads must be positive")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")

    gids, distinct = group_ids(keys, engine=engine)
    table = spec.make_table(len(distinct))

    # Per-thread queues of (start, end) batches, consumed in order.
    chunk_bounds = np.linspace(0, keys.size, threads + 1).astype(np.int64)
    queues: list[list[tuple[int, int]]] = []
    for t in range(threads):
        lo, hi = int(chunk_bounds[t]), int(chunk_bounds[t + 1])
        queues.append(
            [(s, min(s + batch_size, hi)) for s in range(lo, hi, batch_size)]
        )

    # Schedule: an interleaving of thread ids respecting queue lengths.
    lengths = [len(q) for q in queues]
    schedule = np.repeat(np.arange(threads), lengths)
    if seed is not None:
        rng = np.random.default_rng(seed)
        schedule = rng.permutation(schedule)

    cursors = [0] * threads
    for t in schedule:
        start, end = queues[t][cursors[t]]
        cursors[t] += 1
        spec.accumulate(table, gids[start:end], values[start:end])
    return GroupByResult(distinct, spec.finalize(table), spec.name)
