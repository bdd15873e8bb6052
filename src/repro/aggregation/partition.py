"""Radix partitioning (paper Section V-B, PARALLELPARTITION).

The input is split into ``F = fanout**depth`` partitions on the hash
value of the keys, so every record of a group lands in the same
partition and partitions can be aggregated independently.  The paper
uses the highly-tuned fan-out-256 radix partitioning of [9, 31, 33],
applied recursively ("we partition with F = f**d for f = 256 and
d = 0, 1, ...").

Two properties of the C++ routine matter for semantics and are kept:

* records *within* a partition preserve their arrival order (radix
  partitioning is stable) — this is what makes the conventional-float
  baseline deterministic for a fixed physical input order, yet
  different across reorderings;
* multi-threaded partitioning produces, per partition id, the logical
  concatenation of every thread's output in thread order (paper:
  "logically concatenating the corresponding output partitions
  produced by different threads").
"""

from __future__ import annotations

import numpy as np

from .hash_table import FIB_MULTIPLIER

__all__ = [
    "partition_ids",
    "radix_partition",
    "recursive_partition",
    "parallel_partition",
    "stable_group_order",
    "DEFAULT_FANOUT",
]

DEFAULT_FANOUT = 256


def partition_ids(
    keys: np.ndarray, fanout: int, level: int = 0, hashing: str = "identity"
) -> np.ndarray:
    """Partition id per record: one radix digit of the key hash.

    ``level`` selects the digit (level 0: lowest ``log2(fanout)`` bits,
    level 1 the next ones, ...), so recursive passes use independent
    bits, like an LSD radix partitioning.
    """
    if fanout & (fanout - 1) or fanout < 2:
        raise ValueError("fanout must be a power of two >= 2")
    bits = fanout.bit_length() - 1
    k = np.asarray(keys).astype(np.uint64, copy=False)
    if hashing == "multiplicative":
        with np.errstate(over="ignore"):
            k = k * FIB_MULTIPLIER
    elif hashing != "identity":
        raise ValueError(f"unknown hashing scheme {hashing!r}")
    shift = np.uint64(level * bits)
    return ((k >> shift) & np.uint64(fanout - 1)).astype(np.int64)


def radix_partition(
    keys: np.ndarray,
    values: np.ndarray,
    fanout: int = DEFAULT_FANOUT,
    level: int = 0,
    hashing: str = "identity",
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One stable partitioning pass; returns ``fanout`` (keys, values) pairs.

    Implemented as a counting sort on the partition id (stable), which
    is exactly what the out-of-place radix partitioning of [33] does.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    pids = partition_ids(keys, fanout, level, hashing)
    order = np.argsort(pids, kind="stable")
    sorted_pids = pids[order]
    sorted_keys = keys[order]
    sorted_values = values[order]
    counts = np.bincount(sorted_pids, minlength=fanout)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    return [
        (sorted_keys[bounds[p] : bounds[p + 1]], sorted_values[bounds[p] : bounds[p + 1]])
        for p in range(fanout)
    ]


def recursive_partition(
    keys: np.ndarray,
    values: np.ndarray,
    depth: int,
    fanout: int = DEFAULT_FANOUT,
    hashing: str = "identity",
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``depth`` recursive passes; returns ``fanout**depth`` partitions.

    ``depth = 0`` is the paper's no-op PARALLELPARTITION that forwards
    its input as a single partition.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if depth == 0:
        return [(np.asarray(keys), np.asarray(values))]
    parts = radix_partition(keys, values, fanout, level=0, hashing=hashing)
    for lvl in range(1, depth):
        nxt: list[tuple[np.ndarray, np.ndarray]] = []
        for pk, pv in parts:
            nxt.extend(radix_partition(pk, pv, fanout, level=lvl, hashing=hashing))
        parts = nxt
    return parts


def parallel_partition(
    keys: np.ndarray,
    values: np.ndarray,
    depth: int,
    fanout: int = DEFAULT_FANOUT,
    threads: int = 1,
    hashing: str = "identity",
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Multi-threaded partitioning semantics (deterministic simulation).

    The input is split into ``threads`` contiguous chunks (the paper
    permits "an arbitrary way"; contiguous chunks are the common
    choice); each chunk is partitioned independently and partition ``p``
    of the result is the concatenation of every chunk's partition ``p``
    in chunk order.
    """
    if threads < 1:
        raise ValueError("threads must be positive")
    keys = np.asarray(keys)
    values = np.asarray(values)
    if depth == 0:
        return [(keys, values)]
    if threads == 1:
        return recursive_partition(keys, values, depth, fanout, hashing)
    chunk_bounds = np.linspace(0, keys.size, threads + 1).astype(np.int64)
    per_thread = [
        recursive_partition(
            keys[chunk_bounds[t] : chunk_bounds[t + 1]],
            values[chunk_bounds[t] : chunk_bounds[t + 1]],
            depth,
            fanout,
            hashing,
        )
        for t in range(threads)
    ]
    nparts = fanout**depth
    merged: list[tuple[np.ndarray, np.ndarray]] = []
    for p in range(nparts):
        merged.append(
            (
                np.concatenate([per_thread[t][p][0] for t in range(threads)]),
                np.concatenate([per_thread[t][p][1] for t in range(threads)]),
            )
        )
    return merged


def stable_group_order(gids: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(gids, kind="stable")``, from one or
    two ``uint16`` radix passes.

    NumPy's stable sort is a radix sort for 16-bit keys and a merge
    sort for wider ones (about 7x slower on a 65 536-row morsel), and
    group ids are small non-negative integers — so sort by the low 16
    bits, then (ids at or past ``2**16`` only) stably by the next 16.
    Least-significant-digit radix passes compose to the one stable
    order, so the result equals the merge sort's element for element;
    negative ids and ids at or past ``2**32`` take the merge sort.
    """
    if gids.size == 0:
        return np.empty(0, dtype=np.intp)
    top = int(gids.max())
    if int(gids.min()) < 0 or top >= 1 << 32:
        return np.argsort(gids, kind="stable")
    if top < 1 << 16:
        return np.argsort(gids.astype(np.uint16), kind="stable")
    order = np.argsort((gids & 0xFFFF).astype(np.uint16), kind="stable")
    high = (gids >> 16).astype(np.uint16)
    return order[np.argsort(high[order], kind="stable")]
