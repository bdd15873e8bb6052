"""HASHAGGREGATION (textbook operator, paper Section IV / [25]).

    "This algorithm looks up the aggregate of the corresponding group
    in a hash table using the key field of the input pair and adds the
    value field to that aggregate."

The operator is generic over the accumulator spec, so the same code
path runs the conventional-float baseline, DECIMAL, ``repro<T,L>``,
and buffered-``repro`` variants that Figure 4 compares.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.result import GroupByResult

from .accumulators import AggregatorSpec
from .hash_table import dense_group_ids

__all__ = ["hash_aggregate", "group_ids"]


def group_ids(
    keys: np.ndarray, engine: str = "numpy", hashing: str = "identity"
) -> tuple[np.ndarray, np.ndarray]:
    """Probe phase: map keys to dense group ids.

    ``engine="hash"`` uses the faithful open-addressing table (group
    ids in first-arrival order, exactly like the C++ operator);
    ``engine="numpy"`` uses ``np.unique`` (group ids in key order, much
    faster in Python).  The aggregate attached to each *key* is
    identical either way — group numbering is internal.
    """
    keys = np.asarray(keys)
    if engine == "hash":
        return dense_group_ids(keys, hashing=hashing)
    if engine == "numpy":
        uniq, inverse = np.unique(keys, return_inverse=True)
        return inverse.astype(np.int64), uniq
    raise ValueError(f"unknown group-id engine {engine!r}")


def hash_aggregate(
    keys: np.ndarray,
    values: np.ndarray,
    spec: AggregatorSpec,
    engine: str = "numpy",
    hashing: str = "identity",
    elementwise: bool = False,
) -> GroupByResult:
    """Aggregate ``values`` by ``keys`` through one hash table.

    ``elementwise=True`` runs the faithful one-pair-at-a-time reference
    (used by the tests to pin the vectorised path bit-for-bit).
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be equal-length 1-D arrays")
    gids, distinct = group_ids(keys, engine=engine, hashing=hashing)
    table = spec.make_table(len(distinct))
    if elementwise:
        spec.accumulate_elementwise(table, gids, values)
    else:
        spec.accumulate(table, gids, values)
    return GroupByResult(distinct, spec.finalize(table), spec.name)
