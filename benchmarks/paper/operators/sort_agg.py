"""SORTAGGREGATION (paper Sections II-C and VI-A).

The only way to make conventional floating-point aggregation
reproducible without new number formats is to impose a *total* order
on the operations: sort the input, then reduce each run sequentially.
The paper measures this baseline at over 60 ns per element — 3-20x
slower than PARTITIONANDAGGREGATE — which is the motivation for the
numeric approach (Table IV's "double (sorted)" column).

Note the subtlety: sorting by key alone is not enough, because a stable
key sort preserves the (physical) arrival order of equal keys.  The
values themselves must join the sort key; we order by value bit
patterns, which is total even for NaNs and signed zeros.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.result import GroupByResult

from .accumulators import AggregatorSpec, ConventionalFloatSpec

__all__ = ["sort_aggregate"]


def _value_order_bits(values: np.ndarray) -> np.ndarray:
    """A total order on float values via their bit patterns."""
    if values.dtype == np.float32:
        return values.view(np.uint32)
    if values.dtype == np.float64:
        return values.view(np.uint64)
    return values  # integers order naturally


def sort_aggregate(
    keys: np.ndarray,
    values: np.ndarray,
    spec: AggregatorSpec | None = None,
    total_order: bool = True,
) -> GroupByResult:
    """Sort-based GROUP BY SUM.

    ``total_order=True`` (default) sorts by (key, value-bits) and is
    reproducible for *any* accumulator, including conventional floats.
    ``total_order=False`` sorts by key only (stable), reproducing the
    behaviour of engines that sort on the grouping column alone: still
    order-dependent for floats.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape or keys.ndim != 1:
        raise ValueError("keys and values must be equal-length 1-D arrays")
    if spec is None:
        spec = ConventionalFloatSpec(
            values.dtype if values.dtype in (np.float32, np.float64) else np.float64
        )
    if total_order:
        order = np.lexsort((_value_order_bits(values), keys))
    else:
        order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_values = values[order]
    if sorted_keys.size == 0:
        return GroupByResult(sorted_keys, np.asarray([]), spec.name)
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    distinct = sorted_keys[boundaries]
    run_ids = np.cumsum(
        np.concatenate(([0], (sorted_keys[1:] != sorted_keys[:-1]).astype(np.int64)))
    )
    table = spec.make_table(len(distinct))
    spec.accumulate(table, run_ids, sorted_values)
    return GroupByResult(distinct, spec.finalize(table), spec.name)
