"""The reproducible GROUP BY state the engine runs, and one library call.

* ``grouped`` — :class:`GroupedSummation` (one rsum ladder per group,
  exact merge) and ``add_blocked_multi``, the ladder update every
  reproducible SUM goes through;
* ``retractable`` — its full-grid twin for incremental view maintenance;
* ``external_agg`` — the spilling aggregation a memory budget selects;
* ``api`` — :func:`group_sum`, SQL's SUM path over two arrays, returning
  a :class:`GroupByResult`.

The paper's Section IV operators (hash / partition / sort / shared
aggregation over pluggable accumulator specs) live beside the figure
benches that measure them, in ``benchmarks/paper/operators``.
"""

from .api import group_sum
from .grouped import GroupedSummation
from .result import GroupByResult
from .retractable import RetractableGroupedSummation

__all__ = [
    "GroupByResult",
    "GroupedSummation",
    "RetractableGroupedSummation",
    "group_sum",
]

_MOVED = frozenset({
    "AggregatorSpec", "ConventionalFloatSpec", "DecimalSpec", "ReproSpec",
    "BufferedReproSpec", "hash_aggregate", "group_ids", "HashTable",
    "dense_group_ids", "FIB_MULTIPLIER", "partition_ids", "radix_partition",
    "recursive_partition", "parallel_partition", "DEFAULT_FANOUT",
    "partition_and_aggregate", "shared_aggregate", "sort_aggregate",
})
_RETIRED = {
    "StreamingGroupSum": "repro.group_sum over the concatenated batches "
    "returns the same bits; to aggregate incrementally, INSERT the "
    "batches and run SELECT k, SUM(v) ... GROUP BY k (repro.open())",
    "spec_from_options": "repro.group_sum takes reproducible, dtype and "
    "levels itself; the specs are in paper.operators",
}


def __getattr__(name):
    # ImportError, not AttributeError: ``from repro.aggregation import X``
    # would replace an AttributeError's message with its own.
    if name in _RETIRED:
        raise ImportError(f"repro.aggregation.{name} is retired: "
                          f"{_RETIRED[name]}", name=name)
    if name in _MOVED:
        raise ImportError(
            f"repro.aggregation.{name} moved out of the package with the "
            "paper's operators: import it from paper.operators "
            "(benchmarks/paper/operators in a checkout)", name=name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
