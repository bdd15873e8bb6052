"""GROUP BY aggregation algorithms, generic over accumulator specs.

Implements the paper's operator zoo: HASHAGGREGATION,
PARTITIONANDAGGREGATE (Algorithm 4), SORTAGGREGATION, and
SHAREDAGGREGATION, all parameterised by the accumulator
(conventional float, DECIMAL(p), ``repro<ScalarT,L>``, or buffered
``repro``).
"""

from .accumulators import (
    AggregatorSpec,
    BufferedReproSpec,
    ConventionalFloatSpec,
    DecimalSpec,
    ReproSpec,
    spec_from_options,
)
from .api import group_sum
from .grouped import GroupedSummation
from .retractable import RetractableGroupedSummation
from .hash_agg import group_ids, hash_aggregate
from .hash_table import FIB_MULTIPLIER, HashTable, dense_group_ids
from .partition import (
    DEFAULT_FANOUT,
    parallel_partition,
    partition_ids,
    radix_partition,
    recursive_partition,
)
from .partition_agg import partition_and_aggregate
from .result import GroupByResult
from .shared_agg import shared_aggregate
from .sort_agg import sort_aggregate
from .streaming import StreamingGroupSum

__all__ = [
    "AggregatorSpec",
    "ConventionalFloatSpec",
    "DecimalSpec",
    "ReproSpec",
    "BufferedReproSpec",
    "spec_from_options",
    "group_sum",
    "GroupedSummation",
    "RetractableGroupedSummation",
    "hash_aggregate",
    "group_ids",
    "HashTable",
    "dense_group_ids",
    "FIB_MULTIPLIER",
    "partition_ids",
    "radix_partition",
    "recursive_partition",
    "parallel_partition",
    "DEFAULT_FANOUT",
    "partition_and_aggregate",
    "shared_aggregate",
    "sort_aggregate",
    "GroupByResult",
    "StreamingGroupSum",
]
