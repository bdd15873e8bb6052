"""The paper's GROUP BY operators (Section IV) and their tuned form (V).

Every operator is generic over an accumulator spec — conventional
float, DECIMAL(p), ``repro<ScalarT,L>`` or buffered ``repro`` — so one
code path runs every column of Figures 4, 7 and 9-11:

* ``hash_agg``      HASHAGGREGATION over ``hash_table``'s
  open-addressing table;
* ``partition_agg`` PARTITIONANDAGGREGATE (Algorithm 4) over the radix
  partitioners of ``partition``;
* ``sort_agg``      SORTAGGREGATION, the total-order baseline;
* ``shared_agg``    SHAREDAGGREGATION under a seeded, simulated thread
  schedule.

No query runs them: the engine's SUM is the tuned operator
(:mod:`repro.engine.aggregates`), and :func:`repro.group_sum` calls
that.  With a reproducible spec every operator returns the bits
``repro.group_sum`` returns (``tests/paper/test_operators.py``).
"""

from .accumulators import (
    AggregatorSpec,
    BufferedReproSpec,
    ConventionalFloatSpec,
    DecimalSpec,
    ReproSpec,
)
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
from .shared_agg import shared_aggregate
from .sort_agg import sort_aggregate

__all__ = [
    "AggregatorSpec",
    "ConventionalFloatSpec",
    "DecimalSpec",
    "ReproSpec",
    "BufferedReproSpec",
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
]
