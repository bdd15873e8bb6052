"""Core reproducible-summation algorithms (the paper's contribution).

Public surface:

* :func:`reproducible_sum` — one-shot bit-reproducible sum.
* :class:`ReproducibleSummer` — streaming/mergeable summation.
* :class:`ReproFloat` — the ``repro<ScalarT,L>`` drop-in accumulator.
* :class:`BufferedReproFloat` — the same, fronted by a summation buffer.
* :class:`SummationState` — raw state, for engine integrations.
* Reproducible dot product / mean / variance (:mod:`.stats`).
* Tuning helpers: :func:`optimal_buffer_size`,
  :func:`choose_partition_depth` (Equation 4 and Figure 9 rules).

The paper's demonstrations that no query runs — the toy-format RSUM of
Figure 2, the V-lane Algorithm 3, the reduction-topology simulation —
live with the figure benches under ``benchmarks/paper``.
"""

from .buffer import DEFAULT_BUFFER_SIZE, BufferedReproFloat
from .eft import exact_sum_fraction, extract, extract_array, fast_two_sum, two_sum
from .params import DEFAULT_LEVELS, DEFAULT_W, RsumParams, default_w, max_block_size
from .repro_type import ReproFloat, repro_spec_name
from .rsum import (
    ReproducibleSummer,
    ScalarRsumPaper,
    params_from_spec,
    reproducible_sum,
)
from .stats import (
    reproducible_dot,
    reproducible_mean,
    reproducible_std,
    reproducible_variance,
    two_product,
    two_product_array,
)
from .state import LadderOverflowError, SummationState
from .tuning import (
    DEPTH_THRESHOLD_GROUPS,
    HASWELL_CACHE,
    PARTITION_FANOUT,
    CacheConfig,
    choose_partition_depth,
    optimal_buffer_size,
    working_set_bytes,
)

__all__ = [
    "reproducible_sum",
    "reproducible_dot",
    "reproducible_mean",
    "reproducible_variance",
    "reproducible_std",
    "two_product",
    "two_product_array",
    "ReproducibleSummer",
    "ScalarRsumPaper",
    "params_from_spec",
    "ReproFloat",
    "repro_spec_name",
    "BufferedReproFloat",
    "DEFAULT_BUFFER_SIZE",
    "SummationState",
    "LadderOverflowError",
    "RsumParams",
    "DEFAULT_LEVELS",
    "DEFAULT_W",
    "default_w",
    "max_block_size",
    "two_sum",
    "fast_two_sum",
    "extract",
    "extract_array",
    "exact_sum_fraction",
    "CacheConfig",
    "HASWELL_CACHE",
    "optimal_buffer_size",
    "choose_partition_depth",
    "working_set_bytes",
    "PARTITION_FANOUT",
    "DEPTH_THRESHOLD_GROUPS",
]
