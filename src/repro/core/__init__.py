"""Core reproducible-summation API (the paper's contribution).

Public surface:

* :func:`reproducible_sum` — one-shot bit-reproducible sum.
* :class:`ReproducibleSummer` — streaming/mergeable summation.
* Reproducible dot product / mean / variance (:mod:`.stats`).
* :class:`RsumParams` — the ``(format, L, W)`` of one ladder.

Both sums run SQL's SUM path, one ``GroupedSummation`` group fed by
``add_blocked_multi``.  The paper's scalar Algorithm 2 state and the
accumulator types and tuning rules built on it — ``SummationState``,
``repro<ScalarT,L>`` (``ReproFloat``), summation buffers, Equation 4 /
Figure 9 — live with the figure benches under ``benchmarks/paper``
(imported as ``paper``), as do the toy-format RSUM of Figure 2, the
V-lane Algorithm 3 and the reduction-topology simulation.
"""

from .params import DEFAULT_LEVELS, DEFAULT_W, RsumParams, default_w, max_block_size
from .rsum import ReproducibleSummer, params_from_spec, repro_spec_name, reproducible_sum
from .stats import (
    reproducible_dot,
    reproducible_mean,
    reproducible_std,
    reproducible_variance,
    two_product,
    two_product_array,
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
    "params_from_spec",
    "repro_spec_name",
    "RsumParams",
    "DEFAULT_LEVELS",
    "DEFAULT_W",
    "default_w",
    "max_block_size",
]

#: Names that left the package with the scalar Algorithm 2 state ->
#: the module that holds them now (``paper``: ``benchmarks/paper``).
_MOVED = {
    "LadderOverflowError": "repro.errors",
    **dict.fromkeys(("state", "SummationState"), "paper.state"),
    **dict.fromkeys(("repro_type", "ReproFloat"), "paper.repro_type"),
    **dict.fromkeys(("buffer", "BufferedReproFloat", "DEFAULT_BUFFER_SIZE"),
                    "paper.buffer"),
    **dict.fromkeys(("tuning", "CacheConfig", "HASWELL_CACHE",
                     "optimal_buffer_size", "choose_partition_depth",
                     "working_set_bytes", "PARTITION_FANOUT",
                     "DEPTH_THRESHOLD_GROUPS"), "paper.tuning"),
    **dict.fromkeys(("eft", "two_sum", "fast_two_sum", "extract",
                     "extract_array", "split_against_anchor",
                     "exact_sum_fraction"), "paper.eft"),
}


def moved_error(owner: str, name: str) -> ImportError:
    """The error a retired name raises: it names where the name went."""
    where = _MOVED[name]
    if where.startswith("paper."):
        where += (" (benchmarks/paper in a checkout; reproducible_sum and "
                  "ReproducibleSummer run SQL's SUM path)")
    return ImportError(f"{owner}.{name} moved: import it from {where}",
                       name=name)


def __getattr__(name):
    # ImportError, not AttributeError: ``from repro.core import X``
    # would replace an AttributeError's message with its own.
    if name in _MOVED:
        raise moved_error(__name__, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
