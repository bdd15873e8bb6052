"""Workload shapes for the figure and table benches.

The paper's standard input itself — :func:`repro.workloads.make_pairs`
over its named distributions — stays in the package, because the
end-to-end benchmark loads it; these are the sweeps the figure
benches build around it (permutations, chunks, per-thread shares),
plus the paper's Algorithm 1 values.
"""

from __future__ import annotations

import numpy as np

from repro.workloads import make_pairs

__all__ = [
    "algorithm1_values",
    "permuted",
    "chunked",
    "thread_chunks",
    "AggregationWorkload",
]


def algorithm1_values() -> np.ndarray:
    """The paper's Algorithm 1 inputs."""
    return np.array([2.5e-16, 0.999999999999999, 2.5e-16])


def permuted(keys: np.ndarray, values: np.ndarray, seed: int):
    """A random physical reordering of the same logical input."""
    order = np.random.default_rng(seed).permutation(len(keys))
    return keys[order], values[order]


def chunked(values: np.ndarray, chunk: int):
    """Split a value array into chunks of size ``chunk`` (Figure 6)."""
    return [values[i : i + chunk] for i in range(0, len(values), chunk)]


def thread_chunks(keys: np.ndarray, values: np.ndarray, threads: int):
    """Contiguous per-thread shares, like the parallel operators use."""
    bounds = np.linspace(0, len(keys), threads + 1).astype(np.int64)
    return [
        (keys[bounds[t] : bounds[t + 1]], values[bounds[t] : bounds[t + 1]])
        for t in range(threads)
    ]


class AggregationWorkload:
    """A named, reusable aggregation workload for benches and tests."""

    def __init__(self, n: int, ngroups: int, distribution: str = "Exp(1)",
                 dtype=np.float64, seed: int = 0):
        self.n = n
        self.ngroups = ngroups
        self.distribution = distribution
        self.dtype = np.dtype(dtype)
        self.seed = seed
        self.keys, self.values = make_pairs(n, ngroups, distribution, dtype, seed)

    def permutation(self, seed: int):
        return permuted(self.keys, self.values, seed)

    @property
    def realised_groups(self) -> int:
        return int(np.unique(self.keys).size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AggregationWorkload(n=2**{int(np.log2(self.n))}, "
            f"ngroups={self.ngroups}, {self.distribution})"
        )
