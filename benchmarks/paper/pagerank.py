"""The introduction's PageRank experiment.

    "We ran PageRank on different permutations of a small web graph
    with 900k pages.  We observed that, from one run to the next, the
    ranks of about 10-20 pages would be different enough to swap ranks
    with another page."

The Google web graph is not available offline, so we generate a
synthetic scale-free graph (preferential attachment — the standard
web-graph model) and run the same experiment: PageRank's inner loop is
a GROUP BY SUM (sum incoming rank contributions per target page), so
its result depends on edge order under conventional floats.  We count
how many pages swap rank positions between edge permutations, and show
the count drops to zero with reproducible summation.

The reduction is implemented over this package's own aggregation
kernels, making PageRank a realistic downstream application of the
library (the paper's REDUCEBYKEY point).
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.grouped import GroupedSummation
from repro.core.params import RsumParams
from repro.fp.formats import BINARY64

__all__ = [
    "synthetic_web_graph",
    "pagerank",
    "rank_swaps",
    "pagerank_experiment",
]


def synthetic_web_graph(npages: int, out_degree: int = 8, seed: int = 0):
    """Preferential-attachment edge list ``(src, dst)`` (scale-free)."""
    rng = np.random.default_rng(seed)
    sources = []
    targets = []
    # Seed clique.
    seed_pages = min(out_degree + 1, npages)
    for i in range(seed_pages):
        for j in range(seed_pages):
            if i != j:
                sources.append(i)
                targets.append(j)
    degree = np.ones(npages, dtype=np.float64)
    degree[:seed_pages] = seed_pages
    for page in range(seed_pages, npages):
        probs = degree[:page] / degree[:page].sum()
        links = rng.choice(page, size=min(out_degree, page), replace=False, p=probs)
        for link in links:
            sources.append(page)
            targets.append(int(link))
            degree[link] += 1
        degree[page] += out_degree
    return np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)


def pagerank(
    src: np.ndarray,
    dst: np.ndarray,
    npages: int,
    iterations: int = 20,
    damping: float = 0.85,
    reproducible: bool = False,
    levels: int = 2,
) -> np.ndarray:
    """Power-iteration PageRank whose reduction is a GROUP BY SUM.

    ``reproducible=False`` accumulates contributions with conventional
    float adds *in edge order* (order-sensitive, like a parallel or
    storage-reordered engine); ``reproducible=True`` uses the
    bit-reproducible kernel.
    """
    out_degree = np.bincount(src, minlength=npages).astype(np.float64)
    out_degree[out_degree == 0] = 1.0
    ranks = np.full(npages, 1.0 / npages)
    params = RsumParams(BINARY64, levels)
    for _ in range(iterations):
        contrib = ranks[src] / out_degree[src]
        if reproducible:
            grouped = GroupedSummation.from_pairs(params, dst, contrib, npages)
            sums = grouped.finalize()
        else:
            sums = np.zeros(npages)
            np.add.at(sums, dst, contrib)
        ranks = (1.0 - damping) / npages + damping * sums
    return ranks


def rank_swaps(ranks_a: np.ndarray, ranks_b: np.ndarray) -> int:
    """Number of pages whose rank *position* differs between two runs."""
    order_a = np.argsort(-ranks_a, kind="stable")
    order_b = np.argsort(-ranks_b, kind="stable")
    pos_a = np.empty_like(order_a)
    pos_b = np.empty_like(order_b)
    pos_a[order_a] = np.arange(len(order_a))
    pos_b[order_b] = np.arange(len(order_b))
    return int(np.count_nonzero(pos_a != pos_b))


def pagerank_experiment(npages: int = 2000, permutations: int = 5,
                        seed: int = 0, iterations: int = 20) -> dict:
    """The intro experiment: rank swaps across edge permutations."""
    src, dst = synthetic_web_graph(npages, seed=seed)
    rng = np.random.default_rng(seed + 1)
    base_conv = pagerank(src, dst, npages, iterations, reproducible=False)
    base_repro = pagerank(src, dst, npages, iterations, reproducible=True)
    conv_swaps = []
    repro_swaps = []
    for _ in range(permutations):
        order = rng.permutation(len(src))
        conv = pagerank(src[order], dst[order], npages, iterations,
                        reproducible=False)
        rep = pagerank(src[order], dst[order], npages, iterations,
                       reproducible=True)
        conv_swaps.append(rank_swaps(base_conv, conv))
        repro_swaps.append(rank_swaps(base_repro, rep))
        assert np.array_equal(
            rep.view(np.uint64), base_repro.view(np.uint64)
        ) == (repro_swaps[-1] == 0)
    return {
        "npages": npages,
        "edges": len(src),
        "conventional_swaps": conv_swaps,
        "reproducible_swaps": repro_swaps,
    }
