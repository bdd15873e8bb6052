"""The introduction's PageRank experiment.

Paper: "We ran PageRank on different permutations of a small web graph
with 900k pages.  We observed that, from one run to the next, the
ranks of about 10-20 pages would be different enough to swap ranks
with another page."

PageRank's inner loop is a GROUP BY SUM (sum incoming contributions
per page), so edge order leaks into the ranks under IEEE floats.  The
Google web graph is not shipped offline; we use a synthetic
scale-free graph (preferential attachment) — the effect is the same.

Run:  python examples/pagerank_reproducibility.py
"""

import sys
from pathlib import Path

import numpy as np

# The experiment lives with the paper's figure code, beside the benches.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from paper.pagerank import (  # noqa: E402
    pagerank,
    rank_swaps,
    synthetic_web_graph,
)


def main():
    npages = 5000
    print(f"Building a synthetic scale-free web graph ({npages} pages)...")
    src, dst = synthetic_web_graph(npages, out_degree=8, seed=1)
    print(f"{len(src)} edges")

    rng = np.random.default_rng(2)
    base_conv = pagerank(src, dst, npages, iterations=25, reproducible=False)
    base_repro = pagerank(src, dst, npages, iterations=25, reproducible=True)

    print("\nRe-running PageRank on 5 random edge permutations")
    print(f"{'permutation':>12} {'IEEE rank swaps':>16} {'repro rank swaps':>17}")
    total_conv = 0
    for i in range(5):
        order = rng.permutation(len(src))
        conv = pagerank(src[order], dst[order], npages, iterations=25,
                        reproducible=False)
        rep = pagerank(src[order], dst[order], npages, iterations=25,
                       reproducible=True)
        conv_swaps = rank_swaps(base_conv, conv)
        repro_swaps = rank_swaps(base_repro, rep)
        total_conv += conv_swaps
        print(f"{i:>12} {conv_swaps:>16} {repro_swaps:>17}")
        assert repro_swaps == 0

    print(
        f"\nIEEE floats: {total_conv} rank positions changed across runs "
        "of the SAME graph\n(the paper saw 10-20 pages swap on its 900k-page "
        "graph).\nReproducible summation: zero, bit-for-bit, every time."
    )


if __name__ == "__main__":
    main()
