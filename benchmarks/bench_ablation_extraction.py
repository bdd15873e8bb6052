"""Ablation: anchored extraction vs the paper's running-sum extraction.

DESIGN.md motivates extracting contributions against the constant
level anchor ``1.5 * 2**e`` instead of the running sum ``S(l)``: the
two coincide except on round-to-nearest *ties* (inputs landing exactly
half a level-ulp between grid points), where the running-sum variant's
(q, r) split depends on the accumulated low bits — i.e. on input
order.  This bench quantifies that: on tie-dense inputs, it counts how
often the running-sum variant's internal state diverges across
permutations, and verifies the anchored variant never does.
"""

import numpy as np
import pytest

from _common import emit, standard_pairs, table
from paper.rsum_paper import ScalarRsumPaper
from paper.state import SummationState
from repro.core import ReproducibleSummer, RsumParams
from repro.fp.ieee import float_to_bits


def tie_dense_values(rng, n, e0_exp=40, m=52):
    """Values that are exact odd multiples of half the level-0 ulp."""
    half_ulp = 2.0 ** (e0_exp - m - 1)
    ks = rng.integers(1, 2**20, size=n) * 2 + 1  # odd -> always a tie
    signs = rng.choice([-1.0, 1.0], size=n)
    values = signs * ks * half_ulp
    # Include one large value pinning the ladder at e0_exp.
    values[0] = 1.5 * 2.0 ** (e0_exp - 14)
    return values


def run_experiment(permutations=50, n=64, seed=0):
    rng = np.random.default_rng(seed)
    values = tie_dense_values(rng, n)
    params = RsumParams.double(2)

    anchored_states = set()
    running_results = set()
    running_states = set()
    for _ in range(permutations):
        order = rng.permutation(n)
        anchored = SummationState(params)
        anchored.add_array(values[order])
        anchored_states.add(anchored.state_tuple())
        paper = ScalarRsumPaper(params)
        paper.add_many(values[order])
        running_results.add(float_to_bits(float(paper.result())))
        running_states.add(tuple(float(s) for s in paper.S))
    return {
        "anchored_distinct_states": len(anchored_states),
        "running_distinct_states": len(running_states),
        "running_distinct_results": len(running_results),
    }


def test_ablation_extraction_report(benchmark):
    stats = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        "ablation_extraction",
        table(
            ["variant", "distinct internal states", "distinct result bits"],
            [
                ["anchored (ours)", stats["anchored_distinct_states"], 1],
                ["running-sum (paper Alg. 2)",
                 stats["running_distinct_states"],
                 stats["running_distinct_results"]],
            ],
            title="50 permutations of 64 tie-dense values",
        ),
        "Anchored extraction is state-identical under permutation by\n"
        "construction.  The running-sum variant's level split wanders\n"
        "with order on tie inputs; its final result usually re-converges\n"
        "(the moved half-ulp lives exactly on the next level's grid),\n"
        "which is why the paper could use it — but the guarantee is\n"
        "easier to prove, and no slower, with constant anchors.",
    )
    assert stats["anchored_distinct_states"] == 1


def test_ablation_extraction_agreement_off_ties(benchmark):
    """Off tie inputs, both variants are bit-identical."""
    rng = np.random.default_rng(1)
    values = rng.exponential(size=2000)
    params = RsumParams.double(2)

    def compare():
        paper = ScalarRsumPaper(params)
        paper.add_many(values)
        ours = SummationState(params)
        ours.add_array(values)
        return float(paper.result()), float(ours.finalize())

    a, b = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert a == b


def test_ablation_extraction_speed(benchmark):
    """Vectorised anchored extraction vs the per-element spec loop."""
    values = np.random.default_rng(2).exponential(size=2**13)

    def run_anchored():
        summer = ReproducibleSummer("double", 2)
        summer.add_array(values)
        return summer.result()

    benchmark.group = "ablation-extraction-speed"
    benchmark.pedantic(run_anchored, rounds=3, iterations=1)


def test_ablation_extraction_speed_paper_loop(benchmark):
    values = np.random.default_rng(2).exponential(size=2**13)
    params = RsumParams.double(2)

    def run_paper():
        paper = ScalarRsumPaper(params)
        paper.add_many(values)
        return paper.result()

    benchmark.group = "ablation-extraction-speed"
    benchmark.pedantic(run_paper, rounds=3, iterations=1)
