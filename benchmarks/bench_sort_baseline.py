"""Section VI-A's SORTAGGREGATION baseline.

Paper: over 60 ns/element even on built-in floats — 20x our algorithm
in the best case, 3x+ wherever n/ngroups < 2**6 — which is why a
numeric solution beats sorting for reproducibility.

Measured: wall-clock sort-aggregate vs partition-and-aggregate on the
reproducible spec at n = 2**16; sorting also loses in Python.
"""

import numpy as np
import pytest

from _common import emit, standard_pairs, table
from repro.aggregation import (
    ConventionalFloatSpec,
    ReproSpec,
    partition_and_aggregate,
    sort_aggregate,
)
from paper.simulator import sort_baseline_series

N_MEASURED = 2**16


@pytest.mark.parametrize("algorithm", ["sort-agg-float", "partition-agg-repro2"])
def test_sort_baseline_measured(benchmark, algorithm):
    keys, values = standard_pairs(N_MEASURED, 2**10)
    benchmark.group = "sort-baseline-1024-groups"
    if algorithm == "sort-agg-float":
        benchmark.pedantic(
            lambda: sort_aggregate(keys, values, ConventionalFloatSpec()),
            rounds=3, iterations=1,
        )
    else:
        benchmark.pedantic(
            lambda: partition_and_aggregate(
                keys, values, ReproSpec("double", 2), fanout=16
            ),
            rounds=3, iterations=1,
        )


def test_sort_baseline_report(benchmark, model):
    out = benchmark.pedantic(lambda: sort_baseline_series(model), rounds=1,
                             iterations=1)
    body = [
        [f"2^{e}", round(v, 2), round(out["sort_ns"] / v, 1)]
        for e, v in zip(out["group_exps"], out["ours_ns"])
    ]
    emit(
        "sort_baseline",
        table(
            ["ngroups", "ours ns/elem", "sort is Nx slower"],
            body,
            title=f"SORTAGGREGATION model: {out['sort_ns']:.1f} ns/elem "
                  f"(paper: >{out['paper_sort_ns']:.0f} ns)",
        ),
    )
    assert out["sort_ns"] > 60.0
    assert out["sort_ns"] / min(out["ours_ns"]) >= 15  # paper: 20x best case
