"""Figure 9: partitioning depth d = 0, 1, 2 for repro<float,2>+buffers.

Paper: no partitioning wins below ~2**10 groups; one level wins up to
~2**18; two levels beyond — i.e. each level pays off once the groups
*per partition* exceed the in-cache threshold again.

Model: the sweep plus its implied thresholds (the model lands within
4x of the paper's 2**10/2**18; see EXPERIMENTS.md).  Measured: actual
partitioning passes cost real time in Python too, so depth>0 must be
slower at small group counts — the left side of the figure.
"""

import numpy as np
import pytest

from _common import emit, standard_pairs, table
from paper.operators import ReproSpec, partition_and_aggregate
from paper.simulator import fig9_series

N_MEASURED = 2**16


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_fig09_measured_depth_cost_small_groups(benchmark, depth):
    keys, values = standard_pairs(N_MEASURED, 2**4)
    spec = ReproSpec("float", 2)
    benchmark.group = "fig09-depth-at-16-groups"
    benchmark.pedantic(
        lambda: partition_and_aggregate(
            keys, values, spec, depth=depth, fanout=16
        ),
        rounds=3,
        iterations=1,
    )


def test_fig09_report(benchmark, model):
    out = benchmark.pedantic(
        lambda: fig9_series(model, group_exps=list(range(0, 27, 2))),
        rounds=1,
        iterations=1,
    )
    body = []
    for i, exp in enumerate(out["group_exps"]):
        body.append(
            [f"2^{exp}"]
            + [round(out["series"][d][i], 2) for d in (0, 1, 2)]
        )
    emit(
        "fig09_partition_depth",
        table(
            ["ngroups", "d=0", "d=1", "d=2"],
            body,
            title="Model ns/element, repro<float,2> + Equation-4 buffers",
        ),
        f"Model thresholds: {out['thresholds']} "
        "(paper: d1 at 2^10, d2 at 2^18; both a fan-out of 256 apart)",
    )
    t = out["thresholds"]
    assert t["d2"] // t["d1"] == 256
    series = out["series"]
    exps = out["group_exps"]
    # Left side: d=0 cheapest; right side: d=2 cheapest.
    assert series[0][0] < series[1][0] < series[2][0]
    assert series[2][-1] < series[1][-1] < series[0][-1]
    # Middle: d=1 beats both somewhere.
    assert any(
        series[1][i] < series[0][i] and series[1][i] < series[2][i]
        for i in range(len(exps))
    )
