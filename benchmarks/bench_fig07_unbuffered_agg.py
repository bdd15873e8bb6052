"""Figure 7: PARTITIONANDAGGREGATE on repro types *without* summation
buffers, against DECIMAL(p) baselines.

Paper: the drop-in reproducible types cost 4x-10x built-in floats at
small group counts, decaying to 1.5x-3x as partitioning costs dominate;
DECIMAL(38) catches up with the repro types from ~2**16 groups.

Model: the full 2**0..2**30 sweep.  Measured: the vectorised Python
kernels across a 2**2..2**14 sweep at n = 2**17 (relative ordering of
conventional vs repro accumulation holds; absolute ratios are
Python's, not Haswell's).
"""

import numpy as np
import pytest

from _common import emit, standard_pairs, table
from paper.operators import (
    ConventionalFloatSpec,
    ReproSpec,
    partition_and_aggregate,
)
from paper.simulator import fig7_series

N_MEASURED = 2**17
GROUP_EXPS_MEASURED = [2, 6, 10, 14]


@pytest.mark.parametrize("group_exp", GROUP_EXPS_MEASURED)
@pytest.mark.parametrize("label", ["double", "repro<double,2>"])
def test_fig07_measured_sweep(benchmark, label, group_exp):
    keys, values = standard_pairs(N_MEASURED, 2**group_exp)
    spec = (
        ConventionalFloatSpec(np.float64)
        if label == "double"
        else ReproSpec("double", 2)
    )
    benchmark.group = f"fig07-unbuffered-2^{group_exp}groups"
    benchmark.pedantic(
        lambda: partition_and_aggregate(keys, values, spec, fanout=16),
        rounds=3,
        iterations=1,
    )


def test_fig07_report(benchmark, model):
    out = benchmark.pedantic(
        lambda: fig7_series(model, group_exps=list(range(0, 31, 2))),
        rounds=1,
        iterations=1,
    )
    labels = ["float", "DECIMAL(9)", "DECIMAL(18)", "DECIMAL(38)",
              "repro<float,2>", "repro<double,2>", "repro<double,3>"]
    header = ["ngroups"] + labels
    body = []
    for i, ngroups in enumerate(out["ngroups"]):
        body.append(
            [f"2^{int(np.log2(ngroups))}"]
            + [round(out["series"][label][i], 1) for label in labels]
        )
    slowdown_rows = []
    for i, ngroups in enumerate(out["ngroups"]):
        slowdown_rows.append(
            [f"2^{int(np.log2(ngroups))}"]
            + [
                round(out["slowdown"][label][i], 2)
                for label in ("repro<float,2>", "repro<double,2>", "repro<double,3>")
            ]
        )
    emit(
        "fig07_unbuffered_agg",
        table(header, body, title="Model CPU time [ns] per element (n=2**30)"),
        table(
            ["ngroups", "repro<float,2>", "repro<double,2>", "repro<double,3>"],
            slowdown_rows,
            title="Slowdown vs float (paper: 4-10x small, 1.5-3x large)",
        ),
    )
    # Shape assertions from the paper's text.
    for label in ("repro<float,2>", "repro<double,2>", "repro<double,3>"):
        s = out["slowdown"][label]
        assert 3.0 <= s[0] <= 11.0
        assert s[-1] < s[0]
