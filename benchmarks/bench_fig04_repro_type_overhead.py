"""Figure 4: HASHAGGREGATION with different reproducible data types.

Paper setup: n = 2**30 pairs, 16 groups, per-tuple ``operator+=`` on
the intermediate aggregate; the reproducible types cost 3.7x-12.3x the
uint32 baseline, scaling linearly in L.

Reproduced here as (a) the calibrated model at the paper's scale and
(b) measured pytest-benchmark timings of the per-tuple accumulation
kernels at n = 2**14 — Python's relative overheads differ, but the
linear-in-L scaling and float~double equivalence both show.
"""

import numpy as np
import pytest

from _common import emit, ns_per_element, standard_pairs, table
from paper.operators import ConventionalFloatSpec, ReproSpec, hash_aggregate
from paper.simulator import fig4_series

N_MEASURED = 2**14
NGROUPS = 16

_SPECS = {
    "double": ConventionalFloatSpec(np.float64),
    "float": ConventionalFloatSpec(np.float32),
    "repro<double,1>": ReproSpec("double", 1),
    "repro<double,2>": ReproSpec("double", 2),
    "repro<double,3>": ReproSpec("double", 3),
    "repro<double,4>": ReproSpec("double", 4),
    "repro<float,2>": ReproSpec("float", 2),
}


@pytest.fixture(scope="module")
def pairs():
    return standard_pairs(N_MEASURED, NGROUPS)


@pytest.mark.parametrize("label", list(_SPECS))
def test_fig04_measured_per_tuple_accumulation(benchmark, pairs, label):
    """Per-tuple (elementwise) accumulation — the unmodified operator."""
    keys, values = pairs
    spec = _SPECS[label]
    values = values.astype(np.float32) if "float" in label and "double" not in label else values

    benchmark.group = "fig04-per-tuple-hashagg-16groups"
    benchmark.pedantic(
        lambda: hash_aggregate(keys, values, spec, elementwise=True),
        rounds=3,
        iterations=1,
    )


def test_fig04_report(benchmark, model):
    rows = benchmark.pedantic(lambda: fig4_series(model), rounds=1, iterations=1)
    base_ns = rows[0]["model_ns"]
    emit(
        "fig04_repro_type_overhead",
        table(
            ["data type", "model ns/elem", "model ratio", "paper ratio"],
            [
                [r["dtype"], round(r["model_ns"], 2),
                 round(r["model_ratio"], 2), r["paper_ratio"]]
                for r in rows
            ],
            title=f"HASHAGGREGATION, 16 groups (baseline {base_ns:.2f} ns)",
        ),
        "Paper: repro types are 4x-12x slower per tuple, ~linear in L,\n"
        "float and double nearly identical (compute-bound).",
    )
    for r in rows:
        assert abs(r["model_ratio"] - r["paper_ratio"]) / r["paper_ratio"] < 0.15
