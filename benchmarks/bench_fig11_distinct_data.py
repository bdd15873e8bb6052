"""Figure 11 (Appendix A): almost-distinct data, various input sizes.

Paper: with bsz = 256, the per-element cost jumps whenever the average
records-per-group n/ngroups falls below 2**6, independent of n — the
summation routine amortises poorly on near-empty buffers and the
result write-back starts to dominate.

Model: the n = 2**25..2**30 family.  Measured: flush amortisation vs
records-per-group at Python scale (cost per element of buffered
accumulation rises as groups approach distinct).
"""

import numpy as np
import pytest

from _common import emit, standard_pairs, table
from paper.operators import BufferedReproSpec, hash_aggregate
from paper.simulator import fig11_series

N_MEASURED = 2**14


@pytest.mark.parametrize("rpg_exp", [8, 4, 1])
def test_fig11_measured_records_per_group(benchmark, rpg_exp):
    ngroups = N_MEASURED // 2**rpg_exp
    keys, values = standard_pairs(N_MEASURED, ngroups)
    spec = BufferedReproSpec("float", 2, 256)
    benchmark.group = "fig11-records-per-group"
    benchmark.pedantic(
        lambda: hash_aggregate(keys, values, spec),
        rounds=3,
        iterations=1,
    )


def test_fig11_report(benchmark, model):
    out = benchmark.pedantic(
        lambda: fig11_series(model, input_exps=[25, 27, 30]),
        rounds=1,
        iterations=1,
    )
    sections = []
    for n_exp, series in out["inputs"].items():
        exps = out["group_exps"][n_exp]
        body = [
            [f"2^{e}", f"2^{n_exp - e}", round(v, 1)]
            for e, v in zip(exps, series)
        ]
        sections.append(
            table(
                ["ngroups", "records/group", "model ns/elem"],
                body,
                title=f"n = 2^{n_exp}, bsz = 256",
            )
        )
        # The drop sets in below 2**6 records per group.
        by_rpg = {n_exp - e: v for e, v in zip(exps, series)}
        if 8 in by_rpg and 2 in by_rpg:
            assert by_rpg[2] > 1.3 * by_rpg[8]
    emit("fig11_distinct_data", *sections)
