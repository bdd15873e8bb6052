"""Figure 8: impact of the buffer size on PARTITIONANDAGGREGATE (d = 0).

Paper: (a) at 16 groups bigger buffers always help (gains marginal
past 2**8); (b) at 1024 groups performance collapses past bsz = 2**8
(single) / 2**7 (double) when the working set leaves the ~1 MiB LLC
share; (c) for each fixed bsz the collapse comes at the group count
predicted by the Equation-4 footprint.

Model: all three panels.  Measured: panel (a)'s amortisation effect is
real in Python too — per-element cost of a single group's buffered
accumulation falls as bsz grows.
"""

import numpy as np
import pytest

from _common import emit, table
from paper.buffer import BufferedReproFloat
from paper.simulator import fig8_series
from paper.tuning import optimal_buffer_size

BUFFER_SIZES_MEASURED = [2**i for i in range(4, 11)]
N_MEASURED = 2**15


@pytest.mark.parametrize("bsz", BUFFER_SIZES_MEASURED)
def test_fig08a_measured_amortisation(benchmark, bsz):
    values = np.random.default_rng(0).exponential(size=N_MEASURED)

    def run():
        buf = BufferedReproFloat("double", 2, buffer_size=bsz)
        buf.append_array(values)
        return buf.value

    benchmark.group = "fig08a-buffered-single-group"
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_fig08_report(benchmark, model):
    out = benchmark.pedantic(lambda: fig8_series(model), rounds=1, iterations=1)
    bsizes = out["buffer_sizes"]

    def panel(data, title):
        body = []
        for label, series in data.items():
            body.append([label] + [round(v, 2) for v in series])
        return table(["data type"] + [str(b) for b in bsizes], body, title=title)

    panel_c_rows = []
    for bsz, series in out["panel_c"].items():
        panel_c_rows.append([bsz] + [round(v, 1) for v in series])
    emit(
        "fig08_buffer_size",
        panel(out["panel_a"], "(a) 16 groups — model ns/element vs bsz"),
        panel(out["panel_b"], "(b) 1024 groups — model ns/element vs bsz"),
        table(
            ["bsz"] + [f"2^{e}" for e in out["group_exps"]],
            panel_c_rows,
            title="(c) repro<float,2> — model ns/element vs ngroups",
        ),
        "Cliffs sit where bsz * ngroups * sizeof(ScalarT) crosses ~1 MiB\n"
        "(Equation 4's working set), as in the paper.",
    )

    # (a): monotone improvement at 16 groups.
    for label, series in out["panel_a"].items():
        assert series[-1] <= series[0], label
    # (b): collapse past 2**8 at 1024 groups.
    for label, series in out["panel_b"].items():
        assert series[bsizes.index(1024)] > series[bsizes.index(128)], label


def test_fig08_equation4_close_to_optimal(benchmark, model):
    """Paper: 75 % of configs within 1 % of optimal, 90 % within 5 %,
    worst 20 %.  The model agrees Equation 4 is near-optimal, with the
    worst deviation where Equation 4 fills the cache to the brim (the
    paper observes the same: "bsz = 512 is slightly better than the
    predicted bsz = 1024 for 2**6 groups")."""
    from paper.simulator import dtype_model

    def sweep():
        ratios = []
        dt = dtype_model("repro<float,2>").buffered()
        for exp in range(4, 15):
            ngroups = 2**exp
            eq4 = optimal_buffer_size(ngroups, 4)
            cost = model.hash_agg_total_ns(dt, ngroups, buffer_size=eq4)
            best = min(
                model.hash_agg_total_ns(dt, ngroups, buffer_size=b)
                for b in BUFFER_SIZES_MEASURED
            )
            ratios.append(cost / best)
        return ratios

    ratios = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Majority of configurations near-optimal, worst bounded.
    within_7pct = sum(1 for r in ratios if r <= 1.07)
    assert within_7pct >= len(ratios) // 2
    assert max(ratios) <= 1.35
