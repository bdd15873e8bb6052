"""Figure 12 (Appendix B): buffer-size impact with one partitioning pass.

Paper: qualitatively identical to Figure 8, but the fan-out of 256
divides the groups each aggregation sees — data sets with 256x more
groups fit before the cliff — at the constant extra cost of the
partitioning pass.
"""

import pytest

from _common import emit, table
from paper.simulator import fig8_series, fig12_series


def test_fig12_report(benchmark, model):
    out = benchmark.pedantic(lambda: fig12_series(model), rounds=1, iterations=1)
    bsizes = out["buffer_sizes"]

    def panel(data, title):
        return table(
            ["data type"] + [str(b) for b in bsizes],
            [[label] + [round(v, 2) for v in series] for label, series in data.items()],
            title=title,
        )

    panel_c_rows = [
        [bsz] + [round(v, 1) for v in series]
        for bsz, series in out["panel_c"].items()
    ]
    emit(
        "fig12_buffer_size_d1",
        panel(out["panel_a"], "(a) 4096 groups, d=1 — model ns/element"),
        panel(out["panel_b"], "(b) 262144 groups, d=1 — model ns/element"),
        table(
            ["bsz"] + [f"2^{e}" for e in out["group_exps"]],
            panel_c_rows,
            title="(c) repro<float,2>, d=1 — model ns/element vs ngroups",
        ),
    )
    # 4096 groups behind fan-out 256 behave like 16 groups at d=0.
    for label, series in out["panel_a"].items():
        assert series[-1] <= series[0], label
    # 262144 groups behind fan-out 256 = 1024 per partition: cliff.
    for label, series in out["panel_b"].items():
        assert series[bsizes.index(1024)] > series[bsizes.index(128)], label


def test_fig12_shift_by_fanout(benchmark, model):
    """The d=1 cliff for a given bsz sits 256x later in ngroups."""
    d0 = fig8_series(model)
    d1 = fig12_series(model)

    def cliff(series, exps):
        base = series[0]
        for e, v in zip(exps, series):
            if v > 1.6 * base:
                return e
        return exps[-1] + 1

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for bsz in (64, 256, 1024):
        c0 = cliff(d0["panel_c"][bsz], d0["group_exps"])
        c1 = cliff(d1["panel_c"][bsz], d1["group_exps"])
        # 2**8 = fan-out 256 (one grid step of slack: the partition
        # pass shifts the baseline the relative threshold is taken on).
        assert c1 - c0 in (8, 9)
