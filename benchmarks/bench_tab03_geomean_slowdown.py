"""Table III: geometric-mean slowdown of buffered repro types vs float.

Paper: 1.88-2.35 (float-based) and 2.12-2.41 (double-based) across all
group counts — "an affordable price for full reproducibility".
"""

import pytest

from _common import emit, table
from paper.simulator import PAPER_ANCHORS, table3_geomeans


def test_table3_report(benchmark, model):
    geomeans = benchmark.pedantic(
        lambda: table3_geomeans(model), rounds=1, iterations=1
    )
    order = [
        "repro<double,1>", "repro<double,2>", "repro<double,3>",
        "repro<double,4>", "repro<float,1>", "repro<float,2>",
        "repro<float,3>", "repro<float,4>",
    ]
    body = [
        [label, round(geomeans[label], 2), PAPER_ANCHORS["table3"][label]]
        for label in order
    ]
    emit(
        "tab03_geomean_slowdown",
        table(["data type", "model slowdown", "paper slowdown"], body,
              title="Geometric mean slowdown vs float, all group counts"),
    )
    for label in order:
        assert geomeans[label] == pytest.approx(
            PAPER_ANCHORS["table3"][label], rel=0.25
        ), label
    lo, hi = PAPER_ANCHORS["headline_slowdown_range"]
    values = list(geomeans.values())
    # Headline claim: "slowdown of about a factor of two".
    assert min(values) >= lo * 0.85
    assert max(values) <= hi * 1.25
