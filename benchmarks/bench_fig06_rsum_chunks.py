"""Figure 6: chunked RSUM SCALAR/SIMD vs conventional summation.

Paper: calling the summation once per chunk of c values (the buffered
aggregation pattern), SCALAR wins below a cross-over chunk size
(12-48), SIMD above; at c = 512 SIMD reaches its c = infinity plateau —
at most +25 % over std::accumulate for single precision and *faster*
than it for double.

Model: full series per precision/level with cross-overs.  Measured:
the NumPy kernel's per-element cost versus chunk size at n = 2**18 —
the amortisation curve (cost strictly decreasing in c, flattening by
c ~ 2**9) is the same phenomenon at Python scale.
"""

import numpy as np
import pytest

from _common import emit, ns_per_element, table
from repro.core import ReproducibleSummer
from paper.simulator import PAPER_ANCHORS, fig6_crossover, fig6_series

N_MEASURED = 2**18
CHUNKS = [2**i for i in range(4, 13)]


@pytest.fixture(scope="module")
def values():
    return np.random.default_rng(0).exponential(size=N_MEASURED)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_fig06_measured_chunked_rsum(benchmark, values, chunk):
    def run():
        summer = ReproducibleSummer("double", 2)
        for start in range(0, values.size, chunk):
            summer.add_array(values[start : start + chunk])
        return summer.result()

    benchmark.group = "fig06-chunked-rsum-double-L2"
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_fig06_measured_conv_baseline(benchmark, values):
    benchmark.group = "fig06-chunked-rsum-double-L2"
    benchmark.pedantic(lambda: np.sum(values), rounds=3, iterations=1)


def test_fig06_report(benchmark, model):
    def build():
        out = {}
        for double in (False, True):
            for levels in (2, 3):
                rows, meta = fig6_series(model, double, levels)
                out[(double, levels)] = (rows, meta)
        return out

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    sections = []
    for (double, levels), (rows, meta) in series.items():
        precision = "double" if double else "single"
        anchors = PAPER_ANCHORS["fig6_annotations"][
            ("double" if double else "float", levels)
        ]
        crossover = fig6_crossover(model, double, levels)
        body = [
            [r["chunk"], round(r["scalar_slowdown"], 2), round(r["simd_slowdown"], 2)]
            for r in rows
        ]
        sections.append(
            table(
                ["chunk c", "scalar slowdown", "simd slowdown"],
                body,
                title=(
                    f"{precision} precision, {levels} levels — model "
                    f"crossover c={crossover} (paper: {anchors['crossover']}), "
                    f"plateau {100 * (meta['simd_inf_slowdown'] - 1):+.1f}% "
                    f"(paper: {anchors['plateau_pct']:+.1f}%)"
                ),
            )
        )
        assert 8 <= crossover <= 64  # paper: between 12 and 48
    emit("fig06_rsum_chunks", *sections)


def test_fig06_double_simd_beats_conv_at_plateau(model):
    _, meta = fig6_series(model, double=True, levels=2)
    assert meta["simd_inf_slowdown"] < 1.0
