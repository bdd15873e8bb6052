"""Ablation: the W and L parameters of the reproducible format.

Paper §III-C: W "affects the result (the higher, the more accurate)
and the cost (the higher, the slower)"; the defaults are W = 40
(double) and W = 18 (single).  This bench sweeps both knobs:

* accuracy — measured error vs the exact sum and the Equation-6 bound
  across W in {10..50} and L in {1..4};
* cost — measured time of the vectorised kernel (per-level work means
  L is the cost driver; W only moves the NB bound, which the
  integer-carry design makes a non-issue — worth showing).
"""

import math

import numpy as np
import pytest

from _common import emit, table
from paper.analysis import abs_error, rsum_error_bound
from paper.analysis.reporting import format_sci
from repro.core import ReproducibleSummer, RsumParams, max_block_size
from repro.fp.formats import BINARY64


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(0)
    exponents = rng.uniform(-20, 20, size=20_000)
    return rng.choice([-1.0, 1.0], 20_000) * np.exp2(exponents)


def test_ablation_w_sweep_report(benchmark, values):
    def sweep():
        rows = []
        for w in (10, 20, 30, 40, 50):
            for levels in (1, 2, 3):
                params = RsumParams(BINARY64, levels, w)
                summer = ReproducibleSummer(params=params)
                summer.add_array(values)
                error = abs_error(summer.result(), values)
                bound = rsum_error_bound(
                    len(values), float(np.max(np.abs(values))), levels, w
                )
                rows.append([w, levels, max_block_size(BINARY64, w),
                             format_sci(error), format_sci(bound)])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_params_w",
        table(
            ["W", "L", "NB bound", "measured |err|", "Eq.6 bound"],
            rows,
            title="W/L sweep on wide-exponent data (n = 20000)",
        ),
        "Higher W or L -> lower error, matching Equation 6's\n"
        "2**((1-L)W - 1) factor.  The paper's W=40, L=2 default makes\n"
        "the bound comparable to conventional summation.",
    )
    # Error decreases (weakly) in W at fixed L>=2, and in L at fixed W.
    errors = {}
    for w, levels, _, err, _ in rows:
        errors[(w, levels)] = err

    def val(cell):
        return 0.0 if cell == "0" else float(cell.replace("e", "E"))

    for levels in (2, 3):
        series = [val(errors[(w, levels)]) for w in (10, 20, 30, 40, 50)]
        assert series[-1] <= series[0] * 1.001
    for w in (20, 40):
        series = [val(errors[(w, lv)]) for lv in (1, 2, 3)]
        assert series[2] <= series[0] * 1.001


@pytest.mark.parametrize("levels", [1, 2, 3, 4])
def test_ablation_cost_vs_levels(benchmark, values, levels):
    """Vectorised kernel cost scales with L (the paper's Figure 4)."""
    params = RsumParams(BINARY64, levels)

    def run():
        summer = ReproducibleSummer(params=params)
        summer.add_array(values)
        return summer.result()

    benchmark.group = "ablation-cost-vs-L"
    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("w", [20, 40, 50])
def test_ablation_cost_vs_w(benchmark, values, w):
    """W does not change the vectorised cost materially (the per-level
    extraction work is W-independent; only accuracy moves)."""
    params = RsumParams(BINARY64, 2, w)

    def run():
        summer = ReproducibleSummer(params=params)
        summer.add_array(values)
        return summer.result()

    benchmark.group = "ablation-cost-vs-W"
    benchmark.pedantic(run, rounds=3, iterations=1)
