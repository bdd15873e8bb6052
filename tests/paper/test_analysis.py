"""Tests for the analysis substrate (oracles, bounds, reporting)."""

import math
from fractions import Fraction

import numpy as np
import pytest

from paper.analysis import (
    TABLE2_PAPER,
    abs_error,
    banner,
    conventional_error_bound,
    exact_sum,
    expected_table2_bound,
    format_sci,
    format_table,
    fsum,
    max_group_error,
    rel_error,
    rsum_error_bound,
    table2_rows,
)
from paper.analysis.errors import state_exact_value
from repro.core import ReproducibleSummer


class TestExactOracles:
    def test_exact_sum_fraction(self):
        assert exact_sum([0.5, 0.25]) == Fraction(3, 4)

    def test_fsum_matches_math(self, exp_values):
        assert fsum(exp_values) == math.fsum(exp_values)

    def test_abs_error(self):
        assert abs_error(1.0, [0.5, 0.25]) == 0.25

    def test_rel_error(self):
        assert rel_error(1.5, [0.5, 0.5]) == 0.5
        assert rel_error(0.25, []) == 0.25  # zero exact sum

    def test_max_group_error(self):
        groups = {1: [0.5, 0.5], 2: [1.0]}
        results = {1: 1.0, 2: 1.5}
        assert max_group_error(results, groups) == 0.5


class TestBounds:
    def test_conventional_bound_equation5(self):
        # (n-1) * 2**-53 * sum|b| for the paper's U[1,2), n=10**3 row.
        bound = conventional_error_bound(1000, 1.5 * 1000)
        assert bound == pytest.approx(1.7e-10, rel=0.05)

    def test_rsum_bound_equation6(self):
        assert rsum_error_bound(1000, 2.0, 2) == pytest.approx(9.1e-10, rel=0.05)
        assert rsum_error_bound(10**6, 22.0, 1) == pytest.approx(1.1e7, rel=0.05)

    def test_all_paper_cells_reproduced(self):
        for (algorithm, n, dist), paper in TABLE2_PAPER.items():
            ours = expected_table2_bound(algorithm, n, dist)
            assert ours == pytest.approx(paper, rel=0.05), (algorithm, n, dist)

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ValueError):
            expected_table2_bound("Conventional", 10, "Cauchy")
        with pytest.raises(ValueError):
            expected_table2_bound("KAHAN", 10, "U[1,2)")

    def test_table2_rows_measured_below_bound(self):
        for row in table2_rows(sizes=(10**3,), trials=1, seed=1):
            if row["algorithm"] == "Conventional":
                continue
            assert row["state_error"] <= row["bound"] * 1.001

    def test_state_exact_value(self):
        summer = ReproducibleSummer()
        values = [0.5, 0.25, 2.0**-30]
        summer.add_array(np.asarray(values))
        assert state_exact_value(summer.state) == exact_sum(values)

    def test_state_exact_value_empty(self):
        assert state_exact_value(ReproducibleSummer().state) == 0


class TestReporting:
    def test_format_sci(self):
        assert format_sci(1.7e-10) == "1.7e-10"
        assert format_sci(1.0e3) == "1.0e+03"
        assert format_sci(None) == "-"
        assert format_sci(0) == "0"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, None]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "30" in lines[-1] and "-" in lines[-1]

    def test_banner(self):
        assert "hello" in banner("hello")

    def test_float_cell_formatting(self):
        text = format_table(["x"], [[0.123456]])
        assert "0.123" in text
        text = format_table(["x"], [[1e-9]])
        assert "e-09" in text
