"""Tests for error-free transformations (``benchmarks/paper/eft.py``)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paper.eft import (
    exact_sum_fraction,
    extract,
    extract_array,
    fast_two_sum,
    split_against_anchor,
    two_sum,
)
from repro.fp.ieee import is_multiple_of, ulp

finite_doubles = st.floats(
    min_value=-1e100, max_value=1e100, allow_nan=False, allow_infinity=False
)


class TestTwoSum:
    @given(finite_doubles, finite_doubles)
    def test_exactness(self, a, b):
        s, e = two_sum(a, b)
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

    @given(finite_doubles, finite_doubles)
    def test_s_is_rounded_sum(self, a, b):
        s, _ = two_sum(a, b)
        assert s == a + b

    def test_classic_example(self):
        s, e = two_sum(1.0, 2.0**-60)
        assert s == 1.0
        assert e == 2.0**-60


class TestFastTwoSum:
    @given(finite_doubles, finite_doubles)
    def test_exactness_with_swap(self, a, b):
        s, e = fast_two_sum(a, b)
        assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)

    def test_matches_two_sum(self):
        for a, b in [(1e16, 1.0), (3.5, -3.25), (0.1, 0.2)]:
            assert fast_two_sum(a, b) == two_sum(a, b)


class TestExtract:
    """The paper's EFT: q = (a + b) - a, r = b - q (Figure 1)."""

    def test_figure1_style_example(self):
        # Extractor 1024, value 179.25: q keeps the high bits.
        a = 1.5 * 1024.0
        q, r = extract(a, 179.25)
        assert q + r == 179.25
        assert is_multiple_of(q, ulp(a))

    def test_paper_section_iiib_example(self):
        # a = 1.010_2 * 2**0 = 1.25, b = 1.101_2 * 2**-2 = 0.40625:
        # q = 1.101_2 * 2**0 ... the published example uses its own toy
        # precision; in binary64 both are exact, so q + r == b and q is
        # a multiple of ulp(a).
        q, r = extract(1.25, 0.40625)
        assert q + r == 0.40625
        assert is_multiple_of(q, ulp(1.25))

    @given(st.floats(min_value=1.25, max_value=1.75),
           st.floats(-0.25, 0.25))
    def test_exactness_in_window(self, anchor, b):
        # The state machine guarantees |b| <= 0.25 * ufp(anchor) and the
        # anchor stays in [1.25, 1.75): both subtractions are exact.
        q, r = extract(anchor, b)
        assert Fraction(q) + Fraction(r) == Fraction(b)
        assert is_multiple_of(q, ulp(anchor))

    def test_float32_extract(self):
        a = np.float32(1.5 * 2**10)
        b = np.float32(3.14159)
        q, r = extract(a, b)
        assert np.float32(q + r) == b
        assert q.dtype == np.float32


class TestExtractArray:
    def test_matches_scalar(self, rng):
        anchor = 1.5 * 2.0**20
        values = rng.uniform(-1000, 1000, size=256)
        q_vec, r_vec = extract_array(anchor, values)
        for i in range(256):
            q_s, r_s = extract(anchor, values[i])
            assert q_vec[i] == q_s
            assert r_vec[i] == r_s

    def test_split_against_anchor_quanta(self, rng):
        exp = 20
        anchor = 1.5 * 2.0**exp
        scale_exp = exp - 52
        values = rng.uniform(-1000, 1000, size=128)
        k, r = split_against_anchor(values, anchor, scale_exp)
        assert k.dtype == np.int64
        for i in range(128):
            q = float(np.ldexp(float(k[i]), scale_exp))
            assert q + r[i] == values[i]


class TestExactSumFraction:
    def test_simple(self):
        assert exact_sum_fraction([0.5, 0.25]) == Fraction(3, 4)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            exact_sum_fraction([1.0, float("inf")])

    @given(st.lists(finite_doubles, max_size=20))
    def test_matches_fraction_sum(self, values):
        assert exact_sum_fraction(values) == sum(
            (Fraction(v) for v in values), Fraction(0)
        )
