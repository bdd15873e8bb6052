"""Tests for paper.softfloat, including the paper's worked examples."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fp.formats import BINARY64, TOY_M2, TOY_M4, FloatFormat
from paper.softfloat import (
    NEAREST_EVEN,
    TRUNCATE,
    SoftFloat,
    round_to_format,
)


class TestRounding:
    def test_exact_values_unchanged(self):
        assert round_to_format(1.5, TOY_M2) == Fraction(3, 2)
        assert round_to_format(0.0) == 0

    def test_truncation(self):
        # 1.011_2 truncated to m=2 -> 1.01_2
        assert round_to_format(Fraction(11, 8), TOY_M2, TRUNCATE) == Fraction(5, 4)

    def test_nearest_even_tie(self):
        # 1.011_2 is 1.375: exactly between 1.25 and 1.5? No — nearest
        # of 1.375 to multiples of 0.25 is a tie -> picks even (1.5 has
        # even last mantissa bit count 6/4... verify directly).
        result = round_to_format(Fraction(11, 8), TOY_M2, NEAREST_EVEN)
        assert result in (Fraction(5, 4), Fraction(3, 2))
        # Tie-to-even: 1.375/0.25 = 5.5 -> rounds to 6 (even) -> 1.5.
        assert result == Fraction(3, 2)

    def test_binary64_matches_hardware(self):
        for value in (Fraction(1, 3), Fraction(10, 7), Fraction(-355, 113)):
            assert round_to_format(value) == Fraction(float(value))

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            round_to_format(2.0**100, TOY_M2)

    def test_subnormal_rounding(self):
        fmt = FloatFormat("tiny", 2, -2, 2)
        # Below 2**-2, quantum freezes at 2**-4.
        assert round_to_format(Fraction(3, 32), fmt) == Fraction(1, 8)

    @given(st.floats(min_value=-1e15, max_value=1e15,
                     allow_nan=False, allow_infinity=False))
    def test_binary64_idempotent(self, x):
        assert round_to_format(x, BINARY64) == Fraction(x)


class TestPaperSectionIIB:
    """The m = 2 associativity example: (a+b)+c != a+(b+c)."""

    def setup_method(self):
        self.fmt = TOY_M2
        # a = b = 1.01_2 * 2**0, c = 1.11_2 * 2**1
        self.a = SoftFloat.from_real(Fraction(5, 4), self.fmt, TRUNCATE)
        self.b = SoftFloat.from_real(Fraction(5, 4), self.fmt, TRUNCATE)
        self.c = SoftFloat.from_real(Fraction(7, 2), self.fmt, TRUNCATE)

    def test_left_association_is_exact(self):
        # (a + b) + c = 1.10_2 * 2**2 = 6, no rounding error.
        result = (self.a + self.b) + self.c
        assert result.exact() == Fraction(6)

    def test_right_association_rounds(self):
        # a + (b + c): rd(b + c) = 1.00_2 * 2**2 = 4 (error), then
        # rd(a + 4) = 1.01_2 * 2**2 = 5 (error).
        inner = self.b + self.c
        assert inner.exact() == Fraction(4)
        result = self.a + inner
        assert result.exact() == Fraction(5)

    def test_rounding_error_sum_is_representable(self):
        # Paper: "the sum of the rounding errors is 1.00_2 * 2**0".
        exact = self.a.exact() + self.b.exact() + self.c.exact()
        rounded = (self.a + (self.b + self.c)).exact()
        assert exact - rounded == Fraction(1)


class TestSoftFloatArithmetic:
    def test_addition_rounds_per_operation(self):
        fmt = TOY_M4
        a = SoftFloat.from_real(16, fmt)
        b = SoftFloat.from_real(Fraction(1, 2), fmt)
        # 16.5 needs 6 mantissa bits; m=4 keeps 16.
        assert (a + b).exact() == Fraction(16)

    def test_subtraction(self):
        fmt = TOY_M4
        a = SoftFloat.from_real(9, fmt)
        b = SoftFloat.from_real(Fraction(17, 4), fmt)
        assert (a - b).exact() == Fraction(19, 4)

    def test_negation(self):
        a = SoftFloat.from_real(1.25, TOY_M2)
        assert (-a).exact() == Fraction(-5, 4)

    def test_mixed_formats_rejected(self):
        a = SoftFloat.from_real(1.0, TOY_M2)
        b = SoftFloat.from_real(1.0, TOY_M4)
        with pytest.raises(TypeError):
            a + b

    def test_unrepresentable_constructor_rejected(self):
        with pytest.raises(ValueError):
            SoftFloat(TOY_M2, Fraction(9, 8))

    def test_ufp_ulp(self):
        x = SoftFloat.from_real(1.25, TOY_M2)
        assert x.ufp() == 1
        assert x.ulp() == Fraction(1, 4)
        with pytest.raises(ValueError):
            SoftFloat.from_real(0, TOY_M2).ufp()

    def test_float_conversion(self):
        assert float(SoftFloat.from_real(1.5, TOY_M2)) == 1.5

    @given(st.integers(-200, 200), st.integers(-200, 200))
    def test_binary64_addition_matches_hardware(self, ka, kb):
        a, b = ka / 16.0, kb / 16.0
        soft = SoftFloat.from_real(a) + SoftFloat.from_real(b)
        assert float(soft) == a + b
