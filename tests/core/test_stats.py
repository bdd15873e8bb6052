"""Tests for reproducible statistics (stats.py)."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    reproducible_dot,
    reproducible_mean,
    reproducible_std,
    reproducible_variance,
    two_product,
    two_product_array,
)

# TwoProduct's exactness requires no under/overflow in the product or
# its error term (Dekker's classical precondition): keep magnitudes
# well inside the safe band.
moderate = st.floats(min_value=-1e12, max_value=1e12,
                     allow_nan=False, allow_infinity=False).filter(
    lambda x: x == 0 or abs(x) > 1e-12
)


class TestTwoProduct:
    @given(moderate, moderate)
    @settings(max_examples=200, deadline=None)
    def test_exactness(self, a, b):
        p, e = two_product(a, b)
        assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)

    def test_classic_case(self):
        p, e = two_product(1.0 + 2.0**-30, 1.0 + 2.0**-30)
        assert Fraction(p) + Fraction(e) == Fraction(1.0 + 2.0**-30) ** 2
        assert e != 0.0  # the square is not representable

    def test_array_matches_scalar(self, rng):
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        p, e = two_product_array(a, b)
        for i in range(200):
            ps, es = two_product(a[i], b[i])
            assert p[i] == ps and e[i] == es


class TestReproducibleDot:
    def test_permutation_invariance(self, rng):
        x = rng.normal(size=3000) * np.exp2(rng.uniform(-10, 10, 3000))
        y = rng.normal(size=3000)
        base = reproducible_dot(x, y)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(3000)
            assert reproducible_dot(x[order], y[order]) == base

    def test_accuracy_beats_npdot_on_cancellation(self):
        x = np.array([1e8, 1.0, -1e8, 1e-8])
        y = np.array([1e8, 1.0, 1e8, 1.0])
        exact = float(
            sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))
        )
        ours = reproducible_dot(x, y, levels=3)
        assert abs(ours - exact) <= abs(float(np.dot(x, y)) - exact)

    def test_small_exact(self):
        assert reproducible_dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reproducible_dot([1.0], [1.0, 2.0])

    def test_matches_fsum_of_exact_products(self, rng):
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        exact = sum(
            (Fraction(a) * Fraction(b) for a, b in zip(x, y)), Fraction(0)
        )
        assert abs(reproducible_dot(x, y, levels=3) - float(exact)) < 1e-12


class TestMoments:
    def test_mean_permutation_invariant(self, exp_values, rng):
        base = reproducible_mean(exp_values)
        order = rng.permutation(len(exp_values))
        assert reproducible_mean(exp_values[order]) == base

    def test_mean_matches_numpy_closely(self, exp_values):
        assert reproducible_mean(exp_values) == pytest.approx(
            float(np.mean(exp_values)), rel=1e-12
        )

    def test_variance_permutation_invariant(self, exp_values, rng):
        base = reproducible_variance(exp_values, ddof=1)
        order = rng.permutation(len(exp_values))
        assert reproducible_variance(exp_values[order], ddof=1) == base

    def test_variance_matches_numpy(self, exp_values):
        assert reproducible_variance(exp_values) == pytest.approx(
            float(np.var(exp_values)), rel=1e-9
        )
        assert reproducible_variance(exp_values, ddof=1) == pytest.approx(
            float(np.var(exp_values, ddof=1)), rel=1e-9
        )

    def test_variance_nonnegative_on_constant(self):
        values = np.full(100, 3.14159)
        assert reproducible_variance(values) >= 0.0

    def test_std(self, exp_values):
        assert reproducible_std(exp_values) == math.sqrt(
            reproducible_variance(exp_values)
        )

    def test_variance_is_the_correctly_rounded_exact_value(self, rng):
        values = 1e9 + rng.normal(size=5000)
        rows = [Fraction(v) for v in values.tolist()]
        n, total = len(rows), sum(rows)
        exact = (n * sum(f * f for f in rows) - total * total) / (n * (n - 1))
        assert reproducible_variance(values, ddof=1) == float(exact)

    @pytest.mark.parametrize("function", [reproducible_variance,
                                          reproducible_std])
    def test_levels_is_retired(self, function):
        with pytest.raises(TypeError, match="fixed depth of 4 levels"):
            function([1.0, 2.0], levels=3)
        with pytest.raises(TypeError, match="unexpected keyword"):
            function([1.0, 2.0], depth=3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reproducible_mean([])
        with pytest.raises(ValueError):
            reproducible_variance([1.0], ddof=1)

