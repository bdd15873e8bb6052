"""Tests for repro.core.rsum (the public API)."""

import math

import numpy as np
import pytest

from repro.core.params import RsumParams
from repro.core.rsum import (
    ReproducibleSummer,
    params_from_spec,
    reproducible_sum,
)
from repro.core.state import SummationState
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.ieee import float_to_bits, same_bits


class TestParamsFromSpec:
    def test_string_specs(self):
        assert params_from_spec("double").fmt is BINARY64
        assert params_from_spec("float").fmt is BINARY32
        assert params_from_spec("binary64").fmt is BINARY64

    def test_numpy_dtype(self):
        assert params_from_spec(np.float32).fmt is BINARY32
        assert params_from_spec(np.dtype(np.float64)).fmt is BINARY64

    def test_format_object(self):
        assert params_from_spec(BINARY32).fmt is BINARY32

    def test_levels_and_w(self):
        p = params_from_spec("double", levels=3, w=30)
        assert p.levels == 3 and p.w == 30


class TestReproducibleSum:
    def test_algorithm1_values(self):
        values = np.array([2.5e-16, 0.999999999999999, 2.5e-16])
        forward = reproducible_sum(values)
        backward = reproducible_sum(values[::-1])
        assert same_bits(forward, backward)

    def test_simple_exact(self):
        assert float(reproducible_sum([1.0, 2.0, 3.0])) == 6.0

    def test_empty(self):
        assert float(reproducible_sum([])) == 0.0

    def test_accuracy_beats_naive(self, rng):
        values = rng.exponential(size=50_000)
        exact = math.fsum(values)
        assert abs(float(reproducible_sum(values)) - exact) <= abs(
            float(np.sum(values)) - exact
        ) + abs(exact) * 2**-52

    def test_float32_output_type(self):
        result = reproducible_sum(np.ones(10, dtype=np.float32), dtype="float")
        assert isinstance(result, np.float32)

    def test_levels_increase_accuracy(self, wide_values):
        exact = math.fsum(wide_values)
        err = [
            abs(float(reproducible_sum(wide_values, levels=lv)) - exact)
            for lv in (1, 2, 3)
        ]
        assert err[2] <= err[1] + 1e-30
        assert err[1] <= err[0] + 1e-30


class TestReproducibleSummer:
    def test_streaming_equals_batch(self, exp_values):
        summer = ReproducibleSummer()
        for chunk in np.array_split(exp_values, 13):
            summer.add_array(chunk)
        assert same_bits(summer.result(), reproducible_sum(exp_values))

    def test_iadd_scalar_and_summer(self):
        a = ReproducibleSummer()
        a += 1.5
        a += 2.5
        b = ReproducibleSummer()
        b += 4.0
        b += a
        assert float(b.result()) == 8.0

    def test_merge_matches_single(self, exp_values):
        parts = np.array_split(exp_values, 4)
        summers = []
        for part in parts:
            s = ReproducibleSummer()
            s.add_array(part)
            summers.append(s)
        merged = summers[0]
        for s in summers[1:]:
            merged.merge(s)
        assert same_bits(merged.result(), reproducible_sum(exp_values))

    def test_explicit_params(self):
        p = RsumParams.double(3)
        summer = ReproducibleSummer(params=p)
        assert summer.params is p


class TestDoctest:
    def test_module_doctests(self):
        import doctest

        import repro.core.rsum as module

        failures, _ = doctest.testmod(module)
        assert failures == 0
