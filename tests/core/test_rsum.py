"""Tests for repro.core.rsum (the public API), held against the scalar
Algorithm 2 state of ``benchmarks/paper/state.py``."""

import math

import numpy as np
import pytest

import repro
import repro.core
from paper.state import SummationState
from repro.core.params import RsumParams
from repro.core.rsum import (
    ReproducibleSummer,
    params_from_spec,
    reproducible_sum,
)
from repro.errors import DataError, LadderOverflowError
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.ieee import same_bits


def oracle(values, params=None):
    state = SummationState(params or RsumParams.double(2))
    state.add_array(np.asarray(values))
    return state.finalize()


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
        assert same_bits(summer.result(), oracle(exp_values))

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
        assert same_bits(merged.result(), oracle(exp_values))

    def test_explicit_params(self):
        p = RsumParams.double(3)
        summer = ReproducibleSummer(params=p)
        assert summer.params is p


class TestAgainstScalarState:
    """The library sum runs the engine's ladder; the scalar Algorithm 2
    state is the independent oracle."""

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    def test_bits_and_state(self, wide_values, dtype, levels):
        params = params_from_spec(dtype, levels)
        values = wide_values.astype(params.fmt.dtype)
        summer = ReproducibleSummer(params=params)
        summer.add_array(values)
        state = SummationState(params)
        state.add_array(values)
        assert summer.table.state_tuples() == [state.state_tuple()]
        assert same_bits(reproducible_sum(values, dtype, levels),
                         state.finalize())

    def test_specials(self):
        values = np.array([1.0, np.inf, 5e-324, -0.0, np.nan, 2.5e-16])
        for cut in range(values.size + 1):
            assert same_bits(reproducible_sum(values[:cut]),
                             oracle(values[:cut]))

    def test_overflow_is_typed(self):
        with pytest.raises(LadderOverflowError) as err:
            reproducible_sum([1.0, 2.0**1000])
        assert isinstance(err.value, DataError)
        assert isinstance(err.value, OverflowError)


class TestRetiredNames:
    @pytest.mark.parametrize("name, successor", [
        ("SummationState", "paper.state"),
        ("ReproFloat", "paper.repro_type"),
        ("BufferedReproFloat", "paper.buffer"),
        ("optimal_buffer_size", "paper.tuning"),
        ("choose_partition_depth", "paper.tuning"),
        ("split_against_anchor", "paper.eft"),
        ("two_sum", "paper.eft"),
        ("state", "paper.state"),
        ("LadderOverflowError", "repro.errors"),
    ])
    def test_core_name_names_its_successor(self, name, successor):
        with pytest.raises(ImportError, match=successor):
            getattr(repro.core, name)

    @pytest.mark.parametrize("name", [
        "ReproFloat", "BufferedReproFloat", "SummationState",
        "optimal_buffer_size", "choose_partition_depth",
    ])
    def test_package_name_names_its_successor(self, name):
        assert name not in repro.__all__
        with pytest.raises(ImportError, match=f"repro.{name} moved: .*paper"):
            getattr(repro, name)

    def test_unknown_name_is_still_an_attribute_error(self):
        with pytest.raises(AttributeError):
            repro.core.no_such_name


class TestDoctest:
    def test_module_doctests(self):
        import doctest

        import repro.core.rsum as module

        failures, _ = doctest.testmod(module)
        assert failures == 0
