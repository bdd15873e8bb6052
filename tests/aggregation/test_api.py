"""Tests for the group_sum facade and GroupByResult."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from paper.state import SummationState
from repro.aggregation import GroupByResult, group_sum
from repro.aggregation.api import RETIRED
from repro.core import RsumParams


class TestGroupByResult:
    def test_sorted_by_key(self):
        result = GroupByResult(np.array([3, 1, 2]), np.array([0.3, 0.1, 0.2]))
        ordered = result.sorted_by_key()
        assert ordered.keys.tolist() == [1, 2, 3]
        assert ordered.sums.tolist() == [0.1, 0.2, 0.3]

    def test_bits_distinguish(self):
        a = GroupByResult(np.array([1]), np.array([0.1 + 0.2]))
        b = GroupByResult(np.array([1]), np.array([0.3]))
        assert not a.bit_equal(b)

    def test_bit_equal_requires_same_keys(self):
        a = GroupByResult(np.array([1]), np.array([1.0]))
        b = GroupByResult(np.array([2]), np.array([1.0]))
        assert not a.bit_equal(b)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            GroupByResult(np.array([1, 2]), np.array([1.0]))

    def test_as_dict(self):
        result = GroupByResult(np.array([5, 6]), np.array([1.5, 2.5]))
        assert result.as_dict() == {5: 1.5, 6: 2.5}

    def test_as_dict_keeps_float_and_string_keys(self):
        floats = GroupByResult(np.array([0.5, 0.7]), np.array([1.0, 2.0]))
        assert floats.as_dict() == {0.5: 1.0, 0.7: 2.0}
        strings = GroupByResult(np.array(["a", "b"]), np.array([1.0, 2.0]))
        assert strings.as_dict() == {"a": 1.0, "b": 2.0}

    def test_integer_bits(self):
        result = GroupByResult(np.array([1]), np.array([42]))
        assert result.bits() == [42]

    def test_narrow_float_bits(self):
        a = GroupByResult([1], np.array([1.5], dtype=np.float16))
        b = GroupByResult([1], np.array([1.25], dtype=np.float16))
        assert a.bits() == [0x3E00]
        assert not a.bit_equal(b)

    def test_nan_keys_are_bit_equal(self):
        a = GroupByResult(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
        b = GroupByResult(np.array([np.nan, 1.0]), np.array([2.0, 1.0]))
        assert a.bit_equal(b)


class TestGroupSumFacade:
    def test_top_level_reexport(self, small_pairs):
        keys, values = small_pairs
        assert repro.group_sum is group_sum
        assert repro.group_sum(keys, values).bit_equal(group_sum(keys, values))

    def test_five_parameters(self):
        named = [name for name, p in inspect.signature(group_sum).parameters.items()
                 if p.kind is not p.VAR_KEYWORD]
        assert named == ["keys", "values", "reproducible", "dtype", "levels"]

    def test_output_sorted_by_default(self, small_pairs):
        keys, values = small_pairs
        result = group_sum(keys, values)
        assert np.all(np.diff(result.keys.astype(np.int64)) > 0)

    def test_reproducible_flag(self, rng):
        n = 3000
        keys = rng.integers(0, 5, size=n).astype(np.uint32)
        big = rng.uniform(1e15, 1e16, size=n)
        values = big * rng.choice([-1.0, 1.0], size=n)
        perm = rng.permutation(n)
        r1 = group_sum(keys, values)
        r2 = group_sum(keys[perm], values[perm])
        assert r1.bit_equal(r2)
        c1 = group_sum(keys, values, reproducible=False)
        c2 = group_sum(keys[perm], values[perm], reproducible=False)
        assert not c1.bit_equal(c2)

    def test_ieee_adds_in_row_order(self):
        keys = np.array([7, 7, 7, 7])
        values = np.array([1.0, 1e16, 1.0, -1e16])
        result = group_sum(keys, values, reproducible=False)
        assert result.sums.tolist() == [((1.0 + 1e16) + 1.0) - 1e16]
        assert group_sum(keys, values).sums.tolist() == [2.0]

    def test_float_dtype(self, rng):
        keys = rng.integers(0, 10, size=500).astype(np.uint32)
        values = rng.exponential(size=500).astype(np.float32)
        result = group_sum(keys, values, dtype="float")
        assert result.sums.dtype == np.float32
        ieee = group_sum(keys, values, reproducible=False, dtype="float")
        assert ieee.sums.dtype == np.float32

    def test_float_keys_collapse_nan_and_signed_zero(self):
        payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(
            np.float64)[0]
        keys = np.array([np.nan, -0.0, 0.0, payload_nan, np.inf, -np.inf])
        result = group_sum(keys, np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0]))
        assert result.keys.view(np.uint64).tolist() == np.array(
            [-np.inf, 0.0, np.inf, np.nan]).view(np.uint64).tolist()
        assert result.sums.tolist() == [32.0, 6.0, 16.0, 9.0]

    def test_levels_change_bits_on_hard_input(self, wide_values, rng):
        keys = rng.integers(0, 4, size=len(wide_values)).astype(np.uint32)
        l2 = group_sum(keys, wide_values, levels=2)
        l4 = group_sum(keys, wide_values, levels=4)
        # Higher accuracy levels may legitimately differ in bits...
        # but each must be self-consistent across permutations.
        perm = rng.permutation(len(keys))
        assert l2.bit_equal(group_sum(keys[perm], wide_values[perm], levels=2))
        assert l4.bit_equal(group_sum(keys[perm], wide_values[perm], levels=4))

    @given(st.lists(st.tuples(st.integers(0, 7),
                              st.floats(-1e20, 1e20, allow_nan=False)),
                    min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_rsum_oracle(self, pairs):
        keys = np.array([k for k, _ in pairs], dtype=np.uint32)
        values = np.array([v for _, v in pairs])
        result = group_sum(keys, values)
        for key, total in result.as_dict().items():
            oracle = SummationState(RsumParams.double(2))
            for v in values[keys == key]:
                oracle.add(v)
            assert repro.same_bits(total, oracle.finalize())


class TestRetiredNames:
    @pytest.mark.parametrize("name", sorted(RETIRED))
    def test_retired_parameter_names_its_successor(self, small_pairs, name):
        keys, values = small_pairs
        with pytest.raises(TypeError, match=f"no longer takes '{name}'") as err:
            group_sum(keys, values, **{name: None})
        assert ("paper.operators" in str(err.value)
                or name in ("decimal", "sort_output"))

    def test_retired_parameter_list(self):
        assert sorted(RETIRED) == sorted(
            ["method", "buffered", "buffer_size", "depth", "fanout", "threads",
             "hashing", "engine", "seed", "spec", "decimal", "sort_output"])

    def test_unknown_keyword_is_a_plain_type_error(self, small_pairs):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            group_sum(*small_pairs, levles=3)

    def test_retired_names_point_to_group_sum(self):
        with pytest.raises(ImportError, match="retired: repro.group_sum"):
            from repro.aggregation import StreamingGroupSum  # noqa: F401
        with pytest.raises(ImportError, match="retired: repro.group_sum"):
            from repro.aggregation import spec_from_options  # noqa: F401

    @pytest.mark.parametrize("name", ["ReproSpec", "hash_aggregate",
                                      "partition_and_aggregate", "HashTable"])
    def test_moved_operators_name_their_home(self, name):
        import repro.aggregation

        with pytest.raises(ImportError, match="paper.operators"):
            getattr(repro.aggregation, name)

    def test_unknown_attribute_is_an_attribute_error(self):
        import repro.aggregation

        assert not hasattr(repro.aggregation, "no_such_name")


class TestInputValidation:
    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="same length"):
            group_sum([1, 2, 3], [0.5, 0.25])

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError, match="at least one"):
            group_sum([], [])

    def test_non_1d_inputs_raise(self):
        with pytest.raises(ValueError, match="1-D"):
            group_sum(np.ones((2, 2)), np.ones((2, 2)))

    def test_scalar_inputs_raise(self):
        with pytest.raises(ValueError, match="1-D"):
            group_sum(1, 2.0)
