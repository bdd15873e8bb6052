"""Tests for the vectorised multi-group RSUM kernel."""

import math

import numpy as np
import pytest

from paper.state import SummationState
from repro.aggregation.grouped import GroupedSummation
from repro.core.params import RsumParams
from repro.errors import LadderOverflowError
from repro.fp.ieee import same_bits


def params():
    return RsumParams.double(2)


class TestAgainstScalarStates:
    def test_matches_per_group_states(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        grouped = GroupedSummation.from_pairs(params(), gids, values, 50)
        for g in range(50):
            reference = SummationState(params())
            reference.add_array(values[gids == g])
            assert grouped.state_tuples()[g] == reference.state_tuple(), g

    def test_finalize_matches_scalar(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        grouped = GroupedSummation.from_pairs(params(), gids, values, 50)
        sums = grouped.finalize()
        for g in range(50):
            reference = SummationState(params())
            reference.add_array(values[gids == g])
            assert same_bits(sums[g], reference.finalize())

    def test_wide_magnitudes_per_group(self, rng):
        gids = rng.integers(0, 8, size=1000)
        exponents = rng.uniform(-30, 30, size=1000)
        values = rng.choice([-1.0, 1.0], 1000) * np.exp2(exponents)
        grouped = GroupedSummation.from_pairs(params(), gids, values, 8)
        for g in range(8):
            reference = SummationState(params())
            reference.add_array(values[gids == g])
            assert grouped.state_tuples()[g] == reference.state_tuple()

    def test_float32(self, rng):
        p = RsumParams.single(2)
        gids = rng.integers(0, 10, size=800)
        values = rng.exponential(size=800).astype(np.float32)
        grouped = GroupedSummation.from_pairs(p, gids, values, 10)
        for g in range(0, 10, 3):
            reference = SummationState(p)
            reference.add_array(values[gids == g])
            assert same_bits(grouped.finalize()[g], reference.finalize())


class TestBatchingAndOrder:
    def test_chunked_add_pairs(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        whole = GroupedSummation.from_pairs(params(), gids, values, 50)
        chunked = GroupedSummation(params(), 50)
        for lo in range(0, len(gids), 173):
            chunked.add_pairs(gids[lo : lo + 173], values[lo : lo + 173])
        assert whole.state_tuples() == chunked.state_tuples()

    def test_permutation_invariance(self, small_pairs, rng):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        base = GroupedSummation.from_pairs(params(), gids, values, 50)
        order = rng.permutation(len(gids))
        shuffled = GroupedSummation.from_pairs(params(), gids[order], values[order], 50)
        assert base.state_tuples() == shuffled.state_tuples()

    def test_empty_groups(self):
        grouped = GroupedSummation.from_pairs(
            params(), np.array([3]), np.array([1.5]), 8
        )
        sums = grouped.finalize()
        assert sums[3] == 1.5
        assert all(sums[g] == 0.0 for g in range(8) if g != 3)

    def test_zero_only_group(self):
        grouped = GroupedSummation.from_pairs(
            params(), np.array([0, 0, 1]), np.array([0.0, -0.0, 2.0]), 2
        )
        assert grouped.finalize().tolist() == [0.0, 2.0]

    def test_empty_input(self):
        grouped = GroupedSummation.from_pairs(
            params(), np.array([], dtype=np.int64), np.array([]), 4
        )
        assert grouped.finalize().tolist() == [0.0] * 4


class TestSpecials:
    def test_per_group_specials(self):
        gids = np.array([0, 0, 1, 2, 2, 3])
        values = np.array([1.0, np.nan, np.inf, np.inf, -np.inf, 5.0])
        grouped = GroupedSummation.from_pairs(params(), gids, values, 4)
        sums = grouped.finalize()
        assert math.isnan(sums[0])
        assert sums[1] == math.inf
        assert math.isnan(sums[2])
        assert sums[3] == 5.0

    def test_overflow_raises(self):
        with pytest.raises(LadderOverflowError):
            GroupedSummation.from_pairs(
                params(), np.array([0]), np.array([1e308]), 1
            )


class TestMerge:
    def test_identity_merge(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        whole = GroupedSummation.from_pairs(params(), gids, values, 50)
        left = GroupedSummation.from_pairs(params(), gids[:1000], values[:1000], 50)
        right = GroupedSummation.from_pairs(params(), gids[1000:], values[1000:], 50)
        left.merge(right)
        assert left.state_tuples() == whole.state_tuples()

    def test_mapped_merge(self, rng):
        # Other table's group g maps to self group perm[g].
        gids = rng.integers(0, 20, size=500)
        values = rng.exponential(size=500)
        perm = rng.permutation(20)
        big = GroupedSummation(params(), 40)
        small = GroupedSummation.from_pairs(params(), gids, values, 20)
        big.merge(small, mapping=perm.astype(np.int64))
        for g in range(20):
            reference = SummationState(params())
            reference.add_array(values[gids == g])
            assert big.state_tuples()[int(perm[g])] == reference.state_tuple()

    def test_merge_with_ladder_mismatch(self, rng):
        a_vals = rng.uniform(0, 1, size=100)
        b_vals = rng.uniform(0, 1, size=100) * 2.0**90
        gids = np.zeros(100, dtype=np.int64)
        a = GroupedSummation.from_pairs(params(), gids, a_vals, 1)
        b = GroupedSummation.from_pairs(params(), gids, b_vals, 1)
        a.merge(b)
        reference = SummationState(params())
        reference.add_array(np.concatenate([a_vals, b_vals]))
        assert a.state_tuples()[0] == reference.state_tuple()

    def test_non_injective_mapping_rejected(self):
        a = GroupedSummation(params(), 4)
        b = GroupedSummation(params(), 2)
        with pytest.raises(ValueError):
            a.merge(b, mapping=np.array([1, 1]))

    def test_mismatched_params_rejected(self):
        a = GroupedSummation(RsumParams.double(2), 2)
        b = GroupedSummation(RsumParams.double(3), 2)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_specials(self):
        a = GroupedSummation.from_pairs(
            params(), np.array([0]), np.array([np.inf]), 2
        )
        b = GroupedSummation.from_pairs(
            params(), np.array([0]), np.array([-np.inf]), 2
        )
        a.merge(b)
        assert math.isnan(a.finalize()[0])


class TestValidation:
    def test_gid_out_of_range(self):
        grouped = GroupedSummation(params(), 2)
        with pytest.raises(IndexError):
            grouped.add_pairs(np.array([5]), np.array([1.0]))

    def test_shape_mismatch(self):
        grouped = GroupedSummation(params(), 2)
        with pytest.raises(ValueError):
            grouped.add_pairs(np.array([0, 1]), np.array([1.0]))


class TestGroupedResize:
    def test_resize_preserves_states(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        grouped = GroupedSummation.from_pairs(params(), gids, values, 50)
        before = grouped.state_tuples()
        grouped.resize(80)
        assert grouped.state_tuples()[:50] == before
        assert grouped.finalize()[50:].tolist() == [0.0] * 30

    def test_shrink_rejected(self):
        grouped = GroupedSummation(params(), 10)
        with pytest.raises(ValueError):
            grouped.resize(5)
