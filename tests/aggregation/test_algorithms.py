"""Tests for the aggregation operator zoo (hash / partition / sort / shared)."""

import math

import numpy as np
import pytest

from repro.aggregation import (
    BufferedReproSpec,
    ConventionalFloatSpec,
    DecimalSpec,
    ReproSpec,
    hash_aggregate,
    parallel_partition,
    partition_and_aggregate,
    partition_ids,
    radix_partition,
    recursive_partition,
    shared_aggregate,
    sort_aggregate,
)
from repro.fp.decimal_fixed import DECIMAL18
from paper.analysis.exact import max_group_error


def oracle(keys, values):
    groups = {}
    for k, v in zip(keys.tolist(), values.tolist()):
        groups.setdefault(int(k), []).append(v)
    return groups


class TestHashAggregate:
    def test_correctness_vs_fsum(self, small_pairs):
        keys, values = small_pairs
        result = hash_aggregate(keys, values, ReproSpec("double", 2))
        assert max_group_error(result.as_dict(), oracle(keys, values)) < 1e-9

    def test_engines_agree(self, small_pairs):
        keys, values = small_pairs
        spec = ReproSpec("double", 2)
        a = hash_aggregate(keys, values, spec, engine="numpy")
        b = hash_aggregate(keys, values, spec, engine="hash")
        assert a.bit_equal(b)

    def test_elementwise_matches_vectorised(self, small_pairs):
        keys, values = small_pairs
        keys, values = keys[:500], values[:500]
        for spec in (ReproSpec("double", 2), BufferedReproSpec("double", 2, 16),
                     ConventionalFloatSpec()):
            fast = hash_aggregate(keys, values, spec)
            slow = hash_aggregate(keys, values, spec, elementwise=True)
            assert fast.bit_equal(slow), spec.name

    def test_group_count(self, small_pairs):
        keys, values = small_pairs
        result = hash_aggregate(keys, values, ConventionalFloatSpec())
        assert len(result) == len(np.unique(keys))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            hash_aggregate(np.array([1, 2]), np.array([1.0]), ReproSpec())

    def test_decimal_exact(self, rng):
        keys = rng.integers(0, 10, size=500).astype(np.uint32)
        cents = rng.integers(-10**6, 10**6, size=500)
        result = hash_aggregate(keys, cents, DecimalSpec(DECIMAL18))
        expect = {}
        for k, c in zip(keys.tolist(), cents.tolist()):
            expect[k] = expect.get(k, 0) + c
        for key, total in result.as_dict().items():
            assert total == pytest.approx(expect[key] / 100.0)


class TestPartitioning:
    def test_partition_ids_depend_on_key_only(self, rng):
        keys = rng.integers(0, 1000, size=100).astype(np.uint32)
        pids = partition_ids(keys, 16)
        again = partition_ids(keys.copy(), 16)
        assert np.array_equal(pids, again)
        assert pids.max() < 16

    def test_partition_level_selects_digit(self):
        keys = np.array([0x1234], dtype=np.uint32)
        assert partition_ids(keys, 256, level=0)[0] == 0x34
        assert partition_ids(keys, 256, level=1)[0] == 0x12

    def test_fanout_validation(self):
        with pytest.raises(ValueError):
            partition_ids(np.array([1]), 100)

    def test_radix_partition_preserves_content_and_order(self, rng):
        keys = rng.integers(0, 64, size=2000).astype(np.uint32)
        values = rng.exponential(size=2000)
        parts = radix_partition(keys, values, 16)
        assert sum(len(pk) for pk, _ in parts) == 2000
        # Stability: within a partition, original order is preserved.
        pids = partition_ids(keys, 16)
        for p, (pk, pv) in enumerate(parts):
            mask = pids == p
            assert np.array_equal(pk, keys[mask])
            assert np.array_equal(pv, values[mask])

    def test_recursive_partition_key_disjointness(self, rng):
        keys = rng.integers(0, 10_000, size=5000).astype(np.uint32)
        values = rng.exponential(size=5000)
        parts = recursive_partition(keys, values, depth=2, fanout=16)
        assert len(parts) == 256
        seen = {}
        for p, (pk, _) in enumerate(parts):
            for key in np.unique(pk).tolist():
                assert seen.setdefault(key, p) == p

    def test_depth_zero_is_noop(self, small_pairs):
        keys, values = small_pairs
        (pk, pv), = recursive_partition(keys, values, depth=0)
        assert np.array_equal(pk, keys)

    def test_parallel_partition_thread_concatenation(self, rng):
        keys = rng.integers(0, 64, size=2048).astype(np.uint32)
        values = rng.exponential(size=2048)
        single = parallel_partition(keys, values, 1, 16, threads=1)
        multi = parallel_partition(keys, values, 1, 16, threads=4)
        for (sk, sv), (mk, mv) in zip(single, multi):
            # Same multiset per partition (order differs by design).
            assert sorted(sk.tolist()) == sorted(mk.tolist())
            assert np.isclose(sv.sum(), mv.sum())


class TestPartitionAndAggregate:
    def test_matches_hash_agg_bits(self, small_pairs):
        keys, values = small_pairs
        spec = ReproSpec("double", 2)
        reference = hash_aggregate(keys, values, spec).sorted_by_key()
        for depth in (0, 1, 2):
            for threads in (1, 3):
                result = partition_and_aggregate(
                    keys, values, spec, depth=depth, fanout=16, threads=threads
                ).sorted_by_key()
                assert result.bit_equal(reference), (depth, threads)

    def test_buffered_matches_unbuffered_bits(self, small_pairs):
        keys, values = small_pairs
        reference = partition_and_aggregate(
            keys, values, ReproSpec("double", 2), depth=1, fanout=16
        ).sorted_by_key()
        for bsz in (4, 64, 999):
            result = partition_and_aggregate(
                keys, values, BufferedReproSpec("double", 2, bsz),
                depth=1, fanout=16,
            ).sorted_by_key()
            assert result.bit_equal(reference), bsz

    def test_auto_depth(self, small_pairs):
        keys, values = small_pairs
        result = partition_and_aggregate(keys, values, ReproSpec("double", 2))
        assert len(result) == len(np.unique(keys))

    def test_conventional_float_is_order_sensitive_somewhere(self, rng):
        # Thread-count changes the merge order for conventional floats:
        # with adversarial values the bits differ.
        n = 4000
        keys = rng.integers(0, 4, size=n).astype(np.uint32)
        big = rng.uniform(1e15, 1e16, size=n // 2)
        values = np.empty(n)
        values[0::2] = big
        values[1::2] = -big + rng.uniform(0, 1, size=n // 2)
        spec = ConventionalFloatSpec()
        one = partition_and_aggregate(keys, values, spec, depth=0, threads=1)
        four = partition_and_aggregate(keys, values, spec, depth=0, threads=4)
        assert not one.sorted_by_key().bit_equal(four.sorted_by_key())

    def test_repro_thread_invariance_adversarial(self, rng):
        n = 4000
        keys = rng.integers(0, 4, size=n).astype(np.uint32)
        big = rng.uniform(1e15, 1e16, size=n // 2)
        values = np.empty(n)
        values[0::2] = big
        values[1::2] = -big + rng.uniform(0, 1, size=n // 2)
        spec = ReproSpec("double", 2)
        results = [
            partition_and_aggregate(
                keys, values, spec, depth=d, fanout=16, threads=t
            ).sorted_by_key()
            for d, t in ((0, 1), (0, 4), (1, 2), (2, 5))
        ]
        for other in results[1:]:
            assert results[0].bit_equal(other)


class TestSortAggregate:
    def test_total_order_reproducible_with_floats(self, small_pairs, rng):
        keys, values = small_pairs
        base = sort_aggregate(keys, values)
        order = rng.permutation(len(keys))
        shuffled = sort_aggregate(keys[order], values[order])
        assert base.bit_equal(shuffled)

    def test_key_only_sort_is_not_permutation_safe(self, rng):
        n = 2000
        keys = rng.integers(0, 3, size=n).astype(np.uint32)
        big = rng.uniform(1e15, 1e16, size=n)
        values = big * rng.choice([-1.0, 1.0], size=n)
        base = sort_aggregate(keys, values, total_order=False)
        order = rng.permutation(n)
        shuffled = sort_aggregate(keys[order], values[order], total_order=False)
        assert not base.bit_equal(shuffled)

    def test_correctness(self, small_pairs):
        keys, values = small_pairs
        result = sort_aggregate(keys, values)
        assert max_group_error(result.as_dict(), oracle(keys, values)) < 1e-8

    def test_empty_input(self):
        result = sort_aggregate(np.array([], dtype=np.uint32), np.array([]))
        assert len(result) == 0

    def test_with_repro_spec(self, small_pairs):
        keys, values = small_pairs
        a = sort_aggregate(keys, values, ReproSpec("double", 2)).sorted_by_key()
        b = hash_aggregate(keys, values, ReproSpec("double", 2)).sorted_by_key()
        assert a.bit_equal(b)


class TestSharedAggregate:
    def test_schedule_changes_conventional_bits(self, rng):
        n = 6000
        keys = rng.integers(0, 8, size=n).astype(np.uint32)
        big = rng.uniform(1e14, 1e15, size=n)
        values = big * rng.choice([-1.0, 1.0], size=n)
        spec = ConventionalFloatSpec()
        a = shared_aggregate(keys, values, spec, threads=4, seed=1)
        b = shared_aggregate(keys, values, spec, threads=4, seed=2)
        assert not a.sorted_by_key().bit_equal(b.sorted_by_key())

    def test_repro_schedule_invariance(self, rng):
        n = 6000
        keys = rng.integers(0, 8, size=n).astype(np.uint32)
        big = rng.uniform(1e14, 1e15, size=n)
        values = big * rng.choice([-1.0, 1.0], size=n)
        spec = ReproSpec("double", 2)
        results = [
            shared_aggregate(keys, values, spec, threads=t, seed=s).sorted_by_key()
            for t, s in ((2, 1), (4, 2), (8, 3))
        ]
        assert results[0].bit_equal(results[1])
        assert results[0].bit_equal(results[2])

    def test_round_robin_schedule(self, small_pairs):
        keys, values = small_pairs
        result = shared_aggregate(
            keys, values, ReproSpec("double", 2), threads=4, seed=None
        )
        reference = hash_aggregate(keys, values, ReproSpec("double", 2))
        assert result.sorted_by_key().bit_equal(reference.sorted_by_key())

    def test_validation(self, small_pairs):
        keys, values = small_pairs
        with pytest.raises(ValueError):
            shared_aggregate(keys, values, ReproSpec(), threads=0)
