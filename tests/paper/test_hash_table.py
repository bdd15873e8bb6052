"""Tests for the open-addressing hash table."""

import numpy as np
import pytest

from paper.operators.hash_table import FIB_MULTIPLIER, HashTable, dense_group_ids


class TestScalarInterface:
    def test_insert_and_lookup(self):
        table = HashTable()
        assert table.get_or_insert(42) == 0
        assert table.get_or_insert(7) == 1
        assert table.get_or_insert(42) == 0
        assert table.lookup(7) == 1
        assert table.lookup(999) is None

    def test_first_arrival_order(self):
        table = HashTable()
        for key in (5, 3, 9, 3, 5, 1):
            table.get_or_insert(key)
        assert table.keys_in_order().tolist() == [5, 3, 9, 1]

    def test_growth_preserves_gids(self):
        table = HashTable(capacity_hint=4)
        keys = list(range(100))
        gids = [table.get_or_insert(k) for k in keys]
        assert gids == list(range(100))
        for k in keys:
            assert table.lookup(k) == k
        assert table.capacity >= 200

    def test_len(self):
        table = HashTable()
        for k in (1, 2, 2, 3):
            table.get_or_insert(k)
        assert len(table) == 3

    def test_identity_collisions_resolved(self):
        # Keys colliding mod capacity must chain via linear probing.
        table = HashTable(capacity_hint=8)
        cap = table.capacity
        keys = [cap * i + 3 for i in range(5)]
        gids = [table.get_or_insert(k) for k in keys]
        assert gids == list(range(5))
        for key, gid in zip(keys, gids):
            assert table.lookup(key) == gid

    def test_multiplicative_hashing(self):
        table = HashTable(hashing="multiplicative")
        for key in (2**40, 2**41, 17):
            table.get_or_insert(key)
        assert len(table) == 3
        assert table.lookup(17) == 2

    def test_unknown_hashing_rejected(self):
        with pytest.raises(ValueError):
            HashTable(hashing="md5")


class TestBatchInterface:
    def test_probe_batch_matches_scalar(self, rng):
        keys = rng.integers(0, 200, size=5000)
        batch_table = HashTable()
        batch_gids = batch_table.probe_batch(keys.astype(np.uint64))
        scalar_table = HashTable()
        scalar_gids = [scalar_table.get_or_insert(int(k)) for k in keys]
        assert batch_gids.tolist() == scalar_gids

    def test_repeated_batches(self, rng):
        keys1 = rng.integers(0, 64, size=1000).astype(np.uint64)
        keys2 = rng.integers(32, 128, size=1000).astype(np.uint64)
        table = HashTable()
        g1 = table.probe_batch(keys1)
        g2 = table.probe_batch(keys2)
        # Keys seen in batch 1 keep their gid in batch 2.
        seen = {int(k): int(g) for k, g in zip(keys1, g1)}
        for k, g in zip(keys2, g2):
            if int(k) in seen:
                assert seen[int(k)] == int(g)

    def test_distinct_heavy_batch(self, rng):
        keys = rng.permutation(3000).astype(np.uint64)
        table = HashTable()
        gids = table.probe_batch(keys)
        assert sorted(gids.tolist()) == list(range(3000))

    def test_multiplicative_batch(self, rng):
        keys = rng.integers(0, 500, size=2000).astype(np.uint64)
        table = HashTable(hashing="multiplicative")
        gids = table.probe_batch(keys)
        ref = HashTable(hashing="multiplicative")
        assert gids.tolist() == [ref.get_or_insert(int(k)) for k in keys]


class TestDenseGroupIds:
    def test_inverse_property(self, rng):
        keys = rng.integers(0, 77, size=4000).astype(np.uint32)
        gids, distinct = dense_group_ids(keys)
        assert np.array_equal(distinct[gids], keys.astype(np.uint64))

    def test_gids_dense(self, rng):
        keys = rng.integers(0, 50, size=1000).astype(np.uint32)
        gids, distinct = dense_group_ids(keys)
        assert gids.max() == len(distinct) - 1
        assert set(gids.tolist()) == set(range(len(distinct)))

    def test_fib_multiplier_value(self):
        # 2**64 / golden ratio, the standard constant.
        assert int(FIB_MULTIPLIER) == 11400714819323198485
