"""Property-based tests (hypothesis) for the paper's GROUP BY operators.

The GROUP BY counterpart of tests/core/test_properties.py: for any
small random workload, every operator over a reproducible spec returns
the same bits, and results always match a per-group scalar-RSUM oracle
exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.operators import (
    BufferedReproSpec,
    ReproSpec,
    hash_aggregate,
    partition_and_aggregate,
    shared_aggregate,
    sort_aggregate,
)
from paper.state import SummationState
from repro.core import RsumParams
from repro.fp.ieee import float_to_bits

values_strategy = st.lists(
    st.floats(min_value=-1e20, max_value=1e20,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=80,
)
keys_strategy = st.lists(st.integers(0, 7), min_size=1, max_size=80)


def make_workload(keys, values):
    n = min(len(keys), len(values))
    return (
        np.asarray(keys[:n], dtype=np.uint32),
        np.asarray(values[:n], dtype=np.float64),
    )


def oracle_bits(keys, values):
    """Per-group scalar RSUM, element at a time — the ground truth."""
    out = {}
    for key in np.unique(keys):
        oracle = SummationState(RsumParams.double(2))
        for v in values[keys == key]:
            oracle.add(v)
        out[int(key)] = float_to_bits(float(oracle.finalize()))
    return out


class TestStrategyEquivalence:
    @given(keys_strategy, values_strategy)
    @settings(max_examples=50, deadline=None)
    def test_hash_matches_oracle(self, keys, values):
        keys, values = make_workload(keys, values)
        result = hash_aggregate(keys, values, ReproSpec("double", 2))
        expected = oracle_bits(keys, values)
        for key, total in result.as_dict().items():
            assert float_to_bits(float(total)) == expected[key]

    @given(keys_strategy, values_strategy, st.integers(0, 2),
           st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_partition_depth_and_threads_irrelevant(self, keys, values,
                                                    depth, threads):
        keys, values = make_workload(keys, values)
        reference = hash_aggregate(
            keys, values, ReproSpec("double", 2)
        ).sorted_by_key()
        result = partition_and_aggregate(
            keys, values, ReproSpec("double", 2),
            depth=depth, fanout=4, threads=threads,
        ).sorted_by_key()
        assert reference.bit_equal(result)

    @given(keys_strategy, values_strategy, st.integers(1, 100))
    @settings(max_examples=50, deadline=None)
    def test_buffer_size_irrelevant(self, keys, values, bsz):
        keys, values = make_workload(keys, values)
        reference = hash_aggregate(keys, values, ReproSpec("double", 2))
        buffered = hash_aggregate(
            keys, values, BufferedReproSpec("double", 2, bsz)
        )
        assert reference.sorted_by_key().bit_equal(buffered.sorted_by_key())

    @given(keys_strategy, values_strategy, st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_schedule_irrelevant(self, keys, values, seed):
        keys, values = make_workload(keys, values)
        reference = hash_aggregate(keys, values, ReproSpec("double", 2))
        shared = shared_aggregate(
            keys, values, ReproSpec("double", 2),
            threads=3, seed=seed, batch_size=5,
        )
        assert reference.sorted_by_key().bit_equal(shared.sorted_by_key())

    @given(keys_strategy, values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_sort_agg_matches(self, keys, values):
        keys, values = make_workload(keys, values)
        reference = hash_aggregate(keys, values, ReproSpec("double", 2))
        sorted_result = sort_aggregate(keys, values, ReproSpec("double", 2))
        assert reference.sorted_by_key().bit_equal(
            sorted_result.sorted_by_key()
        )


class TestPermutationInvariance:
    @given(keys_strategy, values_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_joint_permutation(self, keys, values, rnd):
        keys, values = make_workload(keys, values)
        indices = list(range(len(keys)))
        rnd.shuffle(indices)
        indices = np.asarray(indices)
        reference = hash_aggregate(keys, values, ReproSpec("double", 2))
        permuted = hash_aggregate(
            keys[indices], values[indices], ReproSpec("double", 2)
        )
        assert reference.sorted_by_key().bit_equal(permuted.sorted_by_key())

    @given(keys_strategy, values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_group_independence(self, keys, values):
        """Adding values to one group never disturbs another's bits."""
        keys, values = make_workload(keys, values)
        before = hash_aggregate(keys, values, ReproSpec("double", 2))
        keys2 = np.concatenate([keys, np.asarray([99], dtype=np.uint32)])
        values2 = np.concatenate([values, [123.456]])
        after = hash_aggregate(keys2, values2, ReproSpec("double", 2))
        before_dict = {k: float_to_bits(float(v))
                       for k, v in before.as_dict().items()}
        after_dict = {k: float_to_bits(float(v))
                      for k, v in after.as_dict().items()}
        for key, bits in before_dict.items():
            assert after_dict[key] == bits
