"""Tests for the workload generators and the PageRank experiment."""

import numpy as np
import pytest

from paper.pagerank import pagerank, rank_swaps, synthetic_web_graph
from paper.workloads import (
    AggregationWorkload,
    algorithm1_values,
    chunked,
    permuted,
    thread_chunks,
)
from repro.workloads import cancellation, make_pairs, uniform12, wide_exponent


class TestDistributions:
    def test_uniform12_range(self, rng):
        values = uniform12(10_000, rng)
        assert values.min() >= 1.0 and values.max() < 2.0

    def test_wide_exponent_spans_binades(self, rng):
        values = wide_exponent(10_000, rng)
        ratio = np.abs(values).max() / np.abs(values).min()
        assert ratio > 2.0**40

    def test_wide_exponent_mixed_signs(self, rng):
        values = wide_exponent(1_000, rng)
        assert (values > 0).any() and (values < 0).any()

    def test_cancellation_tiny_true_sum(self, rng):
        import math

        values = cancellation(10_000, rng)
        assert abs(math.fsum(values)) < 1.0
        assert np.abs(values).max() > 1e8

    def test_algorithm1_values(self):
        values = algorithm1_values()
        assert values[1] == 0.999999999999999
        assert len(values) == 3


class TestGenerators:
    def test_make_pairs_shapes_and_ranges(self):
        keys, values = make_pairs(1000, 16, seed=1)
        assert keys.dtype == np.uint32
        assert keys.max() < 16
        assert len(values) == 1000

    def test_make_pairs_deterministic(self):
        a = make_pairs(100, 8, seed=5)
        b = make_pairs(100, 8, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_permuted_is_same_multiset(self):
        keys, values = make_pairs(500, 8)
        pk, pv = permuted(keys, values, seed=3)
        assert sorted(pv.tolist()) == sorted(values.tolist())
        assert not np.array_equal(pv, values)

    def test_chunked_covers_input(self):
        values = np.arange(10)
        chunks = chunked(values, 3)
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert np.concatenate(chunks).tolist() == list(range(10))

    def test_thread_chunks(self):
        keys, values = make_pairs(100, 4)
        parts = thread_chunks(keys, values, 3)
        assert sum(len(k) for k, _ in parts) == 100

    def test_workload_realised_groups(self):
        workload = AggregationWorkload(10_000, 16)
        assert workload.realised_groups == 16
        sparse = AggregationWorkload(16, 10_000)
        assert sparse.realised_groups <= 16


class TestPageRank:
    @pytest.fixture(scope="class")
    def graph(self):
        return synthetic_web_graph(400, out_degree=6, seed=0)

    def test_graph_shape(self, graph):
        src, dst = graph
        assert len(src) == len(dst)
        assert src.max() < 400 and dst.max() < 400

    def test_pagerank_is_distribution(self, graph):
        src, dst = graph
        ranks = pagerank(src, dst, 400, iterations=15)
        assert ranks.min() > 0
        assert ranks.sum() == pytest.approx(1.0, abs=0.05)

    def test_reproducible_pagerank_permutation_invariant(self, graph, rng):
        src, dst = graph
        base = pagerank(src, dst, 400, iterations=10, reproducible=True)
        order = rng.permutation(len(src))
        again = pagerank(src[order], dst[order], 400, iterations=10,
                         reproducible=True)
        assert np.array_equal(base.view(np.uint64), again.view(np.uint64))

    def test_conventional_pagerank_differs_bitwise(self, graph, rng):
        src, dst = graph
        base = pagerank(src, dst, 400, iterations=10, reproducible=False)
        diffs = 0
        for seed in range(4):
            order = np.random.default_rng(seed).permutation(len(src))
            again = pagerank(src[order], dst[order], 400, iterations=10,
                             reproducible=False)
            if not np.array_equal(base.view(np.uint64), again.view(np.uint64)):
                diffs += 1
        assert diffs > 0

    def test_rank_swaps_metric(self):
        a = np.array([0.5, 0.3, 0.2])
        assert rank_swaps(a, a) == 0
        b = np.array([0.3, 0.5, 0.2])
        assert rank_swaps(a, b) == 2
