"""Tests for the Section V-C tuning rules (``benchmarks/paper/tuning.py``)."""

import pytest

from paper.tuning import (
    DEPTH_THRESHOLD_GROUPS,
    HASWELL_CACHE,
    CacheConfig,
    choose_partition_depth,
    optimal_buffer_size,
    working_set_bytes,
)


class TestEquation4:
    """bsz = min(ceil(|cache| / (ngroups/F * sizeof(T))), bsz_max)."""

    def test_small_groups_hit_cap(self):
        assert optimal_buffer_size(16, 4) == 1024
        assert optimal_buffer_size(16, 8) == 1024

    def test_large_groups_shrink_buffer(self):
        big = optimal_buffer_size(2**10, 4)
        bigger = optimal_buffer_size(2**14, 4)
        assert big > bigger >= 1

    def test_fanout_divides_groups(self):
        assert optimal_buffer_size(2**18, 4, fanout=256) == optimal_buffer_size(
            2**10, 4
        )

    def test_power_of_two(self):
        for ngroups in (3, 100, 5000, 2**20):
            bsz = optimal_buffer_size(ngroups, 8)
            assert bsz & (bsz - 1) == 0

    def test_working_set_fits_cache(self):
        cache = HASWELL_CACHE
        for ngroups in (2**8, 2**12, 2**16):
            bsz = optimal_buffer_size(ngroups, 4, cache=cache)
            if bsz < 1024:  # not capped
                assert working_set_bytes(ngroups, 4, bsz) <= cache.effective_bytes * 2

    def test_paper_cache_is_about_1mib(self):
        assert HASWELL_CACHE.effective_bytes == pytest.approx(2**20, rel=0.05)

    def test_invalid_groups(self):
        with pytest.raises(ValueError):
            optimal_buffer_size(0, 4)

    def test_custom_cache(self):
        tiny = CacheConfig(llc_bytes=2**16, cores=1, effective_fraction=1.0)
        assert optimal_buffer_size(2**10, 8, cache=tiny) <= 8


class TestDepthRule:
    def test_paper_thresholds(self):
        # Figure 9: d=0 below 2**10 groups, d=1 up to 2**18, d=2 beyond.
        assert choose_partition_depth(2**9) == 0
        assert choose_partition_depth(2**10) == 0
        assert choose_partition_depth(2**11) == 1
        assert choose_partition_depth(2**18) == 1
        assert choose_partition_depth(2**19) == 2

    def test_threshold_constant(self):
        assert DEPTH_THRESHOLD_GROUPS == 2**10

    def test_max_depth_cap(self):
        assert choose_partition_depth(2**40, max_depth=2) == 2

    def test_small_fanout(self):
        assert choose_partition_depth(2**12, fanout=16) == 1
        assert choose_partition_depth(2**16, fanout=16) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            choose_partition_depth(0)
