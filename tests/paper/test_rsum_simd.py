"""Tests for the V-lane RSUM SIMD (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.params import RsumParams
from paper.rsum_simd import SimdRsum, default_vector_width
from repro.core.state import SummationState
from repro.fp.ieee import same_bits


class TestConstruction:
    def test_default_lanes_match_avx(self):
        assert default_vector_width(RsumParams.double(2)) == 4
        assert default_vector_width(RsumParams.single(2)) == 8

    def test_invalid_lane_count(self):
        with pytest.raises(ValueError):
            SimdRsum(RsumParams.double(2), v=0)

    def test_nb_bound_enforced(self):
        params = RsumParams.double(2)  # NB_max = 2**11
        SimdRsum(params, nb=params.nb_max)
        with pytest.raises(ValueError):
            SimdRsum(params, nb=params.nb_max + 1)

    def test_from_state_loads_lane_one(self):
        state = SummationState(RsumParams.double(2))
        state.add(7.0)
        simd = SimdRsum.from_state(state)
        assert float(simd.result()) == 7.0


class TestEquivalence:
    def test_matches_scalar_state(self, exp_values):
        params = RsumParams.double(2)
        simd = SimdRsum(params)
        simd.add_chunk(exp_values)
        scalar = SummationState(params)
        scalar.add_array(exp_values)
        assert simd.horizontal_state().state_tuple() == scalar.state_tuple()

    def test_lane_count_invariance(self, exp_values):
        params = RsumParams.double(2)
        reference = None
        for v in (1, 2, 4, 8, 16):
            simd = SimdRsum(params, v=v)
            simd.add_chunk(exp_values[:3000])
            tup = simd.horizontal_state().state_tuple()
            if reference is None:
                reference = tup
            assert tup == reference

    def test_chunking_invariance(self, exp_values):
        params = RsumParams.double(2)
        whole = SimdRsum(params)
        whole.add_chunk(exp_values)
        chunked = SimdRsum(params)
        for chunk in np.array_split(exp_values, 29):
            chunked.add_chunk(chunk)
        assert (
            whole.horizontal_state().state_tuple()
            == chunked.horizontal_state().state_tuple()
        )

    def test_nb_invariance(self, exp_values):
        params = RsumParams.double(2)
        reference = None
        for nb in (1, 8, 128, params.nb_max):
            simd = SimdRsum(params, nb=nb)
            simd.add_chunk(exp_values[:2000])
            tup = simd.horizontal_state().state_tuple()
            if reference is None:
                reference = tup
            assert tup == reference

    def test_float32(self, rng):
        values = rng.exponential(size=500).astype(np.float32)
        params = RsumParams.single(2)
        simd = SimdRsum(params)
        simd.add_chunk(values)
        scalar = SummationState(params)
        scalar.add_array(values)
        assert same_bits(simd.result(), scalar.finalize())

    def test_large_values_trigger_shared_demotion(self):
        params = RsumParams.double(2)
        values = np.array([1.0, 2.0, 2.0**90, 3.0, 4.0])
        simd = SimdRsum(params, v=2)
        simd.add_chunk(values)
        scalar = SummationState(params)
        scalar.add_array(values)
        assert same_bits(simd.result(), scalar.finalize())

    def test_nonfinite_values(self):
        params = RsumParams.double(2)
        simd = SimdRsum(params)
        simd.add_chunk(np.array([1.0, np.inf, 2.0]))
        assert simd.result() == np.inf


class TestHorizontalSummation:
    """Equations 2-3: exact lane collapse."""

    def test_horizontal_equals_lane_merge(self, exp_values):
        params = RsumParams.double(2)
        simd = SimdRsum(params, v=4)
        simd.add_chunk(exp_values[:1000])
        merged = simd.horizontal_state()
        manual = SummationState(params)
        for lane in simd._lanes:
            manual.merge(lane)
        assert merged.state_tuple() == manual.state_tuple()

    def test_empty_chunk(self):
        simd = SimdRsum(RsumParams.double(2))
        simd.add_chunk(np.array([]))
        assert float(simd.result()) == 0.0
