"""The verbatim Algorithm 2 (paper.rsum_paper) against both the scalar
summation state (paper.state) and the engine's ladder that
``repro.reproducible_sum`` runs."""

import numpy as np
import pytest

from paper.rsum_paper import ScalarRsumPaper
from paper.state import SummationState
from repro.core import reproducible_sum
from repro.core.params import RsumParams
from repro.fp.ieee import same_bits


class TestScalarRsumPaper:
    """The verbatim Algorithm 2 (running-sum extraction)."""

    def test_empty(self):
        ref = ScalarRsumPaper(RsumParams.double(2))
        assert float(ref.result()) == 0.0

    def test_simple_sums(self):
        ref = ScalarRsumPaper(RsumParams.double(2))
        ref.add_many([1.0, 2.0, 3.25])
        assert float(ref.result()) == 6.25

    def test_agrees_with_production_on_random_data(self, rng):
        values = rng.exponential(size=2_000)
        params = RsumParams.double(2)
        paper = ScalarRsumPaper(params)
        paper.add_many(values)
        state = SummationState(params)
        state.add_array(values)
        assert same_bits(paper.result(), state.finalize())

    def test_agrees_on_wide_range(self, rng):
        exponents = rng.uniform(-20, 20, size=800)
        values = rng.choice([-1.0, 1.0], 800) * np.exp2(exponents)
        params = RsumParams.double(3)
        paper = ScalarRsumPaper(params)
        paper.add_many(values)
        state = SummationState(params)
        state.add_array(values)
        assert same_bits(paper.result(), state.finalize())

    def test_demotion_path(self):
        params = RsumParams.double(2)
        paper = ScalarRsumPaper(params)
        paper.add_many([1.0, 2.0**100, 1.0])
        state = SummationState(params)
        state.add_array(np.array([1.0, 2.0**100, 1.0]))
        assert same_bits(paper.result(), state.finalize())

    def test_tie_values_still_sum_correctly(self):
        """Tie-valued inputs (exactly half a level-ulp) are the case
        where running-sum extraction consults accumulated low bits; the
        final sum must still be correct either way.  The ablation bench
        explores the state-split divergence in detail."""
        params = RsumParams.double(2)
        paper = ScalarRsumPaper(params)
        state = SummationState(params)
        # Level-0 ulp after seeing 1.0 is 2**(e0 - 52); half of it is a
        # tie for extraction.
        state.add(1.0)
        half_ulp = float(np.ldexp(1.0, state.e0 - 53))
        values = [1.0, half_ulp, half_ulp, -half_ulp]
        paper.add_many(values)
        fresh = SummationState(params)
        fresh.add_array(np.array(values))
        assert float(paper.result()) == float(fresh.finalize()) == sum(values)

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("dtype", ["double", "float"])
    def test_agrees_with_engine_ladder(self, rng, dtype, levels):
        exponents = rng.uniform(-12, 12, size=600)
        values = (rng.choice([-1.0, 1.0], 600) * np.exp2(exponents)).astype(
            np.float32 if dtype == "float" else np.float64)
        values = np.concatenate([values, [0.0, -0.0, 2.0**40]])
        paper = ScalarRsumPaper(RsumParams.for_dtype(values.dtype, levels))
        paper.add_many(values)
        assert same_bits(paper.result(),
                         reproducible_sum(values, dtype, levels))

    def test_non_grid_alignment_still_sums(self):
        ref = ScalarRsumPaper(RsumParams.double(2), grid_aligned=False)
        ref.add_many([3.0, 4.0, 5.0])
        assert float(ref.result()) == 12.0
