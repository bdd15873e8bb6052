"""Property-based tests (hypothesis) for the core invariants of the
library sum, which runs the engine's ladder (one ``GroupedSummation``
group fed by ``add_blocked_multi``).

These are the paper's claims as executable properties:

1. *Bit-reproducibility*: any permutation, chunking, lane count, or
   merge tree over the same multiset of inputs yields the same bits.
2. *Exactness of the state*: the summation state loses at most the
   grid-aligned bound (twice Equation 6, see ``analysis/errors.py``);
   for inputs within one W-window it is exact.
3. *EFT invariants*: q + r == b exactly; q is a multiple of the level
   ulp.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paper.analysis.errors import grid_aligned_error_bound
from paper.state import SummationState
from repro.core.params import RsumParams
from repro.core.rsum import ReproducibleSummer, reproducible_sum
from repro.fp.ieee import float_to_bits

# Keep magnitudes within the ladder range and avoid subnormal-horizon
# cases (covered deterministically in test_state).
reasonable = st.floats(
    min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False
).filter(lambda x: x == 0 or abs(x) > 1e-30)

value_lists = st.lists(reasonable, min_size=0, max_size=60)


def bits_of(values, levels=2):
    return float_to_bits(float(reproducible_sum(values, levels=levels)))


def summed(values) -> ReproducibleSummer:
    summer = ReproducibleSummer()
    summer.add_array(np.asarray(values, dtype=np.float64))
    return summer


def state_of(summer: ReproducibleSummer) -> tuple:
    return summer.table.state_tuples()[0]


class TestReproducibilityProperties:
    @given(value_lists, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert bits_of(values) == bits_of(shuffled)

    @given(value_lists, st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_chunking_invariance(self, values, nchunks):
        chunks = ReproducibleSummer()
        for chunk in np.array_split(np.asarray(values, dtype=np.float64),
                                    nchunks):
            chunks.add_array(chunk)
        assert state_of(chunks) == state_of(summed(values))

    @given(value_lists, st.integers(0, 59))
    @settings(max_examples=100, deadline=None)
    def test_merge_split_invariance(self, values, split_raw):
        assume(len(values) > 0)
        split = split_raw % len(values)
        left = summed(values[:split])
        left.merge(summed(values[split:]))
        assert state_of(left) == state_of(summed(values))

    @given(value_lists)
    @settings(max_examples=60, deadline=None)
    def test_scalar_vector_agreement(self, values):
        """The engine's ladder against the independent scalar
        Algorithm 2 state, one value at a time."""
        scalar = SummationState(RsumParams.double(2))
        for v in values:
            scalar.add(v)
        assert state_of(summed(values)) == scalar.state_tuple()

    @given(value_lists, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_levels_never_break_reproducibility(self, values, levels):
        forward = bits_of(values, levels)
        backward = bits_of(list(reversed(values)), levels)
        assert forward == backward


class TestAccuracyProperties:
    @given(value_lists)
    # bottom binade of its ladder class: errs by 1.2x Equation 6 as
    # coded, inside the grid-aligned bound the implementation meets
    @example([1.4913415096091814e-16])
    @settings(max_examples=100, deadline=None)
    def test_error_within_equation6_bound(self, values):
        assume(values)
        finite = [v for v in values if v != 0]
        assume(finite)
        result = float(reproducible_sum(values, levels=2))
        exact = sum((Fraction(v) for v in values), Fraction(0))
        error = abs(Fraction(result) - exact)
        bound = grid_aligned_error_bound(
            len(values), max(abs(v) for v in finite), 2)
        # Plus one final-rounding ulp of the result magnitude.
        slack = Fraction(max(abs(result), float(abs(exact)))) * Fraction(2) ** -50
        assert error <= Fraction(bound) + slack + Fraction(1, 10**300)

    @given(st.lists(st.integers(-(2**20), 2**20), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_grid_values_sum_exactly(self, ks):
        """Values that are multiples of 2**-20 with magnitude <= 2**20:
        every bit lies above the L=2 horizon of the W=40 grid, so the
        sum is exact (equal to fsum)."""
        values = [k * 2.0**-20 for k in ks]
        result = float(reproducible_sum(values, levels=2))
        assert result == math.fsum(values)

    @given(value_lists)
    @settings(max_examples=60, deadline=None)
    def test_sign_symmetry(self, values):
        plus = float(reproducible_sum(values))
        minus = float(reproducible_sum([-v for v in values]))
        assert plus == -minus or (plus == 0.0 and minus == 0.0)


class TestStateInvariants:
    @given(value_lists)
    @settings(max_examples=100, deadline=None)
    def test_canonical_window(self, values):
        summer = summed(values)
        bound = 2 ** (summer.params.fmt.mantissa_bits - 2)
        for level in range(summer.params.levels):
            assert 0 <= summer.table.s[level][0] < bound

    @given(value_lists)
    @settings(max_examples=60, deadline=None)
    def test_ladder_grid_alignment(self, values):
        e0 = state_of(summed(values))[0]
        if e0 is not None:
            assert e0 % RsumParams.double(2).w == 0

    @given(value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutes(self, left_values, right_values):
        a1 = summed(left_values)
        a1.merge(summed(right_values))
        b2 = summed(right_values)
        b2.merge(summed(left_values))
        assert state_of(a1) == state_of(b2)
