"""Tests executing the paper's Figure 2 worked example, literally."""

from fractions import Fraction

import pytest

from paper.toy_rsum import ToyRsum, figure2_trace
from repro.fp.formats import BINARY16, TOY_M4


class TestFigure2:
    """m = 4, W = 2, f = 4, two levels; b = 1.3125, 9, 4.25 -> 14."""

    @pytest.fixture(scope="class")
    def trace(self):
        return figure2_trace()

    def test_initial_extractors(self, trace):
        # S(1) = 1.5 * 2**4 = 11000_2, S(2) = 1.5 * 2**2 = 110.0_2.
        assert trace["trace"][0][1] == [Fraction(24), Fraction(6)]

    def test_first_value_extraction(self, trace):
        # Figure: S(1) -> 11001_2 = 25, S(2) -> 110.01_2 = 6.25.
        assert trace["after_b1"] == [Fraction(25), Fraction(25, 4)]

    def test_demotion_on_b2(self, trace):
        # "The second-level sum is discarded, the first-level sum is
        # moved to the second level, and a new extractor is set":
        # S(1) = 1100000_2 = 96, S(2) = old S(1).
        demotes = [lv for what, lv in trace["trace"] if what == "demote"]
        assert demotes == [[Fraction(96), Fraction(25)]]

    def test_second_value_extraction(self, trace):
        # Figure: S(1) = 1101000_2 = 104, S(2) = 11010_2 = 26.
        assert trace["after_b2"] == [Fraction(104), Fraction(26)]

    def test_third_value_extraction(self, trace):
        # Figure: S(1) = 1101100_2 = 108 (q = 100.01 rounded in), S(2)
        # unchanged at 26.
        assert trace["after_b3"] == [Fraction(108), Fraction(26)]

    def test_final_result_is_14(self, trace):
        # Q(1) = 108 - 96 = 1100_2, Q(2) = 26 - 24 = 10_2; sum 1110_2.
        assert trace["result"] == Fraction(14)

    def test_carry_counters_stay_zero(self, trace):
        # "C(l) variables are never shown in this example because their
        # value is always zero."
        assert trace["carries"] == [0, 0]

    def test_text_threshold_gives_extra_demotion(self):
        """The text's 2**(W-1) threshold demotes b2 = 9 twice, landing
        at a coarser ladder and result 12 — the figure's single
        demotion needs the 2**W threshold (see module docstring)."""
        rsum = ToyRsum(TOY_M4, w=2, levels=2, first_exponent=4,
                       demote_threshold_shift=1)
        rsum.add_many([1.3125, 9, 4.25])
        assert rsum.result() == Fraction(12)


class TestToyRsumGeneric:
    def test_reproducibility_on_toy_format(self):
        values = [1.3125, 9, 4.25, -2.5, 0.5, 7.0]
        results = set()
        import itertools

        for perm in itertools.permutations(values):
            rsum = ToyRsum(TOY_M4, w=2, levels=2, first_exponent=8)
            rsum.add_many(perm)
            results.add(rsum.result())
        assert len(results) == 1

    def test_zero_values_skipped(self):
        rsum = ToyRsum()
        rsum.add(0)
        assert rsum.result() == 0
        rsum.add(2.5)
        rsum.add(0)
        assert rsum.result() == Fraction(5, 2)

    def test_half_precision_format(self):
        # Section III-B's binary16 example values: with W = 8 the two
        # levels span enough bits for the sum to be exact (28.859375).
        rsum = ToyRsum(BINARY16, w=8, levels=2)
        rsum.add_many([26.046875, 2.8125])
        assert rsum.result() == Fraction("28.859375")

    def test_carry_propagation_on_drift(self):
        # A deliberately coarse single-level ladder (ulp = 4): each 3.0
        # rounds up to one ulp, so eight adds give 32, forcing carries.
        rsum = ToyRsum(TOY_M4, w=2, levels=1, first_exponent=6)
        for _ in range(8):
            rsum.add(3.0)
        assert rsum.result() == Fraction(32)
        assert rsum.C == [2]

    def test_w_validation(self):
        with pytest.raises(ValueError):
            ToyRsum(TOY_M4, w=3)  # m - 2 = 2
