"""Tests for RsumParams (paper Table I)."""

import pytest

from repro.core.params import (
    DEFAULT_LEVELS,
    DEFAULT_W,
    RsumParams,
    default_w,
    max_block_size,
)
from repro.fp.formats import BINARY32, BINARY64, TOY_M4


class TestParams:
    def test_paper_default_w(self):
        # "Good choices are 18 and 40 for single and double precision."
        assert default_w(BINARY32) == 18
        assert default_w(BINARY64) == 40
        assert DEFAULT_W["binary64"] == 40

    def test_w_bounded_by_m_minus_2(self):
        with pytest.raises(ValueError):
            RsumParams(BINARY64, 2, w=51)
        RsumParams(BINARY64, 2, w=50)  # ok
        with pytest.raises(ValueError):
            RsumParams(BINARY32, 2, w=22)

    def test_w_positive(self):
        with pytest.raises(ValueError):
            RsumParams(BINARY64, 2, w=0)

    def test_levels_positive(self):
        with pytest.raises(ValueError):
            RsumParams(BINARY64, 0)

    def test_default_levels(self):
        assert DEFAULT_LEVELS == 2
        assert RsumParams.double().levels == 2

    def test_nb_max(self):
        # NB <= 2**(m - W - 1): binary64/W=40 -> 2**11; binary32/W=18 -> 16.
        assert RsumParams.double().nb_max == 2**11
        assert RsumParams.single().nb_max == 2**4
        assert max_block_size(BINARY64, 40) == 2048

    def test_toy_format_default_w(self):
        assert 1 <= default_w(TOY_M4) <= TOY_M4.mantissa_bits - 2

    def test_for_dtype(self):
        import numpy as np

        assert RsumParams.for_dtype(np.float32).fmt is BINARY32
