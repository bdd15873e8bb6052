"""The compiled Equation 1 must round exactly as the NumPy passes did.

:meth:`GroupedSummation.finalize` is one C loop over the groups
(``ladder_finalize`` in ``_ladder.c``): per level from the bottom up,
``res + (s * 2**(e_l - m) + c * 2**(e_l - 2))``, each operation in the
table's format, with powers of two built from their bits inside the
normal range and ``ldexp`` outside it.  ``tests/reference_finalize.py``
keeps the vectorised form as the oracle; every case here holds the two
bit for bit — ladders whose bottom levels are subnormal or below the
format, exponents near and past the overflow edge, carry counters that
overflow a term, NaN / ±inf counters and empty groups.
"""

import numpy as np
import pytest

from reference_finalize import finalize as reference_finalize
from repro.aggregation.grouped import (
    _EMPTY_E0,
    GroupedSummation,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.fp.formats import BINARY16, BINARY32, BINARY64, TOY_M4

FORMATS = (BINARY64, BINARY32)
LEVELS = (1, 2, 3, 4)


def _bits(arr: np.ndarray) -> bytes:
    assert arr.dtype.kind == "f"
    return arr.tobytes()


def _assert_oracle(table: GroupedSummation) -> None:
    got, want = table.finalize(), reference_finalize(table)
    assert got.dtype == want.dtype == table._dtype
    assert got.shape == (table.ngroups,)
    bad = np.flatnonzero(got.view(f"u{got.itemsize}")
                         != want.view(f"u{want.itemsize}"))
    assert not bad.size, (bad[:5], got[bad[:5]], want[bad[:5]])


def _state(params, e0, rng, carries=1000, specials=0.0):
    """A table with ladders ``e0`` (one per group), canonical random
    level sums, carry counters up to ``carries`` in magnitude and a
    share ``specials`` of NaN / +inf / -inf counters each."""
    n = len(e0)
    table = GroupedSummation(params, n)
    table.e0[:] = e0
    for level in range(params.levels):
        table.s[level][:] = rng.integers(
            0, 1 << (params.fmt.mantissa_bits - 2), n)
        table.c[level][:] = rng.integers(-carries, carries + 1, n)
    for counter in (table.nan_cnt, table.pos_cnt, table.neg_cnt):
        counter[:] = rng.random(n) < specials
    return table


def _grid(params, lo, hi):
    """Every ladder exponent on the W grid in ``[lo, hi]``."""
    w = params.w
    return np.arange(-(-lo // w) * w, hi + 1, w, dtype=np.int64)


@pytest.mark.parametrize("levels", LEVELS)
@pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
class TestAgainstTheOracle:
    def test_random_ladders(self, fmt, levels, rng):
        params = RsumParams(fmt, levels)
        e0 = rng.integers(fmt.min_exponent - levels * params.w,
                          fmt.max_exponent + 2 * params.w, 4000)
        e0[rng.random(4000) < 0.1] = _EMPTY_E0
        _assert_oracle(_state(params, e0, rng, specials=0.05))

    def test_subnormal_and_absent_bottom_levels(self, fmt, levels, rng):
        # the lowest ladders of the format: bottom levels below emin
        # drop out, the terms that remain round into subnormals
        params = RsumParams(fmt, levels)
        grid = _grid(params, fmt.min_exponent - levels * params.w,
                     fmt.min_exponent + 2 * params.w)
        e0 = np.repeat(grid, 50)
        _assert_oracle(_state(params, e0, rng))

    def test_exponents_near_and_past_the_top(self, fmt, levels, rng):
        # terms near 2**emax, and past it: offsets and carries overflow
        # to inf, and inf - inf is NaN, as the NumPy passes made them
        params = RsumParams(fmt, levels)
        e0 = np.repeat(np.arange(fmt.max_exponent - 3, fmt.max_exponent
                                 + params.w + 4), 20).astype(np.int64)
        _assert_oracle(_state(params, e0, rng, carries=1 << 40))

    def test_huge_carry_counters(self, fmt, levels, rng):
        params = RsumParams(fmt, levels)
        e0 = _grid(params, 0, 4 * params.w)
        e0 = np.tile(e0, 100)
        _assert_oracle(_state(params, e0, rng, carries=1 << 62))

    def test_counters_and_empty_groups(self, fmt, levels, rng):
        params = RsumParams(fmt, levels)
        e0 = np.full(600, 2 * params.w, dtype=np.int64)
        e0[::3] = _EMPTY_E0
        table = _state(params, e0, rng, specials=0.3)
        _assert_oracle(table)
        out = table.finalize()
        nan = (table.nan_cnt > 0) | ((table.pos_cnt > 0)
                                     & (table.neg_cnt > 0))
        assert np.isnan(out[nan]).all()
        empty = ~nan & (table.e0 == _EMPTY_E0) & (table.pos_cnt == 0) \
            & (table.neg_cnt == 0)
        assert _bits(out[empty]) == _bits(np.zeros(empty.sum(), out.dtype))

    def test_sums_of_real_rows(self, fmt, levels, rng):
        # states the ladder built: tiny, huge and cancelling inputs
        params = RsumParams(fmt, levels)
        dtype = fmt.dtype
        table = GroupedSummation(params, 0)
        # the largest magnitudes the ladder range holds
        huge = 2.0 ** (table._emax_grid - fmt.mantissa_bits + params.w - 3)
        n, groups = 6000, 64
        gids = rng.integers(0, groups, n)
        scale = np.where(gids % 4 == 0,
                         np.finfo(dtype).smallest_subnormal * 1e3,
                         np.where(gids % 4 == 1, huge, 1.0))
        values = (rng.normal(size=n) * scale).astype(dtype)
        table = GroupedSummation(params, groups)
        add_blocked_multi([table], gids, [values])
        _assert_oracle(table)


def test_no_groups():
    for fmt in (BINARY64, BINARY32, BINARY16):
        table = GroupedSummation(RsumParams(fmt), 0)
        out = table.finalize()
        assert out.dtype == fmt.dtype and out.shape == (0,)


@pytest.mark.parametrize("fmt", (BINARY16, TOY_M4), ids=lambda f: f.name)
def test_formats_the_ladder_kernel_does_not_run(fmt, rng):
    # binary16 rounds every float result to half, as NumPy's float16
    # arithmetic does; a toy format computes in float64
    for levels in LEVELS:
        params = RsumParams(fmt, levels)
        e0 = rng.integers(fmt.min_exponent - levels * params.w,
                          fmt.max_exponent + 1, 3000)
        e0[rng.random(3000) < 0.1] = _EMPTY_E0
        _assert_oracle(_state(params, e0, rng, carries=200, specials=0.05))
