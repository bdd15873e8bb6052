"""Tests for the vectorised multi-group RSUM kernel."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.state import SummationState
from repro.aggregation import grouped as grouped_mod
from repro.aggregation.grouped import (
    _EMPTY_E0,
    GroupedSummation,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.errors import LadderOverflowError
from repro.fp.formats import BINARY32, BINARY64
from repro.fp.ieee import same_bits


def params():
    return RsumParams.double(2)


class TestAgainstScalarStates:
    def test_matches_per_group_states(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        grouped = GroupedSummation.from_pairs(params(), gids, values, 50)
        for g in range(50):
            reference = SummationState(params())
            reference.add_array(values[gids == g])
            assert grouped.state_tuples()[g] == reference.state_tuple(), g

    def test_finalize_matches_scalar(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        grouped = GroupedSummation.from_pairs(params(), gids, values, 50)
        sums = grouped.finalize()
        for g in range(50):
            reference = SummationState(params())
            reference.add_array(values[gids == g])
            assert same_bits(sums[g], reference.finalize())

    def test_wide_magnitudes_per_group(self, rng):
        gids = rng.integers(0, 8, size=1000)
        exponents = rng.uniform(-30, 30, size=1000)
        values = rng.choice([-1.0, 1.0], 1000) * np.exp2(exponents)
        grouped = GroupedSummation.from_pairs(params(), gids, values, 8)
        for g in range(8):
            reference = SummationState(params())
            reference.add_array(values[gids == g])
            assert grouped.state_tuples()[g] == reference.state_tuple()

    def test_float32(self, rng):
        p = RsumParams.single(2)
        gids = rng.integers(0, 10, size=800)
        values = rng.exponential(size=800).astype(np.float32)
        grouped = GroupedSummation.from_pairs(p, gids, values, 10)
        for g in range(0, 10, 3):
            reference = SummationState(p)
            reference.add_array(values[gids == g])
            assert same_bits(grouped.finalize()[g], reference.finalize())


class TestBatchingAndOrder:
    def test_chunked_add_pairs(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        whole = GroupedSummation.from_pairs(params(), gids, values, 50)
        chunked = GroupedSummation(params(), 50)
        for lo in range(0, len(gids), 173):
            chunked.add_pairs(gids[lo : lo + 173], values[lo : lo + 173])
        assert whole.state_tuples() == chunked.state_tuples()

    def test_permutation_invariance(self, small_pairs, rng):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        base = GroupedSummation.from_pairs(params(), gids, values, 50)
        order = rng.permutation(len(gids))
        shuffled = GroupedSummation.from_pairs(params(), gids[order], values[order], 50)
        assert base.state_tuples() == shuffled.state_tuples()

    def test_empty_groups(self):
        grouped = GroupedSummation.from_pairs(
            params(), np.array([3]), np.array([1.5]), 8
        )
        sums = grouped.finalize()
        assert sums[3] == 1.5
        assert all(sums[g] == 0.0 for g in range(8) if g != 3)

    def test_zero_only_group(self):
        grouped = GroupedSummation.from_pairs(
            params(), np.array([0, 0, 1]), np.array([0.0, -0.0, 2.0]), 2
        )
        assert grouped.finalize().tolist() == [0.0, 2.0]

    def test_empty_input(self):
        grouped = GroupedSummation.from_pairs(
            params(), np.array([], dtype=np.int64), np.array([]), 4
        )
        assert grouped.finalize().tolist() == [0.0] * 4

    def test_int64_headroom_at_the_widest_w(self):
        # W = 50: each row adds a level-0 quantum of ~2**49, so 2**15 rows
        # of one group wrap an int64 sum unless the reference's blocks
        # are cut at 2**(62 - W) rows
        p = RsumParams(BINARY64, w=50)
        n, value = 1 << 15, 1.9 * 2.0**46
        gids, values = np.zeros(n, dtype=np.int64), np.full(n, value)
        reference = GroupedSummation.from_pairs(p, gids, values, 1)
        blocked = GroupedSummation(p, 1)
        add_blocked_multi([blocked], gids, [values])
        assert reference.state_tuples() == blocked.state_tuples()
        assert (reference.finalize().tobytes()
                == blocked.finalize().tobytes())
        integers, exponents, _ = reference.exact()
        assert (integers[0] * Fraction(2) ** int(exponents[0])
                == n * Fraction(value))
        exact = math.fsum(values)
        # Equation 6 on the grid-aligned ladder at L = 2, plus the
        # final rounding
        bound = n * 2.0 ** -p.w * value + abs(exact) * 2.0**-53
        assert abs(float(reference.finalize()[0]) - exact) <= bound


class TestSpecials:
    def test_per_group_specials(self):
        gids = np.array([0, 0, 1, 2, 2, 3])
        values = np.array([1.0, np.nan, np.inf, np.inf, -np.inf, 5.0])
        grouped = GroupedSummation.from_pairs(params(), gids, values, 4)
        sums = grouped.finalize()
        assert math.isnan(sums[0])
        assert sums[1] == math.inf
        assert math.isnan(sums[2])
        assert sums[3] == 5.0

    def test_overflow_raises(self):
        with pytest.raises(LadderOverflowError):
            GroupedSummation.from_pairs(
                params(), np.array([0]), np.array([1e308]), 1
            )


class TestMerge:
    def test_identity_merge(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        whole = GroupedSummation.from_pairs(params(), gids, values, 50)
        left = GroupedSummation.from_pairs(params(), gids[:1000], values[:1000], 50)
        right = GroupedSummation.from_pairs(params(), gids[1000:], values[1000:], 50)
        left.merge(right)
        assert left.state_tuples() == whole.state_tuples()

    def test_mapped_merge(self, rng):
        # Other table's group g maps to self group perm[g].
        gids = rng.integers(0, 20, size=500)
        values = rng.exponential(size=500)
        perm = rng.permutation(20)
        big = GroupedSummation(params(), 40)
        small = GroupedSummation.from_pairs(params(), gids, values, 20)
        big.merge(small, mapping=perm.astype(np.int64))
        for g in range(20):
            reference = SummationState(params())
            reference.add_array(values[gids == g])
            assert big.state_tuples()[int(perm[g])] == reference.state_tuple()

    def test_merge_with_ladder_mismatch(self, rng):
        a_vals = rng.uniform(0, 1, size=100)
        b_vals = rng.uniform(0, 1, size=100) * 2.0**90
        gids = np.zeros(100, dtype=np.int64)
        a = GroupedSummation.from_pairs(params(), gids, a_vals, 1)
        b = GroupedSummation.from_pairs(params(), gids, b_vals, 1)
        a.merge(b)
        reference = SummationState(params())
        reference.add_array(np.concatenate([a_vals, b_vals]))
        assert a.state_tuples()[0] == reference.state_tuple()

    @pytest.mark.parametrize("target, mapping", (
        (4, [1, 1]),
        (6, [5, 0, 5]),  # more target groups than sources
    ))
    def test_non_injective_mapping_rejected(self, target, mapping):
        a = GroupedSummation(params(), target)
        b = GroupedSummation(params(), len(mapping))
        with pytest.raises(ValueError, match="injective"):
            a.merge(b, mapping=np.array(mapping))

    def test_mismatched_params_rejected(self):
        a = GroupedSummation(RsumParams.double(2), 2)
        b = GroupedSummation(RsumParams.double(3), 2)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_specials(self):
        a = GroupedSummation.from_pairs(
            params(), np.array([0]), np.array([np.inf]), 2
        )
        b = GroupedSummation.from_pairs(
            params(), np.array([0]), np.array([-np.inf]), 2
        )
        a.merge(b)
        assert math.isnan(a.finalize()[0])


def _level_sum(grouped, g):
    """Group ``g``'s ladder value, level by level, in ``Fraction``s."""
    m, w = grouped._m, grouped._w
    return sum(
        (Fraction(int(s[g])) + Fraction(int(c[g])) * 2 ** (m - 2))
        * Fraction(2) ** (int(grouped.e0[g]) - level * w - m)
        for level, (s, c) in enumerate(zip(grouped.s, grouped.c))
    )


class TestExact:
    """``exact()`` is the unrounded ladder value the second moment
    combines: ``integers * 2**exponents``, level by level."""

    def test_holds_inputs_within_the_band_exactly(self, rng):
        grouped = GroupedSummation(RsumParams.double(4), 3)
        gids = rng.integers(0, 2, size=3000)
        values = 1e9 + rng.normal(size=3000)
        grouped.add_pairs(gids, values)
        integers, exponents, nonfinite = grouped.exact()
        for g in range(2):
            exact = sum(map(Fraction, values[gids == g].tolist()))
            assert integers[g] * Fraction(2) ** int(exponents[g]) == exact
            assert _level_sum(grouped, g) == exact
        assert integers[2] == 0 and exponents[2] == 0
        assert not nonfinite.any()

    def test_carries_past_int64_room_fold_in_python_ints(self):
        grouped = GroupedSummation.from_pairs(
            RsumParams.double(4), np.array([0, 1]), np.array([3.0, -5.0]), 2
        )
        for c in grouped.c:
            c[:] = [1 << 40, -(1 << 40)]
        integers, exponents, _ = grouped.exact()
        for g in range(2):
            assert (integers[g] * Fraction(2) ** int(exponents[g])
                    == _level_sum(grouped, g))

    def test_marks_groups_that_saw_non_finite_values(self):
        grouped = GroupedSummation.from_pairs(
            params(), np.arange(4), np.array([1.0, np.nan, np.inf, -np.inf]),
            4,
        )
        assert grouped.exact()[2].tolist() == [False, True, True, True]


class TestValidation:
    def test_gid_out_of_range(self):
        grouped = GroupedSummation(params(), 2)
        with pytest.raises(IndexError):
            grouped.add_pairs(np.array([5]), np.array([1.0]))

    def test_shape_mismatch(self):
        grouped = GroupedSummation(params(), 2)
        with pytest.raises(ValueError):
            grouped.add_pairs(np.array([0, 1]), np.array([1.0]))


class TestGroupedResize:
    def test_resize_preserves_states(self, small_pairs):
        keys, values = small_pairs
        gids = keys.astype(np.int64)
        grouped = GroupedSummation.from_pairs(params(), gids, values, 50)
        before = grouped.state_tuples()
        grouped.resize(80)
        assert grouped.state_tuples()[:50] == before
        assert grouped.finalize()[50:].tolist() == [0.0] * 30

    def test_shrink_rejected(self):
        grouped = GroupedSummation(params(), 10)
        with pytest.raises(ValueError):
            grouped.resize(5)

    def test_a_table_that_fits_its_first_power_of_two_never_regrows(self):
        grouped = GroupedSummation(params(), 0)
        grouped.resize(28_000)
        spare = grouped._spare
        grouped.resize(32_768)
        assert grouped._spare is spare
        assert all(arr.base is spare for arr in (grouped.e0, *grouped.s))


def _whole_table_add_pairs(table, gids, vals):
    """The reference update as it ran over every group of the table per
    chunk: a max over all groups, a copied ``e0``, and demotion and
    carry propagation of every group."""
    w, levels = table._w, table._L
    for start in range(0, gids.size, table.block_rows):
        g = gids[start:start + table.block_rows]
        v = vals[start:start + table.block_rows]
        keep = table._count_non_finite(g, v) & (v != 0)
        g, v = g[keep], v[keep]
        if not g.size:
            continue
        groupmax = np.zeros(table.ngroups, dtype=table._dtype)
        np.maximum.at(groupmax, g, np.abs(v))
        touched = groupmax > 0
        target = table.e0.copy()
        target[touched] = np.maximum(
            target[touched], table._needed_e0(groupmax[touched]))
        valid = table.e0 > _EMPTY_E0
        fresh = ~valid & (target > _EMPTY_E0)
        moving = valid & (target > table.e0)
        shifts = np.zeros(table.ngroups, dtype=np.int64)
        shifts[moving] = np.minimum(
            (target[moving] - table.e0[moving]) // w, levels)
        for sig in range(1, levels + 1):
            mask = shifts == sig
            for level in range(levels - 1, -1, -1):
                src = level - sig
                table.s[level][mask] = table.s[src][mask] if src >= 0 else 0
                table.c[level][mask] = table.c[src][mask] if src >= 0 else 0
        table.e0[fresh | moving] = target[fresh | moving]
        for level, k in table._elementwise_quanta(g, v):
            np.add.at(table.s[level], g, k)
        for level in range(levels):
            d = table.s[level] >> (table._m - 2)
            table.s[level] -= d << (table._m - 2)
            table.c[level] += d


@st.composite
def _chunks(draw):
    """Several chunks into one table: magnitudes over wide binades (so
    ladders mix and demote), NaN, ±inf and ±0 sprinkled, few rows
    against many groups or many against few."""
    fmt = draw(st.sampled_from((BINARY64, BINARY32)))
    rsum = RsumParams(fmt, levels=draw(st.integers(1, 4)))
    ngroups = draw(st.sampled_from((1, 7, 300, 5000)))
    chunks = []
    for _ in range(draw(st.integers(1, 5))):
        rows = draw(st.sampled_from((1, 2, 40, 900)))
        chunks.append((rows, draw(st.integers(0, 2**32 - 1))))
    return rsum, ngroups, chunks, draw(st.sampled_from((0, 8, 1 << 30)))


class TestReferenceCostsItsRows:
    """The reference update moves only the groups a chunk touches."""

    @settings(max_examples=120, deadline=None)
    @given(case=_chunks())
    def test_state_equals_the_whole_table_update(self, case):
        rsum, ngroups, chunks, dense = case
        dtype = rsum.fmt.dtype
        got, expected = (GroupedSummation(rsum, ngroups) for _ in range(2))
        for rows, seed in chunks:
            rng = np.random.default_rng(seed)
            gids = rng.integers(0, ngroups, rows)
            with np.errstate(over="ignore", under="ignore"):
                vals = (rng.choice([-1.0, 1.0], rows) * np.ldexp(
                    rng.uniform(1, 2, rows), rng.integers(-60, 60, rows))
                        ).astype(dtype)
            special = rng.random(rows) < 0.1
            vals[special] = rng.choice(
                [np.nan, np.inf, -np.inf, 0.0, -0.0], int(special.sum()))
            # both ways of finding the touched groups
            with mock.patch.object(grouped_mod, "_DENSE_GROUPS_PER_ROW",
                                   dense):
                got.add_pairs(gids, vals)
            _whole_table_add_pairs(expected, gids, vals)
            assert got.state_tuples() == expected.state_tuples()
        assert got.finalize().tobytes() == expected.finalize().tobytes()

    def test_two_rows_allocate_nothing_per_group(self):
        ngroups = 1 << 18
        grouped = GroupedSummation(params(), ngroups)
        grouped.add_pairs(np.arange(ngroups), np.linspace(1.0, 2.0, ngroups))
        gids, vals = np.array([3, 7]), np.array([0.5, 1e-3])
        tracemalloc.start()
        try:
            grouped.add_pairs(gids, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10  # one group's float64 max alone is 2 MiB
