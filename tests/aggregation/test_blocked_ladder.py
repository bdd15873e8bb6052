"""The blocked ladder update must be invisible in the state bits.

:func:`add_blocked_multi` splits its input by row: rows whose group
sits on the table's prevailing ladder scatter-accumulate, the others
take the reference update as an index subset.  Which update a row
takes, and where the block boundaries fall, may change the counters —
never a bit of state.  The reference throughout is the per-table,
unbatched :meth:`GroupedSummation.add_pairs`.
"""

import warnings
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import grouped as grouped_mod
from repro.aggregation.grouped import (
    _EMPTY_E0,
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.engine.aggregates import PlainSum
from repro.errors import LadderOverflowError
from repro.fp.formats import BINARY16, BINARY32, BINARY64

P64 = RsumParams(BINARY64)
P64L3 = RsumParams(BINARY64, levels=3)
P32 = RsumParams(BINARY32)
#: W = 50 cuts blocks at 4 096 rows, cheap to step over
P50 = RsumParams(BINARY64, w=50)
ROWS50 = GroupedSummation(P50, 0).block_rows
#: a row count the walk tests scale by (inputs of a few SPAN rows are
#: one block at the default W)
SPAN = 1 << 14
G = 4
N = 1024


def check(params, ngroups, gids, cols, seed=None, reps=1, morsel=None):
    """Feed ``cols`` (``reps`` times, ``morsel`` rows a call when given)
    through the blocked kernel and through per-table ``add_pairs``;
    assert equal state and result bits; return the kernel's counters.
    ``seed(tables)`` pre-loads both sides."""
    gids = np.asarray(gids, dtype=np.int64)
    cols = [np.asarray(c, dtype=params.fmt.dtype) for c in cols]
    reference = [GroupedSummation(params, ngroups) for _ in cols]
    blocked = [GroupedSummation(params, ngroups) for _ in cols]
    if seed is not None:
        seed(reference)
        seed(blocked)
    counters = LadderCounters()
    spans = [slice(None)] if morsel is None else [
        slice(pos, pos + morsel) for pos in range(0, gids.size, morsel)]
    for _ in range(reps):
        for span in spans:
            for table, col in zip(reference, cols):
                table.add_pairs(gids[span], col[span])
            add_blocked_multi(blocked, gids[span],
                              [col[span] for col in cols], counters)
    for ref, got in zip(reference, blocked):
        assert got.state_tuples() == ref.state_tuples()
        assert got.finalize().tobytes() == ref.finalize().tobytes()
    return counters


@contextmanager
def recorded_blocks():
    """The row count of every kernel block ``add_blocked_multi`` cuts
    inside the ``with``."""
    sizes = []
    real = grouped_mod._add_block

    def spy(blocks, start, stop, counters):
        sizes.append(stop - start)
        real(blocks, start, stop, counters)

    with mock.patch.object(grouped_mod, "_add_block", spy):
        yield sizes


def cut(n, params):
    """The blocks ``n`` rows are cut into under ``params``."""
    step = GroupedSummation(params, 0).block_rows
    return [min(step, n - pos) for pos in range(0, n, step)]


def seed_uniform(*magnitudes, ngroups=G):
    """Table ``i`` gets one value of ``magnitudes[i]`` per group (the
    last magnitude repeats), so it sits on one uniform ladder."""
    def seed(tables):
        every = np.arange(ngroups, dtype=np.int64)
        for i, table in enumerate(tables):
            mag = magnitudes[min(i, len(magnitudes) - 1)]
            table.add_pairs(every, np.full(ngroups, mag))
    return seed


def seed_split(tables):
    """Group 0 on a huge ladder, group 1 on a tiny one, the rest empty."""
    for table in tables:
        table.add_pairs(np.array([0, 1]), np.array([1e40, 1e-60]))


@pytest.fixture()
def rng():
    return np.random.default_rng(13)


class TestBlockedWalk:
    @pytest.mark.parametrize(
        "n", (ROWS50 - 1, ROWS50, ROWS50 + 1, 4 * ROWS50 + 7)
    )
    def test_lengths_around_block_rows(self, rng, n):
        # one group takes every row: the int64 bound is per block,
        # whatever the groups
        with recorded_blocks() as sizes:
            counters = check(
                P50, G, np.zeros(n, dtype=np.int64),
                [rng.normal(size=n) * 100, rng.normal(size=n)],
                seed=seed_uniform(1e4),
            )
        assert sizes == cut(n, P50)
        assert (counters.reference, counters.scatter) == (0, 2 * n)
        assert counters.first_decline is None

    def test_cold_start_seeds_then_scatters(self, rng):
        # every group holds a value of the block maximum's class, so
        # empty ladders are seeded in place and nothing is declined
        n = 4 * SPAN + 7
        counters = check(P64, G, rng.integers(0, G, n),
                         [rng.uniform(1.0, 2.0, size=n) for _ in range(3)])
        assert (counters.reference, counters.scatter) == (0, 3 * n)
        assert counters.first_decline is None

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_block_alone_goes_sorted(self, rng, bad):
        # the non-finite row is declined, no more: the block is ranked
        # by its finite |max|, so a ±inf goes cold alone as a NaN does
        n = 5 * SPAN
        values = rng.normal(size=n)
        values[2 * SPAN + 17] = bad
        counters = check(P64, G, rng.integers(0, G, n),
                         [values, rng.normal(size=n)],
                         seed=seed_uniform(100.0))
        assert (counters.reference, counters.scatter) == (1, 2 * n - 1)
        assert counters.first_decline == "non_finite"

    def test_demote_mid_morsel(self, rng):
        # One huge value raises one group's ladder.  The morsel is one
        # block, so that row is declined alone and the reference
        # demotes its group after the block.
        n = 4 * SPAN
        gids = rng.integers(0, G, n)
        values = rng.normal(size=n)
        values[SPAN + 5] = 1e60
        counters = check(P64, G, gids, [values], seed=seed_uniform(1.0))
        assert (counters.reference, counters.scatter) == (1, n - 1)
        assert counters.first_decline == "off_ladder"
        # Fed in two calls, the raised ladder prevails in the second,
        # so only that group's rows still scatter there.
        counters = check(P64, G, gids, [values], seed=seed_uniform(1.0),
                         morsel=2 * SPAN)
        declined = 1 + int((gids[2 * SPAN:] != gids[SPAN + 5]).sum())
        assert (counters.reference, counters.scatter) == (declined, n - declined)
        assert counters.first_decline == "off_ladder"

    def test_all_zero_column(self, rng):
        n = 2 * SPAN + 3
        counters = check(P64, G, rng.integers(0, G, n),
                         [np.zeros(n), rng.normal(size=n)],
                         seed=seed_uniform(10.0))
        assert counters.reference == 0
        # ... and with nothing seeded, where zeros never touch a ladder
        check(P64, G, rng.integers(0, G, n), [np.zeros(n), np.zeros(n)])

    def test_tables_on_different_uniform_ladders(self, rng):
        n = 2 * SPAN
        counters = check(P64, G, rng.integers(0, G, n),
                         [rng.normal(size=n), rng.normal(size=n) * 1e20],
                         seed=seed_uniform(1.0, 1e21))
        assert (counters.reference, counters.scatter) == (0, 2 * n)

    def test_mixed_ladder_takes_one_sorted_walk(self, rng):
        # group 0 holds the prevailing ladder and scatters; the
        # straggler on a lower ladder and the two empty groups (not
        # seeded by values this small) take the reference, block by block
        n = 3 * SPAN
        gids = rng.integers(0, G, n)
        counters = check(P64, G, gids, [rng.normal(size=n)], seed=seed_split)
        declined = int((gids != 0).sum())
        assert (counters.reference, counters.scatter) == (declined, n - declined)
        assert counters.first_decline == "off_ladder"

    def test_binary32(self, rng):
        # W = 18 cuts binary32 blocks at 2**22 rows: one block per
        # call, seeded in place.
        n = 2 * SPAN + 5
        cols = [rng.normal(size=n).astype(np.float32) for _ in range(2)]
        counters = check(P32, G, rng.integers(0, G, n), cols, reps=2)
        assert (counters.reference, counters.scatter) == (0, 4 * n)
        cols[1][SPAN + 1] = np.float32(np.nan)
        counters = check(P32, G, rng.integers(0, G, n), cols,
                         seed=seed_uniform(np.float32(50.0)))
        assert counters.reference == 1
        assert counters.first_decline == "non_finite"

    def test_wide_w_takes_a_morsel_whole(self, rng):
        # W = 45 cuts at 2**17 rows: a morsel of 1 537 rows, one group
        # taking most of them, is one block
        params = RsumParams(BINARY64, w=45)
        n = 3 * 512 + 1
        gids = np.where(rng.random(n) < 0.9, 0, rng.integers(0, G, n))
        with recorded_blocks() as sizes:
            counters = check(params, G, gids,
                             [rng.uniform(50.0, 200.0, size=n)],
                             seed=seed_uniform(150.0))
        assert sizes == [n]
        assert (counters.reference, counters.scatter) == (0, n)

    def test_no_kernel_format_walks_everything_sorted(self, rng):
        # the kernel has no binary16 instance: all reference
        n = 100
        counters = check(RsumParams(BINARY16), G, rng.integers(0, G, n),
                         [rng.uniform(1.0, 2.0, size=n)], reps=2)
        assert (counters.reference, counters.scatter) == (2 * n, 0)
        assert counters.first_decline == "format"

    def test_subnormal_bottom_level_walks_the_block(self, rng):
        # the floor ladder's bottom level lies below the normal range
        n = 50
        counters = check(P64, G, rng.integers(0, G, n),
                         [rng.uniform(1.0, 2.0, size=n) * 1e-306])
        assert (counters.reference, counters.scatter) == (n, 0)
        assert counters.first_decline == "subnormal"

    def test_high_cardinality_sorted_input(self, rng):
        ngroups = 3000
        gids = np.sort(rng.integers(0, ngroups, 2 * SPAN))
        check(P64, ngroups, gids, [rng.exponential(size=gids.size)])

    def test_validates(self):
        table = GroupedSummation(P64, 2)
        with pytest.raises(IndexError):
            add_blocked_multi([table], np.array([0, 2]), [np.ones(2)])
        with pytest.raises(IndexError):
            add_blocked_multi([table], np.array([-1, 0]), [np.ones(2)])
        with pytest.raises(ValueError):
            add_blocked_multi([table], np.array([0, 1]), [np.ones(3)])
        with pytest.raises(ValueError):
            add_blocked_multi(
                [table, GroupedSummation(RsumParams(BINARY64, levels=3), 2)],
                np.array([0, 1]), [np.ones(2), np.ones(2)],
            )
        assert table.finalize().tolist() == [0.0, 0.0]


class TestAdversarialInputs:
    """The inputs the retired batched sorted walk was held against,
    kept as inputs of the one differential left: whatever the scatter
    makes of a row, the state equals looped ``add_pairs``."""

    def test_random_columns(self, rng):
        cols = [rng.normal(size=N) * 10.0 ** float(rng.integers(-3, 4))
                for _ in range(5)]
        check(P64, G, rng.integers(0, G, N), cols, reps=3)

    def test_huge_magnitudes(self, rng):
        check(P64, G, rng.integers(0, G, N),
              [rng.normal(size=N) * 1e280, rng.normal(size=N)], reps=2)

    def test_near_emin_magnitudes(self, rng):
        check(P64, G, rng.integers(0, G, N),
              [rng.normal(size=N) * 1e-300, rng.normal(size=N)], reps=2)

    def test_three_levels(self, rng):
        cols = [rng.normal(size=N) * 10.0 ** float(rng.integers(-9, 10))
                for _ in range(3)]
        check(P64L3, G, rng.integers(0, G, N), cols, reps=2)

    def test_all_distinct_groups(self, rng):
        check(P64, N, rng.permutation(N), [rng.normal(size=N)], reps=2)

    def test_binary32(self, rng):
        cols = [rng.normal(size=N).astype(np.float32) * np.float32(1e30),
                rng.normal(size=N).astype(np.float32)]
        check(P32, G, rng.integers(0, G, N), cols, reps=2)

    def test_nan_inf_columns(self, rng):
        v_nan = rng.normal(size=N)
        v_nan[17] = np.nan
        v_inf = rng.normal(size=N)
        v_inf[33] = np.inf
        v_inf[99] = -np.inf
        counters = check(P64, G, rng.integers(0, G, N),
                         [v_nan, v_inf, rng.normal(size=N)], reps=2)
        assert counters.reference == 2 * 3  # the non-finite rows, no more

    def test_zeros_and_negative_zero(self, rng):
        values = rng.normal(size=N)
        values[rng.random(N) < 0.3] = 0.0
        values[rng.random(N) < 0.1] = -0.0
        check(P64, G, rng.integers(0, G, N),
              [values, rng.normal(size=N)], reps=3)

    def test_all_zero_segment_and_column(self, rng):
        gids = rng.integers(0, G, N)
        seg_zero = rng.normal(size=N)
        seg_zero[gids == 2] = 0.0
        check(P64, G, gids, [seg_zero, rng.normal(size=N)], reps=2)
        check(P64, G, gids, [np.zeros(N), rng.normal(size=N)], reps=2)

    def test_zeros_with_nonuniform_magnitudes(self, rng):
        values = rng.normal(size=N) * 1e200
        values[rng.random(N) < 0.2] = 0.0
        check(P64, G, rng.integers(0, G, N),
              [values, rng.normal(size=N)], reps=2)

    def test_mixed_per_group_ladders(self, rng):
        check(P64, G, rng.integers(0, G, N),
              [rng.normal(size=N), rng.normal(size=N) * 1e-50],
              seed=seed_split, reps=2)


class TestDeclinedRegimes:
    """Where declined rows are most of the input, or were a cliff."""

    def test_sixty_binades_into_many_groups(self, rng):
        # the one regime that lives on the cold path: two rows per
        # group per morsel, and only a row within three binades of the
        # block's top puts its group on the prevailing ladder
        n, ngroups = 1 << 18, 1 << 15
        values = (rng.choice([-1.0, 1.0], size=n)
                  * np.exp2(rng.uniform(-30, 30, n)))
        counters = check(P64, ngroups, rng.integers(0, ngroups, n),
                         [values], morsel=1 << 16)
        assert counters.reference >= 0.8 * n
        assert counters.first_decline == "off_ladder"

    def test_one_group_persistently_below(self, rng):
        # group 3 never reaches the others' ladder, so its rows are
        # declined in every call (the one shape the walk used to win)
        gids = rng.integers(0, G, N)
        values = rng.uniform(1.0, 2.0, size=N)
        values[gids == 3] *= 2.0 ** -60
        counters = check(P64, G, gids, [values, values], reps=2)
        assert counters.reference == 2 * 2 * int((gids == 3).sum())
        assert counters.first_decline == "off_ladder"

    @pytest.mark.parametrize("params", (P64, P32), ids=("binary64", "binary32"))
    def test_non_finite_rows_decline_alone(self, rng, params):
        # steady state, k non-finite rows among finite ones: exactly k
        # declined per affected table — one ±inf used to take its whole
        # block, in every table of the call
        n = 3 * SPAN + 11
        dtype = params.fmt.dtype
        cols = [rng.normal(size=n).astype(dtype) for _ in range(3)]
        for third in range(3):  # one ±inf per third of the input
            cols[0][third * SPAN + 17] = (-1) ** third * np.inf
        cols[1][[5, SPAN + 5, SPAN + 6]] = [np.nan, np.inf, -np.inf]
        counters = check(params, G, rng.integers(0, G, n), cols,
                         seed=seed_uniform(dtype.type(100.0)))
        assert (counters.reference, counters.scatter) == (6, 3 * n - 6)
        assert counters.first_decline == "non_finite"

    def test_all_non_finite_block_declines_whole(self, rng):
        values = np.full(N, np.nan)
        values[::3] = np.inf
        counters = check(P64, G, rng.integers(0, G, N),
                         [rng.normal(size=N), values],
                         seed=seed_uniform(100.0))
        assert (counters.reference, counters.scatter) == (2 * N, 0)
        assert counters.first_decline == "non_finite"

    def test_overflow_in_the_second_of_three_tables(self, rng):
        # a finite magnitude past the ladder range declines the block
        # of every table, and the reference runs table by table: the
        # first is applied, the second raises having counted its NaN
        # (what add_pairs leaves), the third is untouched
        gids = rng.integers(0, G, N)
        cols = [rng.normal(size=N) for _ in range(3)]
        cols[1][7], cols[1][8], cols[1][9] = 1e300, np.nan, np.inf
        looped = [GroupedSummation(P64, G) for _ in cols]
        blocked = [GroupedSummation(P64, G) for _ in cols]
        for side in (looped, blocked):
            seed_uniform(100.0)(side)
        untouched = looped[2].state_tuples()
        with pytest.raises(LadderOverflowError):
            for table, col in zip(looped, cols):
                table.add_pairs(gids, col)
        counters = LadderCounters()
        with pytest.raises(LadderOverflowError):
            add_blocked_multi(blocked, gids, cols, counters)
        for ref, got in zip(looped, blocked):
            assert got.state_tuples() == ref.state_tuples()
        assert blocked[2].state_tuples() == untouched
        assert blocked[1].nan_cnt.sum() == 1 and blocked[1].pos_cnt.sum() == 1
        assert (counters.reference, counters.first_decline) == (
            3 * N, "off_ladder")


#: a row of no class: below what E = 40 (the ladder of 1.0) needs,
#: 2**-13, so it cannot put an empty group on E by itself
TINY = 2.0 ** -20
LEVELS = pytest.mark.parametrize(
    "params", [RsumParams(BINARY64, levels=L) for L in (2, 3, 4)],
    ids=("L2", "L3", "L4"))


class TestOnePassSeeding:
    """A block that seeds empty groups is one classifying pass; rows
    too small to seed their group wait for the end of it.  Group 0 sits
    on E from the seed; the others start empty."""

    #: (group, value) rows, and how many of them the reference takes
    ROWS = [
        (0, 1.0),
        (1, TINY), (1, 0.5), (1, -TINY),   # tiny before and after the seed
        (2, TINY), (2, -TINY),             # never seeded: declined
        (3, 0.0), (3, np.nan),             # zero and NaN, never seeded
        (4, 0.0), (4, 0.75), (4, -0.0),    # zeros around the seed
        (5, -0.0),                         # a lone zero
        (6, -TINY), (6, 0.25),             # seeded by the last row
    ]
    DECLINED = 2 + 2 + 1

    @staticmethod
    def _check(params, rows):
        gids = np.array([g for g, _ in rows], dtype=np.int64)
        values = np.array([v for _, v in rows])
        return check(params, 8, gids, [values, -values],
                     seed=lambda tables: [t.add_pairs([0], [1.0])
                                          for t in tables])

    @LEVELS
    def test_seeds_in_one_pass(self, params):
        counters = self._check(params, self.ROWS)
        assert counters.reference == 2 * self.DECLINED
        assert counters.scatter == 2 * (len(self.ROWS) - self.DECLINED)

    @LEVELS
    @pytest.mark.parametrize("seed", range(6))
    def test_any_row_order(self, params, seed):
        order = np.random.default_rng(seed).permutation(len(self.ROWS))
        counters = self._check(params, [self.ROWS[i] for i in order])
        assert counters.reference == 2 * self.DECLINED

    @LEVELS
    def test_a_group_all_below_needs(self, params):
        rows = [(0, 1.0)] + [(1, TINY * k) for k in (1, -2, 3, 0)]
        counters = self._check(params, rows)
        assert (counters.reference, counters.first_decline) == (
            2 * 4, "off_ladder")

    @LEVELS
    @pytest.mark.parametrize("rows, reason", (
        # the deferred row is declined first in row order ...
        ([(0, 1.0), (2, TINY), (3, np.nan)], "off_ladder"),
        # ... or after the NaN that is declined as it comes
        ([(0, 1.0), (3, np.nan), (2, TINY)], "non_finite"),
        # a deferred row that is taken names nothing
        ([(0, 1.0), (2, TINY), (2, 0.5), (3, np.inf)], "non_finite"),
    ), ids=("deferred_first", "immediate_first", "deferred_taken"))
    def test_first_decline_in_row_order(self, params, rows, reason):
        counters = self._check(params, rows)
        assert counters.first_decline == reason


@st.composite
def scatter_or_reference_cases(draw):
    fmt, centre, spread = draw(st.sampled_from((
        (BINARY64, 200, 120), (BINARY32, 40, 60))))
    return dict(
        params=RsumParams(fmt, levels=draw(st.integers(1, 3))),
        ngroups=draw(st.integers(1, 300)),
        rows=draw(st.integers(0, 600)),
        tables=[
            dict(centre=draw(st.integers(-centre, centre)),
                 spread=draw(st.integers(0, spread)),
                 special=draw(st.sampled_from((0.0, 0.02, 0.3))),
                 seeded=draw(st.sampled_from(("empty", "uniform", "some"))))
            for _ in range(draw(st.integers(1, 3)))
        ],
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestScatterOrReference:
    """Whichever of the two updates takes a row, the state is the
    reference's: format, levels, group and row counts, tables per
    call, magnitude spread, sprinkled NaN / ±inf / ±0 and pre-seeded
    ladders all drawn, two reps."""

    @settings(max_examples=100, deadline=None)
    @given(case=scatter_or_reference_cases())
    def test_equals_looped_add_pairs(self, case):
        rng = np.random.default_rng(case["seed"])
        params, ngroups, rows = case["params"], case["ngroups"], case["rows"]
        dtype = params.fmt.dtype

        def values(count, table):
            exps = table["centre"] + rng.integers(
                -table["spread"], table["spread"] + 1, count)
            return (rng.choice([-1.0, 1.0], count)
                    * np.ldexp(rng.uniform(1.0, 2.0, count), exps)
                    ).astype(dtype)

        cols, seeds = [], []
        for table in case["tables"]:
            col = values(rows, table)
            special = rng.random(rows) < table["special"]
            col[special] = rng.choice(
                [np.nan, np.inf, -np.inf, 0.0, -0.0], int(special.sum()))
            cols.append(col)
            seeded = {"empty": 0, "uniform": ngroups,
                      "some": ngroups // 2}[table["seeded"]]
            seeds.append((rng.permutation(ngroups)[:seeded],
                          values(seeded, table)))

        def seed(tables):
            for table, (seed_gids, seed_vals) in zip(tables, seeds):
                table.add_pairs(seed_gids, seed_vals)

        counters = check(params, ngroups, rng.integers(0, ngroups, rows),
                         cols, seed=seed, reps=2)
        assert counters.scatter + counters.reference == 2 * rows * len(cols)


# Special groups of the partition property, one per way a row can miss
# (or must not miss) the scatter; each table draws which ones it plays,
# so the cold sets differ between tables.  Ids 0..3 are residents on
# the prevailing ladder; ids past the roles are one-row filler groups.
ROLES = ("zeros", "below", "straggler", "raises", "non_finite", "late")
RESIDENTS = 4
FIRST_FILLER = RESIDENTS + len(ROLES) + 1
HOT = FIRST_FILLER - 1


@st.composite
def partition_cases(draw):
    fmt, w = draw(st.sampled_from(
        ((BINARY64, None), (BINARY64, 45), (BINARY64, 50), (BINARY32, None))))
    params = RsumParams(fmt, levels=draw(st.integers(1, 3)), w=w)
    tables = [
        (draw(st.sampled_from(("normal", "floor"))),
         draw(st.integers(-2, 3)),
         draw(st.frozensets(st.sampled_from(ROLES))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return (params, tables, draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


class TestRowPartition:
    """``add_blocked_multi`` ≡ per-table ``add_pairs`` on inputs built
    to put every kind of row in one block."""

    @staticmethod
    def _values(rng, count, lo_exp, hi_exp, dtype):
        """``count`` values ±[1, 2) * 2**e, e uniform in [lo, hi]."""
        exps = rng.integers(lo_exp, hi_exp + 1, count)
        with np.errstate(under="ignore"):
            return (rng.choice([-1.0, 1.0], count)
                    * np.ldexp(rng.uniform(1.0, 2.0, count), exps)
                    ).astype(dtype)

    @settings(max_examples=120, deadline=None)
    @given(case=partition_cases())
    def test_equals_reference(self, case):
        params, tables, hot, seed = case
        rng = np.random.default_rng(seed)
        dtype = params.fmt.dtype
        m, w = params.fmt.mantissa_bits, params.w
        probe = GroupedSummation(params, 1)
        hot = hot and w == 50  # > block_rows rows has to stay cheap
        nfill = 700
        ngroups = FIRST_FILLER + nfill

        # rows per group: residents and role groups a handful each, the
        # fillers one each (so the average group is tiny), the hot
        # group eight blocks' worth at W = 50, 2**15 + 50 rows
        counts = np.ones(ngroups, dtype=np.int64)
        counts[:FIRST_FILLER] = rng.integers(3, 9, FIRST_FILLER)
        counts[HOT] = 8 * probe.block_rows + 50 if hot else 1
        gids = rng.permutation(np.repeat(np.arange(ngroups), counts))
        # "late": the group's rows all sit in the second half
        late = RESIDENTS + ROLES.index("late")
        where = np.flatnonzero(gids == late)
        swap = np.arange(gids.size - where.size, gids.size)
        gids[where], gids[swap] = gids[swap], late

        cols, seeds, expect = [], [], []
        for kind, shift, roles in tables:
            if kind == "floor":
                e0 = probe._emin_grid
            else:
                e0 = shift * 2 * w
            # binades of the rows that fit under e0 and need exactly
            # it: on the floor ladder, down to the last subnormal
            fits = e0 - m + w - 2
            needs = (e0 - m - 1 if kind == "normal"
                     else params.fmt.min_exponent - m)
            vals = self._values(rng, gids.size, needs, fits, dtype)
            group = {role: RESIDENTS + i for i, role in enumerate(ROLES)}
            below = (self._values(rng, gids.size, needs - w, needs - 1, dtype)
                     if kind == "normal" else np.zeros(gids.size, dtype))
            if "zeros" in roles:
                vals[gids == group["zeros"]] = 0
            if "below" in roles:
                sel = gids == group["below"]
                vals[sel] = below[sel]
            if "straggler" in roles:
                # on a lower ladder beforehand: small rows, one large
                sel = np.flatnonzero(gids == group["straggler"])
                vals[sel[1:]] = below[sel[1:]]
            if "raises" in roles:
                sel = np.flatnonzero(gids == group["raises"])
                vals[sel[0]] = np.ldexp(dtype.type(1.5), fits + 3)
            if "non_finite" in roles:
                sel = np.flatnonzero(gids == group["non_finite"])
                vals[sel[:3]] = [np.nan, np.inf, -np.inf]
            if hot:
                # level-0 quanta in [2**(w-2), 2**(w-1)): from about
                # 2**14.4 of them at W = 50 one int64 sum would wrap
                sel = gids == HOT
                vals[sel] = np.abs(self._values(
                    rng, int(sel.sum()), fits, fits, dtype))
            cols.append(vals)
            # beforehand: residents (and the groups that must already
            # be warm) on e0, the straggler on the ladder below
            warm = list(range(RESIDENTS)) + [
                group["raises"], group["non_finite"], HOT]
            seed_gids = np.array(warm + [group["straggler"]])
            seed_vals = self._values(rng, seed_gids.size, fits, fits, dtype)
            seed_vals[-1] = (below[0] if "straggler" in roles
                             else seed_vals[-1])
            seeds.append((seed_gids, seed_vals))
            expect.append((kind, e0, roles, group))

        reference = [GroupedSummation(params, ngroups) for _ in cols]
        blocked = [GroupedSummation(params, ngroups) for _ in cols]
        for side in (reference, blocked):
            for table, (seed_gids, seed_vals) in zip(side, seeds):
                table.add_pairs(seed_gids, seed_vals)
        for table, col in zip(reference, cols):
            table.add_pairs(gids, col)
        counters = LadderCounters()
        with recorded_blocks() as sizes:
            add_blocked_multi(blocked, gids, cols, counters)

        for ref, got in zip(reference, blocked):
            assert got.state_tuples() == ref.state_tuples()
            assert got.finalize().tobytes() == ref.finalize().tobytes()
        assert counters.scatter + counters.reference == gids.size * len(cols)
        # one block unless the input has more than block_rows rows,
        # however they fall into groups
        assert sizes == cut(gids.size, params)
        assert (len(sizes) > 1) == hot
        for table, (kind, e0, roles, group) in zip(blocked, expect):
            if "zeros" in roles:
                assert table.e0[group["zeros"]] == _EMPTY_E0
            if "below" in roles and kind == "normal":
                assert table.e0[group["below"]] == e0 - w
            assert table.e0[0] == e0


def test_plain_sum_merge_opposite_infinities_is_quiet_nan():
    # IEEE partials holding +inf and -inf for one group: NaN is the
    # right answer and no RuntimeWarning may escape the merge.
    left, right = PlainSum(np.float64), PlainSum(np.float64)
    gids = np.array([0, 1], dtype=np.int64)
    left.add(np.array([np.inf, 1.0]), gids, None, 2)
    right.add(np.array([-np.inf, 2.0]), gids, None, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        left.merge(right, gids, 2)
    sums = left.finalize(2)
    assert np.isnan(sums[0]) and sums[1] == 3.0


@st.composite
def deep_ladder_cases(draw, base):
    """``base``'s cases with ``levels`` redrawn from 3 and 4."""
    case = draw(base)
    params = case["params"] if isinstance(case, dict) else case[0]
    deep = RsumParams(params.fmt, levels=draw(st.sampled_from((3, 4))),
                      w=params.w)
    if isinstance(case, dict):
        return {**case, "params": deep}
    return (deep, *case[1:])


class TestDeepLadders:
    """The two properties above at ``levels`` 3 and 4, in binary64 and
    binary32 (``W = 18``): every extra level is one more extraction per
    row in the compiled loop."""

    @settings(max_examples=60, deadline=None)
    @given(case=deep_ladder_cases(scatter_or_reference_cases()))
    def test_equals_looped_add_pairs(self, case):
        TestScatterOrReference.test_equals_looped_add_pairs.hypothesis \
            .inner_test(TestScatterOrReference(), case)

    @settings(max_examples=60, deadline=None)
    @given(case=deep_ladder_cases(partition_cases()))
    def test_row_partition_equals_reference(self, case):
        TestRowPartition.test_equals_reference.hypothesis.inner_test(
            TestRowPartition(), case)
