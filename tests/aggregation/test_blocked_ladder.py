"""The blocked ladder update must be invisible in the state bits.

:func:`add_blocked_multi` walks its input in exactness-window blocks:
steady-state blocks scatter-accumulate, the others take the sorted walk
on their own rows.  Where the boundaries fall, and which path a block
takes, may change the counters — never a bit of state.  The reference
throughout is the per-table, unbatched :meth:`GroupedSummation.add_pairs`.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from repro.aggregation.partition import stable_group_order
from repro.core.params import RsumParams
from repro.engine.operators import _PlainSumImpl
from repro.fp.formats import BINARY16, BINARY32, BINARY64

P64 = RsumParams(BINARY64)
P32 = RsumParams(BINARY32)
WINDOW = 1 << (54 - P64.w)
G = 4


def check(params, ngroups, gids, cols, seed=None, reps=1):
    """Feed ``cols`` (``reps`` times) through the blocked kernel and
    through per-table ``add_pairs``; assert equal state and result
    bits; return the kernel's counters.  ``seed(tables)`` pre-loads
    both sides."""
    gids = np.asarray(gids, dtype=np.int64)
    cols = [np.asarray(c, dtype=params.fmt.dtype) for c in cols]
    reference = [GroupedSummation(params, ngroups) for _ in cols]
    blocked = [GroupedSummation(params, ngroups) for _ in cols]
    if seed is not None:
        seed(reference)
        seed(blocked)
    counters = LadderCounters()
    for _ in range(reps):
        for table, col in zip(reference, cols):
            table.add_pairs(gids, col)
        add_blocked_multi(blocked, gids, cols, counters)
    for ref, got in zip(reference, blocked):
        assert got.state_tuples() == ref.state_tuples()
        assert got.finalize().tobytes() == ref.finalize().tobytes()
    return counters


def seed_uniform(*magnitudes, ngroups=G):
    """Table ``i`` gets one value of ``magnitudes[i]`` per group (the
    last magnitude repeats), so it sits on one uniform ladder."""
    def seed(tables):
        every = np.arange(ngroups, dtype=np.int64)
        for i, table in enumerate(tables):
            mag = magnitudes[min(i, len(magnitudes) - 1)]
            table.add_pairs(every, np.full(ngroups, mag))
    return seed


@pytest.fixture()
def rng():
    return np.random.default_rng(13)


class TestBlockedWalk:
    @pytest.mark.parametrize(
        "n", (WINDOW - 1, WINDOW, WINDOW + 1, 4 * WINDOW + 7)
    )
    def test_lengths_around_the_window(self, rng, n):
        counters = check(
            P64, G, rng.integers(0, G, n),
            [rng.normal(size=n) * 100, rng.normal(size=n)],
            seed=seed_uniform(1e4),
        )
        assert counters.scatter == -(-n // WINDOW)
        assert counters.sorted == 0
        assert counters.first_decline is None

    def test_cold_start_seeds_then_scatters(self, rng):
        n = 4 * WINDOW + 7
        counters = check(P64, G, rng.integers(0, G, n),
                         [rng.uniform(1.0, 2.0, size=n) for _ in range(3)])
        assert (counters.sorted, counters.scatter) == (1, 4)
        assert counters.first_decline == "cold_start"

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_block_alone_goes_sorted(self, rng, bad):
        n = 5 * WINDOW
        values = rng.normal(size=n)
        values[2 * WINDOW + 17] = bad
        counters = check(P64, G, rng.integers(0, G, n),
                         [values, rng.normal(size=n)],
                         seed=seed_uniform(100.0))
        assert (counters.sorted, counters.scatter) == (1, 4)
        assert counters.first_decline == "non_finite"

    def test_demote_mid_morsel(self, rng):
        # One huge value in block 2 raises one group's ladder: that
        # block walks sorted, and the table is off its uniform ladder
        # afterwards, so the rest takes one sorted walk.
        n = 4 * WINDOW
        values = rng.normal(size=n)
        values[WINDOW + 5] = 1e60
        counters = check(P64, G, rng.integers(0, G, n), [values],
                         seed=seed_uniform(1.0))
        assert counters.scatter == 1
        assert counters.sorted == 3
        assert counters.first_decline == "demote"

    def test_all_zero_column(self, rng):
        n = 2 * WINDOW + 3
        counters = check(P64, G, rng.integers(0, G, n),
                         [np.zeros(n), rng.normal(size=n)],
                         seed=seed_uniform(10.0))
        assert counters.sorted == 0
        # ... and with nothing seeded, where zeros never touch a ladder
        check(P64, G, rng.integers(0, G, n), [np.zeros(n), np.zeros(n)])

    def test_tables_on_different_uniform_ladders(self, rng):
        n = 2 * WINDOW
        counters = check(P64, G, rng.integers(0, G, n),
                         [rng.normal(size=n), rng.normal(size=n) * 1e20],
                         seed=seed_uniform(1.0, 1e21))
        assert (counters.sorted, counters.scatter) == (0, 2)

    def test_mixed_ladder_takes_one_sorted_walk(self, rng):
        def seed(tables):
            for table in tables:
                table.add_pairs(np.array([0, 1]), np.array([1e40, 1e-60]))
        n = 3 * WINDOW
        counters = check(P64, G, rng.integers(0, G, n),
                         [rng.normal(size=n)], seed=seed)
        assert (counters.sorted, counters.scatter) == (3, 0)
        assert counters.first_decline == "mixed_ladder"

    def test_binary32(self, rng):
        # W = 18 puts the binary32 window at 2**36 rows: one block per
        # call, the first seeding the ladders, the second scattering.
        n = 2 * WINDOW + 5
        cols = [rng.normal(size=n).astype(np.float32) for _ in range(2)]
        counters = check(P32, G, rng.integers(0, G, n), cols, reps=2)
        assert (counters.sorted, counters.scatter) == (1, 1)
        cols[1][WINDOW + 1] = np.float32(np.nan)
        counters = check(P32, G, rng.integers(0, G, n), cols,
                         seed=seed_uniform(np.float32(50.0)))
        assert counters.first_decline == "non_finite"

    def test_narrow_window(self, rng):
        params = RsumParams(BINARY64, w=45)
        narrow = 1 << (54 - 45)
        n = 3 * narrow + 1
        counters = check(params, G, rng.integers(0, G, n),
                         [rng.uniform(50.0, 200.0, size=n)],
                         seed=seed_uniform(150.0))
        assert (counters.sorted, counters.scatter) == (0, 4)

    def test_no_window_walks_everything_sorted(self, rng):
        # binary16 rows have no float64-exact scatter: one sorted walk
        n = 100
        counters = check(RsumParams(BINARY16), G, rng.integers(0, G, n),
                         [rng.uniform(1.0, 2.0, size=n)], reps=2)
        assert (counters.sorted, counters.scatter) == (2, 0)
        assert counters.first_decline == "window"

    def test_high_cardinality_sorted_input(self, rng):
        ngroups = 3000
        gids = np.sort(rng.integers(0, ngroups, 2 * WINDOW))
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


class TestStableGroupOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 300), max_size=200),
        scale=st.sampled_from((1, 257, 1 << 20, 1 << 33)),
        presorted=st.booleans(),
    )
    def test_equals_stable_argsort(self, ids, scale, presorted):
        # scale spreads the ids over < 2**16, < 2**32 and >= 2**32
        # (the merge-sort fallback); duplicates make stability visible
        gids = np.asarray(ids, dtype=np.int64) * scale
        if presorted:
            gids = np.sort(gids)
        expected = np.argsort(gids, kind="stable")
        assert stable_group_order(gids).tolist() == expected.tolist()

    def test_negative_ids_fall_back(self):
        gids = np.array([3, -1, 3, 0, -1], dtype=np.int64)
        expected = np.argsort(gids, kind="stable")
        assert stable_group_order(gids).tolist() == expected.tolist()

    def test_boundaries(self):
        for top in ((1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32):
            gids = np.array([top, 0, top, 1, 0, top - 1], dtype=np.int64)
            expected = np.argsort(gids, kind="stable")
            assert stable_group_order(gids).tolist() == expected.tolist()


def test_plain_sum_merge_opposite_infinities_is_quiet_nan():
    # IEEE partials holding +inf and -inf for one group: NaN is the
    # right answer and no RuntimeWarning may escape the merge.
    left, right = _PlainSumImpl(np.float64), _PlainSumImpl(np.float64)
    gids = np.array([0, 1], dtype=np.int64)
    left.update(np.array([np.inf, 1.0]), gids, 2)
    right.update(np.array([-np.inf, 2.0]), gids, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        left.merge(right, gids, 2)
    sums = left.finalize(2)
    assert np.isnan(sums[0]) and sums[1] == 3.0
