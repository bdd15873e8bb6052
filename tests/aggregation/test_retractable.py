"""Property tests for the retractable (full-grid) grouped summation.

The contracts under test:

* **render parity** — for any multiset of inserted values, rendering
  the full-grid state down to L levels is *byte-identical* (state
  tuple for state tuple) to feeding the same pairs through the
  query-time :class:`GroupedSummation` from scratch;
* **round trip** — ``add_pairs(x)`` then ``retract_pairs(x)`` restores
  the full state identity exactly, including when ``x`` contained the
  group's maximum (the case the truncated L-level ladder cannot
  invert);
* **interleaving independence** — any insert/retract order over the
  same surviving multiset lands on the same bytes.

All properties are exercised with NaN, +/-inf, ``-0.0``, subnormals
and mixed magnitudes.
"""

import numpy as np
import pytest

from repro.aggregation import GroupedSummation, RetractableGroupedSummation
from repro.core.params import RsumParams
from repro.errors import LadderOverflowError
from repro.fp.formats import BINARY32, BINARY64


def params(levels=2, fmt=BINARY64):
    return RsumParams(fmt, levels)


def random_values(rng, n, with_specials=True):
    values = (
        rng.choice([-1.0, 1.0], size=n)
        * rng.uniform(1.0, 2.0, size=n)
        * np.exp2(rng.uniform(-60, 60, size=n))
    )
    if with_specials and n >= 10:
        values[0] = 0.0
        values[1] = -0.0
        values[2] = np.nan
        values[3] = np.inf
        values[4] = -np.inf
        values[5] = 5e-324  # subnormal
        values[6] = 2**-1060  # subnormal below the bottom grid slot
    return values


def scratch_state(p, gids, values, ngroups):
    return GroupedSummation.from_pairs(
        p, np.asarray(gids, dtype=np.int64), values, ngroups
    )


class TestRenderParity:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_render_matches_scratch(self, levels):
        rng = np.random.default_rng(7 + levels)
        p = params(levels)
        n, ngroups = 500, 7
        gids = rng.integers(0, ngroups, size=n)
        values = random_values(rng, n)
        retractable = RetractableGroupedSummation(p, ngroups)
        retractable.add_pairs(gids, values)
        assert (
            retractable.render().state_tuples()
            == scratch_state(p, gids, values, ngroups).state_tuples()
        )
        assert np.array_equal(
            retractable.finalize().view(np.uint64),
            scratch_state(p, gids, values, ngroups).finalize().view(np.uint64),
        )

    def test_render_matches_scratch_binary32(self):
        rng = np.random.default_rng(11)
        p = params(2, BINARY32)
        n, ngroups = 300, 5
        gids = rng.integers(0, ngroups, size=n)
        values = random_values(rng, n).astype(np.float32)
        retractable = RetractableGroupedSummation(p, ngroups)
        retractable.add_pairs(gids, values)
        assert (
            retractable.render().state_tuples()
            == scratch_state(p, gids, values, ngroups).state_tuples()
        )

    def test_chunk_split_invisible(self):
        rng = np.random.default_rng(13)
        p = params()
        n, ngroups = 400, 3
        gids = rng.integers(0, ngroups, size=n)
        values = random_values(rng, n)
        whole = RetractableGroupedSummation(p, ngroups)
        whole.add_pairs(gids, values)
        pieces = RetractableGroupedSummation(p, ngroups)
        for start in range(0, n, 37):
            pieces.add_pairs(gids[start:start + 37], values[start:start + 37])
        assert whole.state_identity() == pieces.state_identity()

    def test_empty_groups_render_empty(self):
        p = params()
        retractable = RetractableGroupedSummation(p, 4)
        retractable.add_pairs(np.array([1, 1]), np.array([0.5, 0.25]))
        rendered = retractable.render()
        scratch = scratch_state(p, [1, 1], np.array([0.5, 0.25]), 4)
        assert rendered.state_tuples() == scratch.state_tuples()

    def test_zeros_and_specials_only(self):
        p = params()
        gids = np.array([0, 0, 1, 1, 2])
        values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
        retractable = RetractableGroupedSummation(p, 3)
        retractable.add_pairs(gids, values)
        assert (
            retractable.render().state_tuples()
            == scratch_state(p, gids, values, 3).state_tuples()
        )


class TestRoundTrip:
    def test_insert_retract_restores_identity(self):
        rng = np.random.default_rng(17)
        p = params()
        n, ngroups = 300, 5
        gids = rng.integers(0, ngroups, size=n)
        values = random_values(rng, n)
        state = RetractableGroupedSummation(p, ngroups)
        state.add_pairs(gids, values)
        before = state.state_identity()

        extra_gids = rng.integers(0, ngroups, size=80)
        extra = random_values(rng, 80)
        state.add_pairs(extra_gids, extra)
        assert state.state_identity() != before
        state.retract_pairs(extra_gids, extra)
        assert state.state_identity() == before

    def test_retracting_the_maximum_unpins_the_ladder(self):
        """The case the truncated state cannot invert: the retracted
        value had promoted the ladder, discarding low bins."""
        p = params()
        small = np.array([1.0, 2.0**-45, 3.0 * 2.0**-50])
        gids = np.zeros(3, dtype=np.int64)
        state = RetractableGroupedSummation(p, 1)
        state.add_pairs(gids, small)
        before = state.state_identity()
        before_scratch = scratch_state(p, gids, small, 1).state_tuples()

        # A huge value promotes the rendered ladder far above the
        # small values' bins...
        state.add_pairs(np.array([0]), np.array([2.0**90]))
        promoted = state.render().state_tuples()
        assert promoted != before_scratch
        # ...and retracting it restores both the full state and the
        # from-scratch rendering, bins and all.
        state.retract_pairs(np.array([0]), np.array([2.0**90]))
        assert state.state_identity() == before
        assert state.render().state_tuples() == before_scratch

    def test_retract_to_empty(self):
        rng = np.random.default_rng(19)
        p = params()
        gids = rng.integers(0, 3, size=120)
        values = random_values(rng, 120)
        state = RetractableGroupedSummation(p, 3)
        empty = state.state_identity()
        state.add_pairs(gids, values)
        state.retract_pairs(gids, values)
        assert state.state_identity() == empty
        assert state.render().state_tuples() == GroupedSummation(
            p, 3
        ).state_tuples()

    def test_special_values_round_trip(self):
        p = params()
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
        gids = np.arange(6, dtype=np.int64) % 2
        state = RetractableGroupedSummation(p, 2)
        state.add_pairs(np.array([0]), np.array([1.5]))
        before = state.state_identity()
        state.add_pairs(gids, specials)
        state.retract_pairs(gids, specials)
        assert state.state_identity() == before


class TestInterleavings:
    def test_random_interleavings_match_survivors_scratch(self):
        rng = np.random.default_rng(23)
        p = params()
        ngroups = 4
        state = RetractableGroupedSummation(p, ngroups)
        live_gids: list[int] = []
        live_vals: list[float] = []
        for _ in range(30):
            op = rng.random()
            if op < 0.6 or not live_gids:
                count = int(rng.integers(1, 40))
                gids = rng.integers(0, ngroups, size=count)
                values = random_values(rng, count, with_specials=False)
                if rng.random() < 0.3:
                    values[0] = rng.choice(
                        [np.nan, np.inf, -np.inf, -0.0, 2.0**80]
                    )
                state.add_pairs(gids, values)
                live_gids.extend(gids.tolist())
                live_vals.extend(values.tolist())
            else:
                count = int(rng.integers(1, min(len(live_gids), 25) + 1))
                picks = rng.choice(len(live_gids), size=count, replace=False)
                picks = sorted(picks.tolist(), reverse=True)
                gids = np.array([live_gids[i] for i in picks])
                values = np.array([live_vals[i] for i in picks])
                state.retract_pairs(gids, values)
                for i in picks:
                    live_gids.pop(i)
                    live_vals.pop(i)
        scratch = scratch_state(
            p, np.array(live_gids, dtype=np.int64),
            np.array(live_vals), ngroups,
        )
        assert state.render().state_tuples() == scratch.state_tuples()

    def test_merge_equals_bulk_insert(self):
        rng = np.random.default_rng(29)
        p = params()
        ngroups = 5
        gids = rng.integers(0, ngroups, size=200)
        values = random_values(rng, 200)
        left = RetractableGroupedSummation(p, ngroups)
        left.add_pairs(gids[:90], values[:90])
        right = RetractableGroupedSummation(p, ngroups)
        right.add_pairs(gids[90:], values[90:])
        left.merge(right)
        whole = RetractableGroupedSummation(p, ngroups)
        whole.add_pairs(gids, values)
        assert left.state_identity() == whole.state_identity()


class TestGuards:
    def test_ladder_overflow_parity(self):
        p = params()
        state = RetractableGroupedSummation(p, 1)
        with pytest.raises(LadderOverflowError):
            state.add_pairs(np.array([0]), np.array([1e308]))

    def test_shape_and_range_checks(self):
        p = params()
        state = RetractableGroupedSummation(p, 2)
        with pytest.raises(ValueError):
            state.add_pairs(np.array([0, 1]), np.array([1.0]))
        with pytest.raises(IndexError):
            state.add_pairs(np.array([5]), np.array([1.0]))
        with pytest.raises(ValueError):
            state.resize(1)

    def test_resize_preserves_bits(self):
        p = params()
        state = RetractableGroupedSummation(p, 2)
        state.add_pairs(np.array([0, 1]), np.array([1.5, -2.5]))
        before = state.render().state_tuples()
        state.resize(6)
        assert state.render().state_tuples()[:2] == before
