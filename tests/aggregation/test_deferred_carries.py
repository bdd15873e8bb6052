"""The compiled update defers carry propagation; the bits do not move.

:func:`add_blocked_multi` leaves each level sum unpropagated across
calls while its int64 headroom lasts (:meth:`GroupedSummation.reserve`:
at most :attr:`~GroupedSummation.block_rows` rows between two
propagations), and every reader of the canonical sums settles them
first — :meth:`~GroupedSummation.finalize` in its own loop,
``state_tuples``, ``s`` / ``c``, ``exact``, ``merge``.  These properties
feed many calls at ``W = 50`` and ``49`` (4 096 / 8 192 rows of
headroom) with rows as large as the ladder takes, of one sign per
group, so a missed propagation would overflow a level; every state and
result must equal the reference ``add_pairs`` fed the same rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.fp.formats import BINARY64


@st.composite
def _feeds(draw):
    """``(params, ngroups, calls, reads)``: per call the rows each of
    two tables gets, and after which calls a reader looks."""
    params = RsumParams(BINARY64, draw(st.sampled_from((2, 3, 4))),
                        draw(st.sampled_from((49, 50))))
    ngroups = draw(st.sampled_from((1, 3, 64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # one sign per group, magnitudes just under the ladder's top: every
    # row adds close to 2**(W-1) to the top level of its group
    sign = np.where(rng.random(ngroups) < 0.5, -1.0, 1.0)
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.sampled_from((1, 5, 600, 3000, 5000)))
        gids = rng.integers(0, ngroups, size)
        rows = []
        for _ in range(2):
            vals = sign[gids] * rng.uniform(0.5, 0.999, size) * 2.0**47
            if draw(st.booleans()):  # a few rows far below the top
                vals[::7] *= 2.0 ** -draw(st.integers(1, 90))
            rows.append(vals)
        calls.append((gids, rows))
    reads = draw(st.sets(st.integers(0, len(calls) - 1), max_size=3))
    return params, ngroups, calls, reads


def _state(table) -> tuple:
    # finalize first: it settles the sums itself, in its own loop
    bits = table.finalize().tobytes()
    return table.state_tuples(), bits


@settings(max_examples=60, deadline=None)
@given(_feeds())
def test_deferred_carries_equal_the_reference(feed):
    params, ngroups, calls, reads = feed
    blocked = [GroupedSummation(params, ngroups) for _ in range(2)]
    reference = [GroupedSummation(params, ngroups) for _ in range(2)]
    counters = LadderCounters()
    for i, (gids, rows) in enumerate(calls):
        add_blocked_multi(blocked, gids, rows, counters)
        for table, vals in zip(reference, rows):
            table.add_pairs(gids, vals)
        if i in reads:
            for got, want in zip(blocked, reference):
                assert _state(got) == _state(want)
    assert counters.scatter > 0
    for got, want in zip(blocked, reference):
        assert got._pending <= got.block_rows
        assert _state(got) == _state(want)
        integers, exponents, nonfinite = got.exact()
        ref_integers, ref_exponents, _ = want.exact()
        assert integers.tolist() == ref_integers.tolist()
        assert exponents.tolist() == ref_exponents.tolist()
        assert not nonfinite.any()


@settings(max_examples=30, deadline=None)
@given(_feeds())
def test_a_merge_of_unsettled_tables_equals_the_reference(feed):
    params, ngroups, calls, _ = feed
    left, right = (GroupedSummation(params, ngroups) for _ in range(2))
    reference = GroupedSummation(params, ngroups)
    for i, (gids, rows) in enumerate(calls):
        add_blocked_multi([left if i % 2 else right], gids, rows[:1])
        reference.add_pairs(gids, rows[0])
    left.merge(right)
    assert _state(left) == _state(reference)
