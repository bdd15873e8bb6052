"""COUNT(DISTINCT) adds each morsel's members one group at a time.

:meth:`~repro.engine.aggregates.DistinctState.update` takes the
morsel's distinct ``(group, member)`` pairs sorted by group and hands
each touched group's run to one ``set.update``.  Held against the
per-pair reference — one ``set.add`` per distinct pair, in pair order
— the sets, their iteration order, the ``dump`` payload,
``member_count`` and the finalized counts agree over any chunking.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import DistinctState, _canonical_distinct_codes
from repro.engine.sql import ast

ARG = ast.ColumnRef("v")

#: per dtype, the values a column draws from (both zeros and two NaN
#: payloads are one member each)
POOLS = {
    "float64": np.array(
        [0.0, -0.0, 1.5, -1.5, np.inf,
         *np.array([0x7FF8000000000000, 0xFFF8000000000ABC],
                   dtype=np.uint64).view(np.float64)]),
    "int64": np.array([0, 1, -1, 7, np.iinfo(np.int64).min], dtype=np.int64),
    "object": np.array(["", "a", "b", None, "ab"], dtype=object),
}


class _Batch:
    def __init__(self, values):
        self.values = values
        self.nrows = len(values)


class _Cache:
    def values(self, expr, nrows):
        assert expr is ARG
        return self.batch.values


def _feed(state, chunks, ngroups):
    cache = _Cache()
    for values, gids in chunks:
        cache.batch = _Batch(values)
        state.update(cache.batch, cache, gids, {}, ngroups)


def _reference(chunks, ngroups):
    """One ``set.add`` per distinct pair, pairs in sorted order."""
    groups = [set() for _ in range(ngroups)]
    for values, gids in chunks:
        codes, members = _canonical_distinct_codes(values)
        base = max(len(members), 1)
        pairs = sorted(set((gids * base + codes).tolist()))
        for pair in pairs:
            gid, code = divmod(pair, base)
            groups[gid].add(members[code])
    return groups


@st.composite
def chunked(draw):
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    ngroups = draw(st.integers(1, 6))
    chunks = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 40))
        picks = draw(st.lists(st.integers(0, len(pool) - 1),
                              min_size=n, max_size=n))
        gids = draw(st.lists(st.integers(0, ngroups - 1),
                             min_size=n, max_size=n))
        chunks.append((pool[np.array(picks, dtype=np.intp)],
                       np.array(gids, dtype=np.int64)))
    return chunks, ngroups


@settings(max_examples=150, deadline=None)
@given(chunked())
def test_group_runs_match_per_pair_adds(case):
    chunks, ngroups = case
    state = DistinctState(ARG)
    _feed(state, chunks, ngroups)
    want = _reference(chunks, ngroups)
    assert [list(g) for g in state.groups] == [list(g) for g in want]
    assert state.dump()["sets"] == want
    assert state.member_count == sum(len(g) for g in want)
    assert state.finalize(ngroups).tolist() == [len(g) for g in want]


def test_member_count_counts_only_new_members():
    state = DistinctState(ARG)
    values = np.array([1.0, 2.0, 1.0, 3.0, -0.0, 0.0])
    gids = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
    _feed(state, [(values, gids), (values, gids)], 3)
    assert state.member_count == 4
    assert state.finalize(3).tolist() == [2, 2, 0]
