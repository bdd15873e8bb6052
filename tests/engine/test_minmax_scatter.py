"""MIN / MAX fold by scatter, held against the reference's sort-and-reduce.

:class:`~repro.engine.aggregates.MinMaxState` folds each morsel in with
``np.minimum.at`` / ``np.maximum.at`` and merges a partial the same
way.  The reference (:func:`reference_table.reference_extremes`) sorts
each chunk stably by group, reduces each run with ``reduceat`` and
states the zero and NaN rules on its own.  The two agree bit for bit,
NaN payloads included, over any chunking and a merge through a
mapping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_table import reference_extremes
from repro.engine.aggregates import MinMaxState


def _floats(dtype, bits_dtype, nan_bits, tiny):
    specials = [0.0, -0.0, 1.5, -1.5, 2.0, np.inf, -np.inf, tiny, -tiny]
    return np.concatenate([
        np.array(specials, dtype=dtype),
        np.array(nan_bits, dtype=bits_dtype).view(dtype),
    ])


#: per dtype, the values a column draws from: both zeros, infinities,
#: subnormals and NaNs with payloads (quiet, signalling, negative)
POOLS = {
    "float64": _floats(
        np.float64, np.uint64,
        [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000ABC,
         0x7FF0000000000003, 0xFFF4000000000000], 5e-324),
    "float32": _floats(
        np.float32, np.uint32,
        [0x7FC00000, 0x7FC00001, 0xFFC00ABC, 0x7F800003, 0xFFA00000],
        np.float32(1e-45)),
    "int64": np.array([0, 1, -1, 7, np.iinfo(np.int64).min,
                       np.iinfo(np.int64).max], dtype=np.int64),
    "object": np.array(["", "a", "b", "ab", "ba"], dtype=object),
}


@st.composite
def chunked_columns(draw):
    """``(is_min, pool, values, gids, cuts, to_partial, mapping)``:
    a column cut into chunks, each folded into the main state or the
    partial that is merged into it through ``mapping``."""
    pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    n = draw(st.integers(0, 60))
    ngroups = draw(st.integers(1, 6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n, max_size=n))
    gids = draw(st.lists(st.integers(0, ngroups - 1), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    to_partial = draw(st.lists(st.booleans(), min_size=len(cuts) + 1,
                               max_size=len(cuts) + 1))
    mapping = draw(st.permutations(range(ngroups)))
    return (draw(st.booleans()), pool, pool[np.array(picks, dtype=np.intp)],
            np.array(gids, dtype=np.int64), cuts, to_partial,
            np.array(mapping, dtype=np.int64), ngroups)


def _held(state: MinMaxState):
    held = state.extremes[state.seen]
    if held.dtype == object:
        return state.seen.tolist(), held.tolist()
    return state.seen.tolist(), held.tobytes()


@settings(max_examples=300, deadline=None)
@given(chunked_columns())
def test_scatter_equals_sort_and_reduce(case):
    is_min, pool, values, gids, cuts, to_partial, mapping, ngroups = case
    main, partial = MinMaxState(None, is_min), MinMaxState(None, is_min)
    ref_main, ref_partial = MinMaxState(None, is_min), MinMaxState(None, is_min)
    for ref in (ref_main, ref_partial):
        ref._grow(ngroups, pool.dtype)
    for chunk_gids, chunk, partial_side in zip(
            np.split(gids, cuts), np.split(values, cuts), to_partial):
        state, ref = (partial, ref_partial) if partial_side \
            else (main, ref_main)
        state.add(chunk, chunk_gids, None, ngroups)
        reference_extremes(ref, chunk_gids, chunk)
    main.merge(partial, mapping, ngroups)
    src = np.flatnonzero(ref_partial.seen)
    reference_extremes(ref_main, mapping[src], ref_partial.extremes[src])
    if main.extremes is None:  # no chunk went anywhere
        assert not ref_main.seen.any()
    else:
        assert _held(main) == _held(ref_main)


@pytest.mark.parametrize("is_min", (True, False), ids=("MIN", "MAX"))
def test_zero_sign_ignores_arrival_order(is_min):
    # every order of one group's zeros gives the IEEE 754-2019 extreme
    for values in ([0.0, -0.0], [-0.0, 0.0], [0.0, 0.0, -0.0, 0.0]):
        state = MinMaxState(None, is_min)
        state.add(np.array(values), np.zeros(len(values), np.int64), None, 1)
        expected = -0.0 if is_min else 0.0
        assert np.signbit(state.finalize(1)[0]) == np.signbit(expected)


def test_sorted_morsel_is_retired_naming_its_successor():
    with pytest.raises(ImportError, match="np.minimum.at") as err:
        from repro.engine import SortedMorsel  # noqa: F401
    assert "plain dict" in str(err.value)
