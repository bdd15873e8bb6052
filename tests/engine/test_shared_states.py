"""Metamorphic property of the shared-state plan.

The group table builds one physical state per distinct (argument, mode,
levels) and lets every aggregate that needs it read it: ``AVG(x)`` is
``SUM(x)``'s state over the common COUNT, the six VARIANCE / STDDEV
spellings read one second-moment state.  Sharing is only sound if it is
invisible: an aggregate must return the same bits alone as next to any
set of neighbours in one SELECT — in every sum mode, over values that
send rows down every ladder path.  The same property pins the batched
ladder update: alone, a state's ladder gets a call of its own; among
neighbours of equal parameters it shares one.
"""

import itertools

import numpy as np
import pytest

from repro.engine import Database

AGGREGATES = (
    "AVG(x)", "VARIANCE(x)", "VAR_SAMP(x)", "VAR_POP(x)", "STDDEV(x)",
    "STDDEV_SAMP(x)", "STDDEV_POP(x)", "SUM(x)", "COUNT(*)", "RSUM(x, 3)",
)
#: (mode, ladder levels); at three levels SUM(x) and RSUM(x, 3) share
#: one state
MODES = [
    pytest.param("ieee", 2, id="ieee"),
    pytest.param("repro", 2, id="repro"),
    pytest.param("repro", 3, id="repro-levels3"),
]


def _role_values(rng):
    """One group per value role of ``TestRowPartition`` (see
    tests/aggregation/test_blocked_ladder.py): warm rows on the
    prevailing ladder, an off-ladder straggler group, a group whose row
    raises the ladder, ±inf, NaN, subnormals, zeros only."""
    def spread(count, lo, hi):
        return rng.choice([-1.0, 1.0], count) * np.ldexp(
            rng.uniform(1.0, 2.0, count), rng.integers(lo, hi + 1, count)
        )

    groups = {
        0: spread(180, -4, 8),                       # warm
        1: spread(40, -120, -100),                   # off-ladder straggler
        2: np.append(spread(30, -4, 8), 2.0 ** 90),  # raises the ladder
        3: np.append(spread(20, -4, 8), [np.inf, -np.inf]),
        4: np.append(spread(20, -4, 8), [np.nan]),
        5: np.append(spread(20, -4, 8), [5e-324, -2.5e-320, 1e-310]),
        6: np.zeros(7),
        7: np.append(spread(10, -4, 8), [np.inf]),   # inf without -inf
    }
    keys = np.concatenate([np.full(len(v), k) for k, v in groups.items()])
    values = np.concatenate(list(groups.values()))
    order = rng.permutation(len(keys))
    return keys[order].astype(np.int64), values[order]


def _bits(result):
    return {
        name: np.asarray(arr).tobytes()
        for name, arr in zip(result.names, result.arrays)
    }


def _select(aggregates):
    items = ", ".join(
        f"{sql} AS a{AGGREGATES.index(sql)}" for sql in aggregates
    )
    return f"SELECT k, {items} FROM t GROUP BY k ORDER BY k"


@pytest.mark.parametrize("mode, levels", MODES)
@pytest.mark.parametrize("knobs", (
    {}, {"workers": 2, "morsel_size": 64},
), ids=("default", "w2m64"))
def test_every_aggregate_returns_the_same_bits_alone_and_combined(mode, levels,
                                                                 knobs):
    rng = np.random.default_rng(20180416)
    keys, values = _role_values(rng)
    db = Database(sum_mode=mode, levels=levels, **knobs)
    db.execute("CREATE TABLE t (k INT, x DOUBLE)")
    db.table("t").bulk_load({"k": keys, "x": values})

    alone = {}
    for sql in AGGREGATES:
        alone.update(_bits(db.execute(_select([sql]))))
    keys_bits = alone.pop("k")

    combos = [list(AGGREGATES), list(reversed(AGGREGATES))]
    combos += [list(pair) for pair in itertools.combinations(
        ("AVG(x)", "SUM(x)", "COUNT(*)", "STDDEV(x)", "RSUM(x, 3)"), 2
    )]
    for _ in range(8):
        size = int(rng.integers(2, len(AGGREGATES)))
        combos.append(list(rng.permutation(AGGREGATES)[:size]))
    for combo in combos:
        got = _bits(db.execute(_select(combo)))
        assert got.pop("k") == keys_bits
        for name, bits in got.items():
            assert bits == alone[name], (mode, levels, combo, name)
    db.close()


def test_role_values_reach_both_ladder_paths():
    """The property above is only as strong as its input: the values
    must send rows down the scatter *and* the sorted walk."""
    keys, values = _role_values(np.random.default_rng(20180416))
    db = Database(sum_mode="repro")
    db.execute("CREATE TABLE t (k INT, x DOUBLE)")
    db.table("t").bulk_load({"k": keys, "x": values})
    db.execute(_select(["SUM(x)"]))
    stats = db.last_pipeline_stats
    assert stats.ladder_rows_scatter > 0 and stats.ladder_rows_reference > 0
    db.close()
