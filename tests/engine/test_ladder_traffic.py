"""Which ladder update the served statements reach — pinned, not remembered.

``add_blocked_multi`` scatters the rows on their table's prevailing
ladder and hands the rest to the reference chunk update, which costs
several times more per row.  That is only acceptable while served rows
do not go there, so the four statement shapes ``BENCHMARK.json`` serves
run here at default knobs and the engine's own counters are asserted:
no reference rows on TPC-H Q1, Q3 and the paper's pairs input, under a
tenth on the filtered sixty-binade ``obs`` statement — and none of
them sorts a morsel once its group ids are known: every state updates
by scatter, MIN / MAX too.  A kernel change that starts declining
served rows, or a state that starts sorting, fails this file.
"""

import numpy as np
import pytest

from repro.engine import Database, VectorizedGroupTable
from repro.tpch import Q1_SQL, Q3_SQL, load_tpch
from repro.workloads import make_pairs


def _tpch(db):
    load_tpch(db, scale_factor=0.01)


def _pairs(db):
    keys, values = make_pairs(2**18, 2**15, "Exp(1)")  # the benchmark's input
    db.execute("CREATE TABLE pairs (k INT, v DOUBLE)")
    db.table("pairs").bulk_load({"k": keys.astype(np.int64), "v": values})


def _obs(db):
    rng = np.random.default_rng(11)
    n = 50_000
    db.execute("CREATE TABLE obs (k INT, v DOUBLE)")
    db.table("obs").bulk_load({
        "k": rng.permutation(np.arange(n) % 256),
        "v": rng.choice([-1.0, 1.0], size=n) * np.exp2(rng.uniform(-30, 30, n)),
    })


#: shape -> (load, statement, ceiling on the reference's share of rows)
SERVED = {
    "q1_lowcard": (_tpch, Q1_SQL, 0.0),
    "q3_join_topk": (_tpch, Q3_SQL, 0.0),
    "groupby_highcard": (
        _pairs, "SELECT k, SUM(v) AS s FROM pairs GROUP BY k", 0.0),
    "durable_mixed": (
        _obs,
        "SELECT k, SUM(v) AS s, COUNT(*) AS c FROM obs WHERE v > 0 GROUP BY k",
        0.1),
}


@pytest.fixture
def state_sorts(monkeypatch):
    """The ``np.argsort`` / ``np.sort`` / ``np.lexsort`` calls a group
    table makes while its states consume a morsel — inside
    :meth:`VectorizedGroupTable.update`, after the group ids are
    computed (:meth:`VectorizedGroupTable._group_ids` may sort keys)."""
    calls, phase = [], []

    def during(name, method):
        def wrapped(*args, **kwargs):
            phase.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                phase.pop()
        return wrapped

    monkeypatch.setattr(VectorizedGroupTable, "update",
                        during("states", VectorizedGroupTable.update))
    monkeypatch.setattr(VectorizedGroupTable, "_group_ids",
                        during("keys", VectorizedGroupTable._group_ids))
    for name in ("argsort", "sort", "lexsort"):
        def spy(*args, _real=getattr(np, name), _name=name, **kwargs):
            if phase and phase[-1] == "states":
                calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    return calls


@pytest.mark.parametrize("shape", SERVED)
def test_served_rows_scatter(shape, state_sorts):
    load, sql, ceiling = SERVED[shape]
    db = Database(sum_mode="repro")  # every knob at its default
    load(db)
    db.execute(sql)
    assert not state_sorts
    stats = db.last_pipeline_stats
    total = stats.ladder_rows_scatter + stats.ladder_rows_reference
    assert total > 0
    if ceiling:
        # sixty binades: the rows of groups not yet on the prevailing
        # ladder are declined, and must stay the small share they are
        assert 0 < stats.ladder_rows_reference < ceiling * total
        assert stats.ladder_first_decline == "off_ladder"
    else:
        assert stats.ladder_rows_reference == 0
        assert stats.ladder_first_decline is None


def test_min_max_sort_no_morsel(state_sorts):
    # keys in no order, so a sort by group id would have work to do
    rng = np.random.default_rng(5)
    keys = rng.permutation(np.arange(3000) % 37)
    values = rng.standard_normal(3000)
    db = Database(sum_mode="repro", morsel_size=1024)
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    db.table("t").bulk_load({"k": keys, "v": values})
    rows = db.execute(
        "SELECT k, MIN(v), MAX(v) FROM t GROUP BY k ORDER BY k").rows()
    assert not state_sorts
    assert [row[1:] for row in rows] == [
        (values[keys == k].min(), values[keys == k].max()) for k in range(37)]
