"""Which ladder update the served statements reach — pinned, not remembered.

``add_blocked_multi`` scatters the rows on their table's prevailing
ladder and hands the rest to the reference chunk update, which costs
several times more per row.  That is only acceptable while served rows
do not go there, so the four statement shapes ``BENCHMARK.json`` serves
run here at default knobs and the engine's own counters are asserted:
no reference rows on TPC-H Q1, Q3 and the paper's pairs input, under a
tenth on the filtered sixty-binade ``obs`` statement — and none of
them sorts a morsel (only MIN/MAX reads the group table's lazy sort).
A kernel change that starts declining served rows fails this file.
"""

import numpy as np
import pytest

from repro.engine import Database
from repro.engine.vectorized import SortedMorsel
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


@pytest.mark.parametrize("shape", SERVED)
def test_served_rows_scatter(shape, monkeypatch):
    load, sql, ceiling = SERVED[shape]
    db = Database(sum_mode="repro")  # every knob at its default
    load(db)
    sorts = []
    real = SortedMorsel._ensure

    def spy(morsel):
        sorts.append(morsel)
        real(morsel)

    monkeypatch.setattr(SortedMorsel, "_ensure", spy)
    db.execute(sql)
    assert not sorts
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
    counters = db.last_timings.counters
    assert (counters["ladder_rows_scatter"], counters["ladder_rows_reference"],
            counters["ladder_first_decline"]) == (
        stats.ladder_rows_scatter, stats.ladder_rows_reference,
        stats.ladder_first_decline)
