"""The ladder update alone, many small groups.

``rsum_add_blocked_highcard``: the paper's pairs input through
``add_blocked_multi`` the way the engine feeds it — the regime where
groups are first seen mid-input and the row partition decides between
the scatter and the sorted walk.  A kernel micro-entry with no
end-to-end twin (``groupby_highcard`` in ``BENCH_<pr>.json`` is
dominated by key registration), which is why it stays in
``baseline.json``; the query-level numbers live in the end-to-end
benchmark.
"""

import gc
import time

import numpy as np
from _common import (
    emit,
    ns_per_element,
    record_config,
    record_kernel,
    standard_pairs,
)
from repro.aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.engine import DEFAULT_MORSEL_SIZE
from repro.fp.formats import BINARY64

ROUNDS = 7

PAIRS_ROWS = 2**18
PAIRS_GROUPS = 2**15


def test_blocked_ladder_highcard_report():
    """The ladder update on ``make_pairs(2**18, 2**15, "Exp(1)")``: 8
    rows per group, every morsel registering new groups."""
    keys, values = standard_pairs(PAIRS_ROWS, PAIRS_GROUPS)
    # group ids in first-seen order, as the engine's key table assigns
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    gids = np.argsort(np.argsort(first))[inverse].astype(np.int64)
    params = RsumParams(BINARY64)

    def update(counters):
        grouped = GroupedSummation(params, 0)
        for pos in range(0, PAIRS_ROWS, DEFAULT_MORSEL_SIZE):
            morsel = gids[pos:pos + DEFAULT_MORSEL_SIZE]
            grouped.resize(max(grouped.ngroups, int(morsel.max()) + 1))
            add_blocked_multi(
                [grouped], morsel,
                [values[pos:pos + DEFAULT_MORSEL_SIZE]], counters)
        return grouped

    counters = LadderCounters()
    reference = GroupedSummation.from_pairs(
        params, gids, values, int(gids.max()) + 1)
    assert (update(counters).finalize().tobytes()
            == reference.finalize().tobytes())
    assert counters.scatter >= 0.8 * PAIRS_ROWS, (
        counters.scatter, counters.sorted, counters.first_decline)

    best = float("inf")
    for _ in range(ROUNDS):
        gc.collect()
        started = time.perf_counter()
        update(None)
        best = min(best, time.perf_counter() - started)

    record_kernel("rsum_add_blocked_highcard",
                  ns_per_element(best, PAIRS_ROWS))
    record_config("rsum_add_blocked_highcard", rows=PAIRS_ROWS,
                  groups=PAIRS_GROUPS, distribution="Exp(1)",
                  morsel_size=DEFAULT_MORSEL_SIZE, tables=1,
                  scatter_rows=counters.scatter, sorted_rows=counters.sorted)
    emit(
        "blocked_ladder_highcard",
        f"add_blocked_multi on make_pairs({PAIRS_ROWS}, {PAIRS_GROUPS}, "
        f"'Exp(1)') at morsel={DEFAULT_MORSEL_SIZE}: {best * 1e3:.2f} ms, "
        f"{ns_per_element(best, PAIRS_ROWS):.1f} ns/element; "
        f"{counters.scatter} rows scattered, {counters.sorted} walked sorted.",
    )
