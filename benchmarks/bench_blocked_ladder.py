"""The ladder update alone, many small groups.

``rsum_add_blocked_highcard``: the paper's pairs input through
``add_blocked_multi`` the way the engine feeds it — the regime where
groups are first seen mid-input and the row partition decides between
the scatter and the reference.  ``rsum_add_blocked_declined``: the same
keys with values of ±2**U(-30, 30), where most rows belong to groups
not yet on the prevailing ladder and take the reference — the only
number the cold path has.  ``rsum_add_blocked_q1``: TPC-H Q1's five
ladder inputs (the SUM and AVG arguments) into its 4 groups at SF 0.05,
all five tables in one call per block — the kernel under ``q1_lowcard``,
timed beside its IEEE twin (``np.bincount`` per input), so the ladder's
own cost over a plain sum reads off one line; it also records the time
spent inside the ``ctypes`` kernel calls, so the share the Python
wrapper adds to the ladder call reads off the same line, and how many
calls a pass makes (one per morsel: a block is cut by int64 headroom
alone, ``GroupedSummation.block_rows``).  Kernel
micro-entries (``groupby_highcard`` in ``BENCH_<pr>.json`` is dominated by key
registration, and no served statement declines more than 4 % of its
rows), which is why they stay in ``baseline.json``; the query-level
numbers live in the end-to-end benchmark.
"""

import datetime

import gc
import time
from unittest import mock

import numpy as np
from _common import (
    emit,
    ns_per_element,
    record_config,
    record_kernel,
    standard_pairs,
)
from repro.aggregation import grouped as grouped_mod
from repro.aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.engine import DEFAULT_MORSEL_SIZE
from repro.fp.formats import BINARY64
from repro.tpch.dbgen import generate_lineitem_arrays

ROUNDS = 7

PAIRS_ROWS = 2**18
PAIRS_GROUPS = 2**15


def _first_seen_gids(keys: np.ndarray) -> np.ndarray:
    """Group ids in first-seen order, as the engine's key table assigns."""
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    return np.argsort(np.argsort(first))[inverse].astype(np.int64)


def _report(regime: str, gids: np.ndarray, values: np.ndarray,
            distribution: str, expect) -> None:
    """``rsum_add_blocked_<regime>``: time ``add_blocked_multi`` over
    the input a morsel at a time into a table that grows as groups
    arrive; ``expect(counters)`` is the regime the entry measures."""
    name = f"rsum_add_blocked_{regime}"
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
    assert expect(counters), (
        counters.scatter, counters.reference, counters.first_decline)

    best = float("inf")
    for _ in range(ROUNDS):
        gc.collect()
        started = time.perf_counter()
        update(None)
        best = min(best, time.perf_counter() - started)

    record_kernel(name, ns_per_element(best, PAIRS_ROWS))
    record_config(name, rows=PAIRS_ROWS,
                  groups=PAIRS_GROUPS, distribution=distribution,
                  morsel_size=DEFAULT_MORSEL_SIZE, tables=1,
                  scatter_rows=counters.scatter,
                  reference_rows=counters.reference)
    emit(
        f"blocked_ladder_{regime}",
        f"add_blocked_multi on {PAIRS_ROWS} rows of {distribution} into "
        f"{PAIRS_GROUPS} groups at morsel={DEFAULT_MORSEL_SIZE}: "
        f"{best * 1e3:.2f} ms, "
        f"{ns_per_element(best, PAIRS_ROWS):.1f} ns/element; "
        f"{counters.scatter} rows scattered, {counters.reference} took "
        f"the reference.",
    )


def test_blocked_ladder_highcard_report():
    """The ladder update on ``make_pairs(2**18, 2**15, "Exp(1)")``: 8
    rows per group, every morsel registering new groups."""
    keys, values = standard_pairs(PAIRS_ROWS, PAIRS_GROUPS)
    _report("highcard", _first_seen_gids(keys), values,
            "Exp(1)", lambda c: c.scatter >= 0.8 * PAIRS_ROWS)


def test_blocked_ladder_declined_report():
    """The same keys under sixty binades of mixed sign: only a row near
    the top of its morsel puts a group on the prevailing ladder, so
    most rows are declined and take ``add_pairs``."""
    keys, _ = standard_pairs(PAIRS_ROWS, PAIRS_GROUPS)
    rng = np.random.default_rng(1)
    values = (rng.choice([-1.0, 1.0], size=PAIRS_ROWS)
              * np.exp2(rng.uniform(-30, 30, PAIRS_ROWS)))
    _report("declined", _first_seen_gids(keys), values,
            "+-2**U(-30, 30)", lambda c: c.reference >= 0.8 * PAIRS_ROWS)


Q1_SCALE = 0.05
Q1_GROUPS = 4


def _q1_inputs():
    """Q1's rows after its WHERE: group ids over (returnflag,
    linestatus) and the five ladder inputs."""
    data = generate_lineitem_arrays(Q1_SCALE)
    keep = data["l_shipdate"] <= datetime.date(1998, 9, 2).toordinal()
    _, gids = np.unique(
        data["l_returnflag"][keep] + data["l_linestatus"][keep],
        return_inverse=True)
    price = data["l_extendedprice"][keep]
    disc = data["l_discount"][keep]
    disc_price = price * (1 - disc)
    return gids.ravel().astype(np.int64), [
        data["l_quantity"][keep], price, disc_price,
        disc_price * (1 + data["l_tax"][keep]), disc]


def _best(run) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        gc.collect()
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


class _StopwatchKernel:
    """The loaded kernel with a stopwatch around each ``ctypes`` call:
    ``seconds`` sums the time spent inside the compiled code, ``calls``
    counts the calls."""

    def __init__(self, kernel):
        self.seconds = 0.0
        self.calls = 0
        self.block = {dtype: self._timed(fn)
                      for dtype, fn in kernel.block.items()}
        self.declined = {dtype: self._timed(fn)
                         for dtype, fn in kernel.declined.items()}

    def _timed(self, fn):
        def call(*args):
            self.calls += 1
            started = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += time.perf_counter() - started
        return call


def _inside_kernel_share(run) -> tuple:
    """The share of ``run``'s time spent inside kernel calls, in its
    fastest of ``ROUNDS`` stopwatched rounds (both clocks in the same
    round, so the share never exceeds 1), and the kernel calls one
    ``run`` makes."""
    best, share = float("inf"), 0.0
    for _ in range(ROUNDS):
        stopwatch = _StopwatchKernel(grouped_mod._KERNEL)
        gc.collect()
        with mock.patch.object(grouped_mod, "_KERNEL", stopwatch):
            started = time.perf_counter()
            run()
            elapsed = time.perf_counter() - started
        if elapsed < best:
            best, share = elapsed, stopwatch.seconds / elapsed
    return share, stopwatch.calls


def test_blocked_ladder_q1_report():
    """The ladder update under TPC-H Q1: five tables, 4 groups, one
    call per block; bit-equal to per-table ``add_pairs``."""
    name = "rsum_add_blocked_q1"
    gids, cols = _q1_inputs()
    rows = gids.size
    params = RsumParams(BINARY64)
    morsel = DEFAULT_MORSEL_SIZE

    def ladder(counters=None):
        tables = [GroupedSummation(params, Q1_GROUPS) for _ in cols]
        for pos in range(0, rows, morsel):
            add_blocked_multi(tables, gids[pos:pos + morsel],
                              [col[pos:pos + morsel] for col in cols],
                              counters)
        return tables

    def ieee():
        for pos in range(0, rows, morsel):
            span = gids[pos:pos + morsel]
            for col in cols:
                np.bincount(span, weights=col[pos:pos + morsel],
                            minlength=Q1_GROUPS)

    counters = LadderCounters()
    for table, col in zip(ladder(counters), cols):
        reference = GroupedSummation.from_pairs(params, gids, col, Q1_GROUPS)
        assert table.state_tuples() == reference.state_tuples()
        assert table.finalize().tobytes() == reference.finalize().tobytes()
    assert (counters.scatter, counters.reference) == (len(cols) * rows, 0)

    best, best_ieee = _best(ladder), _best(ieee)
    share, kernel_calls = _inside_kernel_share(ladder)
    inside = best * share
    # one block per morsel: 5 at SF 0.05
    assert kernel_calls == -(-rows // morsel), kernel_calls
    record_kernel(name, ns_per_element(best, rows))
    record_config(name, rows=rows, groups=Q1_GROUPS, scale_factor=Q1_SCALE,
                  morsel_size=morsel, tables=len(cols),
                  kernel_calls=kernel_calls,
                  ieee_bincount_ns_per_element=round(
                      ns_per_element(best_ieee, rows), 4),
                  kernel_calls_ns_per_element=round(
                      ns_per_element(inside, rows), 4))
    emit(
        "blocked_ladder_q1",
        f"add_blocked_multi on TPC-H Q1's {len(cols)} ladder inputs, "
        f"{rows} rows into {Q1_GROUPS} groups (SF {Q1_SCALE}, "
        f"morsel={morsel}): {best * 1e3:.2f} ms, "
        f"{ns_per_element(best, rows):.1f} ns/row, of which "
        f"{inside * 1e3:.2f} ms inside {kernel_calls} ctypes kernel calls "
        f"(wrapper "
        f"{1 - inside / best:.0%}); IEEE np.bincount over "
        f"the same inputs: {best_ieee * 1e3:.2f} ms, "
        f"{ns_per_element(best_ieee, rows):.1f} ns/row "
        f"(ladder / IEEE {best / best_ieee:.2f}x).",
    )
