"""Fused kernels end to end: TPC-H Q1 and Q3.

The headline is the acceptance gate that **reproducible Q1 must run
within 1.6x of IEEE Q1 at default knobs** — the paper's thesis is that
reproducibility is affordable, and the fused kernels
(:mod:`repro.engine.fused`) are what close the gap.  The floor is
enforced as a machine-relative ratio
(``q1_repro_fused_over_ieee_default``, floor ``1 / 1.6``) so it gates
reliably across runners: the same query, both sum modes, every knob at
its default — both engines as shipped — recorded with its morsel size.

Reported series, all at ``workers=1`` so no parallelism hides kernel
cost:

* **Q1 end-to-end** per sum mode at ``morsel_size=8192`` (the tracked
  ``q1_{ieee,repro}_fused`` kernels) and at the default morsel size
  (the gated ratio);
* **Q3 end-to-end** in repro mode (``q3_repro_fused``): the fused
  probe -> filter -> aggregate kernel;
* **the ladder update alone, many small groups**
  (``rsum_add_blocked_highcard``): the paper's pairs input through
  ``add_blocked_multi`` the way the engine feeds it — the regime where
  groups are first seen mid-input and the row partition decides
  between the scatter and the sorted walk.

There is one aggregate runtime and no switch to compare against: how
the kernels hold up against the interpreted table is the differential
tests' business (``tests/engine/test_fused.py``), not a bench axis.
Timings are interleaved round-robin in one process, which cancels the
machine's slow drift out of the ratio.
"""

import gc
import time

import numpy as np
from _common import (
    emit,
    ns_per_element,
    record_config,
    record_kernel,
    record_speedup,
    standard_pairs,
    table,
)
from repro.aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from repro.core.params import RsumParams
from repro.engine import DEFAULT_MORSEL_SIZE, Database
from repro.fp.formats import BINARY64
from repro.tpch import load_lineitem, load_tpch, run_q1, run_q3

SCALE = 0.01        # ~60k lineitem rows
MORSEL_SIZE = 8192
ROWS = int(SCALE * 6_000_000)
ROUNDS = 7

#: The acceptance gate: repro Q1 within 1.6x of IEEE Q1 with every knob
#: at its default, expressed as a speedup ratio floor (ieee / repro).
DEFAULT_RATIO_CEILING = 1.6


def _prepare(mode: str, morsel_size: int):
    db = Database(sum_mode=mode, workers=1, morsel_size=morsel_size)
    load_lineitem(db, scale_factor=SCALE)
    run_q1(db)  # warm-up: key dictionaries + kernel compile
    run_q1(db)  # second run replays the cached plan (kernel attached)
    stats = db.last_pipeline_stats
    assert stats.fused and stats.kernel_time() > 0.0
    assert db.execution_context.plan_cache_hits >= 1
    return db


def test_fused_q1_report():
    configs = [
        (mode, morsel_size)
        for morsel_size in (MORSEL_SIZE, DEFAULT_MORSEL_SIZE)
        for mode in ("ieee", "repro")
    ]
    dbs = {key: _prepare(*key) for key in configs}
    stats = dbs[("repro", DEFAULT_MORSEL_SIZE)].last_pipeline_stats
    assert stats.ladder_rows_scatter > 4 * stats.ladder_rows_sorted, (
        "the ladder scatter does not engage at the default morsel size"
    )

    best = {key: float("inf") for key in configs}
    for _ in range(ROUNDS):
        for key in configs:
            gc.collect()
            started = time.perf_counter()
            run_q1(dbs[key])
            best[key] = min(best[key], time.perf_counter() - started)

    for mode in ("ieee", "repro"):  # the default-knob pair is gated as a ratio
        record_kernel(f"q1_{mode}_fused",
                      ns_per_element(best[(mode, MORSEL_SIZE)], ROWS))
    default_ratio = (best[("repro", DEFAULT_MORSEL_SIZE)]
                     / best[("ieee", DEFAULT_MORSEL_SIZE)])
    record_speedup("q1_repro_fused_over_ieee_default", 1.0 / default_ratio)
    record_config("q1_repro_fused_over_ieee_default",
                  morsel_size=DEFAULT_MORSEL_SIZE, numerator="ieee fused",
                  denominator="repro fused", scale_factor=SCALE, workers=1)

    emit(
        "fused_q1",
        table(
            ["mode", f"morsel={MORSEL_SIZE} ms",
             f"morsel={DEFAULT_MORSEL_SIZE} ms"],
            [
                [
                    mode,
                    round(best[(mode, MORSEL_SIZE)] * 1e3, 2),
                    round(best[(mode, DEFAULT_MORSEL_SIZE)] * 1e3, 2),
                ]
                for mode in ("ieee", "repro")
            ],
            title=f"TPC-H Q1 (SF={SCALE}, workers=1): fused kernels",
        ),
        f"repro / ieee = {default_ratio:.2f}x at the default "
        f"morsel={DEFAULT_MORSEL_SIZE} (ceiling {DEFAULT_RATIO_CEILING}x).",
    )

    assert default_ratio <= DEFAULT_RATIO_CEILING, (
        f"at default knobs repro Q1 runs {default_ratio:.2f}x the IEEE "
        f"time, above the {DEFAULT_RATIO_CEILING}x ceiling"
    )


def test_fused_join_report():
    """TPC-H Q3, repro mode, under the fused join-probe kernel."""
    db = Database(sum_mode="repro", workers=1, morsel_size=MORSEL_SIZE)
    load_tpch(db, scale_factor=SCALE)
    run_q3(db)  # warm-up: join build + kernel compile
    run_q3(db)  # second run hits the plan/kernel caches
    assert db.last_pipeline_stats.fused

    best = float("inf")
    for _ in range(ROUNDS):
        gc.collect()
        started = time.perf_counter()
        run_q3(db)
        best = min(best, time.perf_counter() - started)

    # Normalised by probe-side (lineitem) rows, like the Q1 series.
    record_kernel("q3_repro_fused", ns_per_element(best, ROWS))

    emit(
        "fused_join",
        f"TPC-H Q3 repro (SF={SCALE}, morsel={MORSEL_SIZE}, workers=1), "
        "filter -> probe(orders) -> probe(customer) -> aggregate in one "
        f"generated per-morsel pass: {best * 1e3:.2f} ms",
    )


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
