"""Fused kernels vs. the interpreted vectorized path: TPC-H Q1.

The headline is the PR-6 acceptance gate: **reproducible fused Q1 must
run within 1.5x of IEEE vectorized Q1** — the paper's thesis is that
reproducibility is affordable, and the fused kernels
(:mod:`repro.engine.fused`) are what close the gap.  The floor is
enforced as a machine-relative ratio (``q1_repro_fused_over_ieee``,
floor ``1 / 1.5``) so it gates reliably across runners.  That gate
runs at ``morsel_size=8192`` against the *unfused* IEEE engine, which
is not what a user gets; ``q1_repro_fused_over_ieee_default`` (floor
``1 / 1.6``) is the same query at the default morsel size with fused
IEEE as the denominator — both engines as shipped.  Each ratio is
recorded with its morsel size and engines.

Reported series, all at ``workers=1`` so no parallelism hides kernel
cost:

* **Q1 end-to-end** per sum mode for the interpreted vectorized path
  vs. the fused kernel path, with result bits asserted identical;
* the repro-vs-IEEE gap, before (vectorized) and after (fused).

Timings for the two paths are interleaved round-robin in one process,
which cancels the machine's slow drift out of the ratios.
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
    table,
)
from repro.engine import DEFAULT_MORSEL_SIZE, Database
from repro.tpch import load_lineitem, load_tpch, run_q1, run_q3

SCALE = 0.01        # ~60k lineitem rows
MORSEL_SIZE = 8192
ROWS = int(SCALE * 6_000_000)
ROUNDS = 7

#: The acceptance gate: repro fused Q1 within 1.5x of IEEE vectorized,
#: expressed as a speedup ratio floor (ieee_vec / repro_fused).
RATIO_CEILING = 1.5
SPEEDUP_FLOOR = 1.0 / RATIO_CEILING
#: The same gate with every knob at its default and fused IEEE below.
DEFAULT_RATIO_CEILING = 1.6


def _result_bits(result):
    return tuple(np.asarray(arr).tobytes() for arr in result.arrays)


def _prepare(mode: str, fused: bool, morsel_size: int = MORSEL_SIZE):
    db = Database(sum_mode=mode, workers=1, morsel_size=morsel_size,
                  fused=fused)
    load_lineitem(db, scale_factor=SCALE)
    result = run_q1(db)  # warm-up: key dictionaries + kernel compile
    run_q1(db)           # second run replays the cached plan (kernel attached)
    stats = db.last_pipeline_stats
    assert stats.fused is fused
    assert db.execution_context.plan_cache_hits >= 1
    if fused:
        assert stats.kernel_time() > 0.0
    return db, _result_bits(result)


def test_fused_vs_vectorized_report():
    configs = [
        ("ieee", False), ("ieee", True), ("repro", False), ("repro", True),
        ("ieee", True, DEFAULT_MORSEL_SIZE),
        ("repro", True, DEFAULT_MORSEL_SIZE),
    ]
    dbs, bits = {}, {}
    for key in configs:
        dbs[key], bits[key] = _prepare(*key)
    for mode in ("ieee", "repro"):
        assert bits[(mode, False)] == bits[(mode, True)], (
            f"{mode}: fused result bits differ from the vectorized path"
        )
    assert bits[("repro", True, DEFAULT_MORSEL_SIZE)] == bits[("repro", True)]
    stats = dbs[("repro", True, DEFAULT_MORSEL_SIZE)].last_pipeline_stats
    assert stats.ladder_blocks_scatter > 0, (
        "the steady-state scatter does not engage at the default morsel size"
    )

    best = {key: float("inf") for key in configs}
    for _ in range(ROUNDS):
        for key in configs:
            gc.collect()
            started = time.perf_counter()
            run_q1(dbs[key])
            best[key] = min(best[key], time.perf_counter() - started)

    for key, seconds in best.items():
        if len(key) == 2:  # the default-knob pair is gated as a ratio only
            suffix = "fused" if key[1] else "vectorized_m8k"
            record_kernel(f"q1_{key[0]}_{suffix}",
                          ns_per_element(seconds, ROWS))

    gap_ratio = best[("repro", True)] / best[("ieee", False)]
    record_speedup("q1_repro_fused_over_ieee", 1.0 / gap_ratio)
    record_config("q1_repro_fused_over_ieee", morsel_size=MORSEL_SIZE,
                  numerator="ieee vectorized (unfused)",
                  denominator="repro fused", scale_factor=SCALE, workers=1)
    default_ratio = (best[("repro", True, DEFAULT_MORSEL_SIZE)]
                     / best[("ieee", True, DEFAULT_MORSEL_SIZE)])
    record_speedup("q1_repro_fused_over_ieee_default", 1.0 / default_ratio)
    record_config("q1_repro_fused_over_ieee_default",
                  morsel_size=DEFAULT_MORSEL_SIZE, numerator="ieee fused",
                  denominator="repro fused", scale_factor=SCALE, workers=1)
    record_speedup(
        "q1_repro_fused_over_vectorized",
        best[("repro", False)] / best[("repro", True)],
    )

    body = [
        [
            mode,
            round(best[(mode, False)] * 1e3, 2),
            round(best[(mode, True)] * 1e3, 2),
            round(best[(mode, False)] / best[(mode, True)], 2),
            bits[(mode, False)] == bits[(mode, True)],
        ]
        for mode in ("ieee", "repro")
    ]
    emit(
        "fused_vs_vectorized",
        table(
            ["mode", "vectorized ms", "fused ms", "speedup", "bits equal"],
            body,
            title=(
                f"TPC-H Q1 (SF={SCALE}, morsel={MORSEL_SIZE}, workers=1): "
                "interpreted vectorized vs. fused kernels"
            ),
        ),
        f"repro fused / ieee vectorized = {gap_ratio:.2f}x at "
        f"morsel={MORSEL_SIZE} (acceptance ceiling {RATIO_CEILING}x);\n"
        f"repro fused / ieee fused = {default_ratio:.2f}x at the default "
        f"morsel={DEFAULT_MORSEL_SIZE} (ceiling {DEFAULT_RATIO_CEILING}x).\n"
        "Fused kernels compile scan->filter->project->aggregate into one\n"
        "generated per-morsel function: dispatch is resolved at compile\n"
        "time, all repro sums share one ladder sweep, and the steady\n"
        "state scatter-accumulates exact quanta with no sort at all —\n"
        "bits stay identical to the scalar path in every mode.",
    )

    assert gap_ratio <= RATIO_CEILING, (
        f"repro fused Q1 runs {gap_ratio:.2f}x the IEEE vectorized time, "
        f"above the {RATIO_CEILING}x acceptance ceiling"
    )
    assert default_ratio <= DEFAULT_RATIO_CEILING, (
        f"at default knobs repro fused Q1 runs {default_ratio:.2f}x the "
        f"IEEE fused time, above the {DEFAULT_RATIO_CEILING}x ceiling"
    )


#: PR-10 acceptance gate: the fused probe->filter->aggregate kernel must
#: beat the interpreted vectorized join path on Q3 by at least 1.3x.
Q3_FUSED_SPEEDUP_FLOOR = 1.3


def _prepare_q3(fused: bool):
    db = Database(sum_mode="repro", workers=1, morsel_size=MORSEL_SIZE,
                  fused=fused)
    load_tpch(db, scale_factor=SCALE)
    result = run_q3(db)  # warm-up: join build + kernel compile
    run_q3(db)           # second run hits the plan/kernel caches
    stats = db.last_pipeline_stats
    assert stats.fused is fused
    return db, _result_bits(result)


def test_fused_join_vs_interpreted_report():
    """TPC-H Q3, repro mode: fused join kernel vs. interpreted probe."""
    dbs, bits = {}, {}
    for fused in (False, True):
        dbs[fused], bits[fused] = _prepare_q3(fused)
    assert bits[False] == bits[True], (
        "Q3: fused join result bits differ from the interpreted path"
    )

    best = {fused: float("inf") for fused in (False, True)}
    for _ in range(ROUNDS):
        for fused in (False, True):
            gc.collect()
            started = time.perf_counter()
            run_q3(dbs[fused])
            best[fused] = min(best[fused], time.perf_counter() - started)

    # Normalised by probe-side (lineitem) rows, like the Q1 series.
    record_kernel("q3_repro_interpreted", ns_per_element(best[False], ROWS))
    record_kernel("q3_repro_fused", ns_per_element(best[True], ROWS))

    speedup = best[False] / best[True]
    record_speedup("q3_fused_over_interpreted", speedup)

    emit(
        "fused_join_vs_interpreted",
        table(
            ["path", "q3 ms", "bits equal"],
            [
                ["interpreted", round(best[False] * 1e3, 2), True],
                ["fused", round(best[True] * 1e3, 2),
                 bits[False] == bits[True]],
            ],
            title=(
                f"TPC-H Q3 repro (SF={SCALE}, morsel={MORSEL_SIZE}, "
                "workers=1): interpreted vectorized join vs. fused "
                "probe kernel"
            ),
        ),
        f"fused join speedup = {speedup:.2f}x "
        f"(acceptance floor {Q3_FUSED_SPEEDUP_FLOOR}x).\n"
        "The fused kernel compiles the whole Q3 pipeline —\n"
        "filter -> probe(orders) -> probe(customer) -> aggregate — into\n"
        "one generated per-morsel pass: selection vectors stay lazy\n"
        "(flatnonzero + composed takes, never boolean re-scans), probe\n"
        "keys gather through dense value LUTs, and group ids come\n"
        "straight from build-side rows.  Result bits are asserted\n"
        "identical to the interpreted path before any timing runs.",
    )

    assert speedup >= Q3_FUSED_SPEEDUP_FLOOR, (
        f"fused Q3 is only {speedup:.2f}x the interpreted join path, "
        f"below the {Q3_FUSED_SPEEDUP_FLOOR}x acceptance floor"
    )
