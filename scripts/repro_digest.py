#!/usr/bin/env python
"""Canonical-query reproducibility digest for the CI matrix.

Runs a fixed query set in repro mode across every
``(workers, morsel_size, memory_budget)`` combination, asserts the
result bits are identical *within* this process, and writes one digest
line per (query, mode) to ``--out`` (default ``repro_digest.txt``).

The digest deliberately excludes the execution knobs: a leg running
``--workers 1,2`` and a leg running ``--workers 4,8`` — or a different
OS / Python, or a different set of memory budgets — must produce
byte-identical files.  The CI compare job downloads every leg's digest
and fails if any two differ, which is the paper's reproducibility
claim turned into a cross-platform gate.  The join legs (TPC-H Q3 and
an adversarial NaN/-0.0-key join) extend that gate to the planner:
plan choice and probe order must be invisible in repro-mode bits (the
planner alone picks a hash join's build side; that the bits do not
depend on it is a tier-1 test).  The memory-budget axis extends it to
out-of-core execution: an unbounded run, a tight budget that forces the
external aggregation to spill partitions to disk, and a pathological
1-byte budget that spills after every morsel must all agree bit for
bit.  Plan shape is held to the gate *across legs*: where an
aggregate's group ids come from is the planner's decision, and the
script asserts it on EXPLAIN — on every unbudgeted config ``tpch_q3``
takes the build-row rule (its keys are functions of
the orders probe's build row) and ``join_edge_fused`` (a pinned name:
adversarial DOUBLE keys, so the generic key path through the lazy
probe) does not, and on a spill leg (no ``unbounded`` in the sweep)
every grouped query ran external at the smallest budget — so the
compare job's byte-diff of the two kinds of leg is never
in-memory-vs-in-memory; ``join_edge_keys`` keeps a COUNT DISTINCT so
per-group value sets stay in the gate too.  A spill leg also holds the
budget to what it bounds (:func:`check_resident_bound`, at the leg's
larger budget): a high-cardinality probe — not digested, the query set
is sized for speed, not for state — must never have as much partial
state resident as the unbudgeted table holds, which a finish that folds
every spill partition back into one table would.

Env overrides (so matrix legs vary without changing the command line):

* ``REPRO_DIGEST_WORKERS`` — comma-separated worker counts (``1`` =
  one group table, ``N`` = every in-memory aggregate's morsels split
  over ``N`` partial tables, morsel ``i`` into table ``i mod N``,
  merged exactly; default ``1,2,3``);
* ``REPRO_DIGEST_MEMORY_BUDGETS`` — comma-separated byte budgets;
  ``unbounded`` (or ``0``) disables spilling for that run;
* ``REPRO_DIGEST_TPCH_SCALE`` — TPC-H scale factor (the nightly deep
  matrix runs x10 the PR default).

A text query loads its data once per (query, mode) and steps through
the knob vectors with ``SET``: every vector after the first must be a
plan-cache hit (the script exits otherwise), so the gate also covers a
cached plan lowered again under new knobs.  The callable legs build a
fresh database per vector.

The workers axis extends the gate to the exact merge of a split: a leg
whose aggregates feed ``N`` partial tables (morsel ``i`` into table
``i mod N``) merged before the finalize must digest byte-identically
to the one-table legs.
"""

import argparse
import hashlib
import itertools
import os
import sys

import numpy as np

from repro.engine import Database
from repro.tpch import Q1_SQL, Q3_SQL, Q6_SQL, load_tpch

MODES = ("repro",)
MORSEL_SIZES = (1 << 16, 4096, 257)
DEFAULT_TPCH_SCALE = 0.002  # ~12k lineitem rows: fast, still multi-morsel

MIXED_QUERY = (
    "SELECT k, s, SUM(v) AS sv, RSUM(v, 3) AS rv, AVG(v) AS av, "
    "COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi, STDDEV(v) AS sd "
    "FROM obs GROUP BY k, s ORDER BY k, s"
)
EDGE_QUERY = "SELECT k, SUM(v) AS sv, COUNT(*) AS c FROM edge GROUP BY k ORDER BY k"
JOIN_EDGE_QUERY = (
    "SELECT jl.k AS k, SUM(v) AS sv, SUM(w) AS sw, "
    "COUNT(DISTINCT v) AS dv, COUNT(*) AS c "
    "FROM jl, jr WHERE jl.k = jr.k GROUP BY jl.k ORDER BY k"
)
#: Same adversarial-key join without COUNT DISTINCT ("fused" is the
#: id it was pinned under): DOUBLE probe keys keep it off the build-row
#: rule, so this is the leg whose group keys are read through the lazy
#: probe's composed indices.
JOIN_EDGE_FUSED_QUERY = (
    "SELECT jl.k AS k, SUM(v) AS sv, SUM(w) AS sw, COUNT(*) AS c, "
    "MIN(v) AS lo, MAX(v) AS hi "
    "FROM jl, jr WHERE jl.k = jr.k GROUP BY jl.k ORDER BY k"
)
VIEW_QUERY = (
    "SELECT k, SUM(v) AS sv, COUNT(*) AS c, AVG(v) AS av, "
    "RSUM(v, 3) AS rv, COUNT(DISTINCT v) AS dv "
    "FROM vm GROUP BY k ORDER BY k"
)
#: The leg's second view: the extremes a view merges like every other
#: state.  Checked against scratch, not digested.
EXTREMES_QUERY = (
    "SELECT k, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS av "
    "FROM vm GROUP BY k ORDER BY k"
)
#: The leg's third view, keyed by a VARCHAR label: its refresh morsels
#: carry the label's storage dictionary, which grows and re-sorts as
#: labels arrive.  Checked against scratch, not digested.
LABEL_QUERY = (
    "SELECT s, SUM(v) AS sv, COUNT(*) AS c, MIN(v) AS lo, "
    "COUNT(DISTINCT v) AS dv FROM vm GROUP BY s ORDER BY s"
)
#: labels in arrival order: later ones sort before earlier ones
LABELS = "tmxbqae"


def _label(key: int, row: int, step: int) -> str:
    """Row ``row``'s label: one of the first ``step + 2``
    :data:`LABELS` (drawn from no random stream)."""
    return LABELS[(key + row) % min(step + 2, len(LABELS))]


def _view_maintenance(db):
    """The view-maintenance leg: replay a seeded interleaving of
    INSERT / DELETE / REFRESH against three materialized views, assert
    each final served result is byte-identical to the from-scratch base
    scan over the same table, and return the first for the digest (the
    second, MIN / MAX / AVG, and the third, keyed by a VARCHAR label,
    are checked only).

    The interleaving is deterministic, so every matrix leg — any
    workers / morsel_size / memory_budget / OS / Python —
    must digest identically.
    """
    rng = np.random.default_rng(20180418)
    db.execute("CREATE TABLE vm (k INT, s VARCHAR(1), v DOUBLE)")
    db.execute(
        "CREATE MATERIALIZED VIEW vm_agg AS "
        "SELECT k, SUM(v) AS sv, COUNT(*) AS c, AVG(v) AS av, "
        "RSUM(v, 3) AS rv, COUNT(DISTINCT v) AS dv FROM vm GROUP BY k"
    )
    db.execute(
        "CREATE MATERIALIZED VIEW vm_ext AS "
        "SELECT k, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS av FROM vm GROUP BY k"
    )
    db.execute(
        "CREATE MATERIALIZED VIEW vm_lbl AS "
        "SELECT s, SUM(v) AS sv, COUNT(*) AS c, MIN(v) AS lo, "
        "COUNT(DISTINCT v) AS dv FROM vm GROUP BY s"
    )
    views = (
        ("vm_agg", VIEW_QUERY),
        ("vm_ext", EXTREMES_QUERY),
        ("vm_lbl", LABEL_QUERY),
    )
    table = db.table("vm")
    for step in range(14):
        action = rng.random()
        if action < 0.6 or len(table) < 20:
            count = int(rng.integers(5, 60))
            keys = rng.integers(0, 9, size=count)
            values = rng.choice([-1.0, 1.0], size=count) * np.exp2(
                rng.uniform(-45, 45, size=count)
            )
            values[rng.random(count) < 0.04] = np.nan
            values[rng.random(count) < 0.04] = np.inf
            values[rng.random(count) < 0.04] = -0.0
            first = table.physical_rows
            table.insert_rows(
                [
                    {"k": int(k), "s": _label(int(k), first + j, step), "v": float(v)}
                    for j, (k, v) in enumerate(zip(keys, values))
                ]
            )
        else:
            key = int(rng.integers(0, 9))
            db.execute(f"DELETE FROM vm WHERE k = {key}")
        if rng.random() < 0.35:
            for view, _ in views:
                db.execute(f"REFRESH MATERIALIZED VIEW {view}")
    for view, _ in views:
        db.execute(f"REFRESH MATERIALIZED VIEW {view}")
    served = {}
    for view, query in views:
        if f"ViewScan({view}" not in db.explain(query):
            raise SystemExit(f"view_maintenance: fresh view {view} was not matched")
        served[view] = db.execute(query)
        db.execute(f"DROP MATERIALIZED VIEW {view}")
        if canonical_bytes(served[view]) != canonical_bytes(db.execute(query)):
            raise SystemExit(
                f"NON-REPRODUCIBLE: view_maintenance {view} served result "
                "differs from the from-scratch recomputation"
            )
    return served["vm_agg"]


SERVING_QUERY_TEMPLATE = (
    "SELECT k, SUM(v) AS sv, COUNT(*) AS c, MIN(v) AS lo, MAX(v) AS hi "
    "FROM {table} GROUP BY k ORDER BY k"
)

SERVING_THREADS = 8
SERVING_STEPS = 20


def _serving_scripts():
    """Seeded per-thread DML/query scripts over disjoint keyspaces.

    Disjoint keyspaces make the final row *multiset* independent of the
    thread interleaving; repro-mode aggregation then makes the final
    query *bits* independent of it too (physical row order differs run
    to run — the paper's order-invariance is what closes the gap).
    """
    scripts = []
    for thread_id in range(SERVING_THREADS):
        rng = np.random.default_rng(20180419 + thread_id)
        ops = []
        base = thread_id * 100
        for _ in range(SERVING_STEPS):
            roll = rng.random()
            key = base + int(rng.integers(0, 5))
            value = float(
                rng.choice([-1.0, 1.0]) * np.exp2(rng.uniform(-40, 40))
            )
            if roll < 0.55:
                ops.append(
                    f"INSERT INTO {{table}} VALUES ({key}, {value!r})"
                )
            elif roll < 0.68:
                ops.append(f"DELETE FROM {{table}} WHERE k = {key}")
            elif roll < 0.78:
                ops.append(
                    f"UPDATE {{table}} SET v = v * -0.5 WHERE k = {key}"
                )
            elif roll < 0.88:
                ops.append("REFRESH MATERIALIZED VIEW {view}")
            else:
                ops.append(
                    "SELECT k, SUM(v) FROM {table} GROUP BY k ORDER BY k"
                )
        scripts.append(ops)
    return scripts


def _concurrent_serving(db):
    """The concurrent-serving leg: 8 sessions replay seeded
    INSERT/DELETE/UPDATE/REFRESH/SELECT scripts *concurrently* against
    one table, a serial round-robin replays the same scripts against a
    second table in the same database, and the two final results must
    be byte-identical — snapshot-isolated MVCC reads plus statement
    atomicity turned into the same cross-leg gate as everything else.
    """
    import threading

    scripts = _serving_scripts()
    setup = db.session()
    for suffix in ("", "_serial"):
        setup.execute(f"CREATE TABLE cs{suffix} (k INT, v DOUBLE)")
        setup.execute(
            f"CREATE MATERIALIZED VIEW cs_totals{suffix} AS "
            f"SELECT k, SUM(v) AS sv FROM cs{suffix} GROUP BY k"
        )

    failures = []
    barrier = threading.Barrier(SERVING_THREADS)

    def run(ops):
        session = db.session()
        try:
            barrier.wait()
            for sql in ops:
                session.execute(sql.format(table="cs", view="cs_totals"))
        except Exception as exc:  # pragma: no cover - diagnostic
            failures.append(exc)
        finally:
            session.close()

    threads = [
        threading.Thread(target=run, args=(ops,)) for ops in scripts
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise SystemExit(f"concurrent_serving: session failed: {failures[0]}")

    serial = db.session()
    for step in range(SERVING_STEPS):
        for ops in scripts:
            serial.execute(
                ops[step].format(table="cs_serial", view="cs_totals_serial")
            )

    concurrent_result = setup.execute(
        SERVING_QUERY_TEMPLATE.format(table="cs")
    )
    serial_result = setup.execute(
        SERVING_QUERY_TEMPLATE.format(table="cs_serial")
    )
    if canonical_bytes(concurrent_result) != canonical_bytes(serial_result):
        raise SystemExit(
            "NON-REPRODUCIBLE: concurrent_serving bits differ from the "
            "serial replay of the same scripts"
        )
    return concurrent_result


DURABILITY_QUERY = (
    "SELECT k, SUM(v) AS sv, COUNT(*) AS c, RSUM(v, 3) AS rv "
    "FROM du GROUP BY k ORDER BY k"
)


def _durability_script():
    """A deterministic DML/REFRESH workload touching every WAL record
    type, with ladder-straddling doubles so physical row order shows
    in the bits if recovery ever reorders it."""
    rng = np.random.default_rng(20180911)
    statements = [
        "CREATE TABLE du (k INT, v DOUBLE)",
        "CREATE MATERIALIZED VIEW du_agg AS "
        "SELECT k, SUM(v) AS sv FROM du GROUP BY k",
    ]
    for step in range(10):
        roll = rng.random()
        if roll < 0.6 or step < 2:
            count = int(rng.integers(4, 24))
            keys = rng.integers(0, 7, size=count)
            values = rng.choice([-1.0, 1.0], size=count) * np.exp2(
                rng.uniform(-40, 40, size=count)
            )
            values[rng.random(count) < 0.05] = -0.0
            rows = ", ".join(
                f"({int(k)}, {float(v)!r})" for k, v in zip(keys, values)
            )
            statements.append(f"INSERT INTO du VALUES {rows}")
        elif roll < 0.75:
            key = int(rng.integers(0, 7))
            statements.append(f"DELETE FROM du WHERE k = {key}")
        elif roll < 0.9:
            key = int(rng.integers(0, 7))
            statements.append(
                f"UPDATE du SET v = v * 2.0 WHERE k = {key}"
            )
        else:
            statements.append("REFRESH MATERIALIZED VIEW du_agg")
    statements.append("REFRESH MATERIALIZED VIEW du_agg")
    return statements


def _served_bytes(view) -> list:
    """What a materialized view serves, byte for byte."""
    return [
        view.watermark,
        [arr.tobytes() for arr in view.key_arrays],
        {sql: arr.tobytes() for sql, arr in view.agg_results.items()},
    ]


def _durability(db):
    """The durability leg: replay a seeded DML/REFRESH workload twice —
    once against the in-memory sweep database and once against a
    durable directory with a mid-workload checkpoint and a simulated
    ``kill -9`` — then recover the directory and require byte-identical
    bits.  Crash recovery joins the same cross-platform, cross-config
    digest gate as every execution knob.
    """
    import shutil
    import tempfile

    statements = _durability_script()
    for statement in statements:
        db.execute(statement)
    expected = db.execute(DURABILITY_QUERY)

    tmp = tempfile.mkdtemp(prefix="repro-digest-durability-")
    try:
        config = dict(db.session_defaults)
        durable = Database(path=tmp, checkpoint_interval=None, **config)
        try:
            midpoint = len(statements) // 2
            for statement in statements[:midpoint]:
                durable.execute(statement)
            durable.checkpoint()
            for statement in statements[midpoint:]:
                durable.execute(statement)
        finally:
            durable.simulate_crash()
        recovered = Database(path=tmp, checkpoint_interval=None, **config)
        try:
            result = recovered.execute(DURABILITY_QUERY)
            if canonical_bytes(result) != canonical_bytes(expected):
                raise SystemExit(
                    "NON-REPRODUCIBLE: durability leg recovered to bits "
                    "that differ from the never-crashed database"
                )
            # Replay refreshes a view once, from its last logged REFRESH,
            # not once per record: the view it leaves is checked too.
            if _served_bytes(recovered.view("du_agg")) != _served_bytes(
                db.view("du_agg")
            ):
                raise SystemExit(
                    "NON-REPRODUCIBLE: durability leg recovered du_agg to "
                    "served arrays that differ from the never-crashed view"
                )
        finally:
            recovered.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return result


def tpch_scale() -> float:
    default = str(DEFAULT_TPCH_SCALE)
    return float(os.environ.get("REPRO_DIGEST_TPCH_SCALE", default))


def _mixed_data():
    rng = np.random.default_rng(20180416)  # ICDE'18, deterministic
    n = 4000
    keys = rng.integers(0, 23, size=n)
    labels = np.array(["x", "y", "z"], dtype=object)[rng.integers(0, 3, n)]
    values = (
        rng.choice([-1.0, 1.0], size=n)
        * rng.uniform(1.0, 2.0, size=n)
        * np.exp2(rng.uniform(-40, 40, size=n))
    )
    values[::401] = 0.0
    values[1::409] = -0.0
    return keys, labels, values


def _edge_data():
    keys = np.array(
        [np.nan, 2.0, np.nan, -0.0, 0.0, np.inf, -np.inf, 2.0, np.nan, np.inf]
    )
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    return keys, values


def _load(db, which):
    if which is None:
        return
    if which == "tpch":
        load_tpch(db, scale_factor=tpch_scale())
        return
    if which == "mixed":
        keys, labels, values = _mixed_data()
        db.execute("CREATE TABLE obs (k INT, s VARCHAR(1), v DOUBLE)")
        db.table("obs").bulk_load(
            {
                "k": keys.tolist(),
                "s": labels.tolist(),
                "v": values.tolist(),
            }
        )
        return
    if which == "join_edge":
        rng = np.random.default_rng(20180417)
        n = 3000
        left_keys = rng.integers(0, 40, size=n).astype(np.float64)
        left_keys[::97] = np.nan
        left_keys[1::89] = -0.0
        left_keys[2::83] = np.inf
        right_keys = np.concatenate(
            (np.arange(40, dtype=np.float64), [np.nan, 0.0, np.inf])
        )
        left_values = rng.choice([-1.0, 1.0], size=n) * np.exp2(
            rng.uniform(-30, 30, size=n)
        )
        db.execute("CREATE TABLE jl (k DOUBLE, v DOUBLE)")
        db.execute("CREATE TABLE jr (k DOUBLE, w DOUBLE)")
        db.table("jl").bulk_load({"k": left_keys.tolist(), "v": left_values.tolist()})
        db.table("jr").bulk_load(
            {
                "k": right_keys.tolist(),
                "w": rng.uniform(0.0, 1.0, size=len(right_keys)).tolist(),
            }
        )
        return
    keys, values = _edge_data()
    db.execute("CREATE TABLE edge (k DOUBLE, v DOUBLE)")
    db.table("edge").bulk_load({"k": keys.tolist(), "v": values.tolist()})


#: (query_id, data source, SQL or callable(db) -> result).  Callables
#: own their data loading and DML replay (``source`` is ``None``) — the
#: view_maintenance leg interleaves INSERT/DELETE/REFRESH and digests
#: the served view contents.
QUERIES = (
    ("tpch_q1", "tpch", Q1_SQL),
    ("tpch_q6", "tpch", Q6_SQL),
    ("tpch_q3", "tpch", Q3_SQL),
    ("mixed_aggs", "mixed", MIXED_QUERY),
    ("edge_keys", "edge", EDGE_QUERY),
    ("join_edge_keys", "join_edge", JOIN_EDGE_QUERY),
    ("join_edge_fused", "join_edge", JOIN_EDGE_FUSED_QUERY),
    ("view_maintenance", None, _view_maintenance),
    ("concurrent_serving", None, _concurrent_serving),
    ("durability", None, _durability),
)

#: Join legs whose group-id path is pinned: does EXPLAIN name the
#: build-row rule on the Aggregate line?  Otherwise a planner change
#: could silently move both onto one path and the legs would stop
#: covering the other.
BUILD_ROW_RULE = {"tpch_q3": True, "join_edge_fused": False}


def _check_engine_path(query_id, sql, db, config, spill_budget):
    """The pinned group-id path on unbudgeted configs, the external
    aggregation at ``spill_budget`` (a spill leg's smallest budget, else
    ``None``); see the module docstring."""
    budget = config[-1]
    if budget is None:
        expected = BUILD_ROW_RULE.get(query_id)
        if expected is not None and (
            "group_ids=build_row(" in db.explain(sql)
        ) is not expected:
            raise SystemExit(
                f"{query_id}: unbudgeted leg at {config} "
                + ("does not take" if expected else "takes")
                + " the build-row group-id rule"
            )
    elif budget == spill_budget and " GROUP BY " in sql:
        stats = db.last_pipeline_stats
        if stats is None or not stats.external:
            raise SystemExit(
                f"{query_id}: spill leg at {config} did not run the "
                "external aggregation (is the smallest swept budget "
                "small enough to force it?)"
            )


#: The resident-state probe: enough groups that one partition, one
#: morsel's growth and the budget together stay far below the whole
#: state at every budget the legs sweep.
PROBE_ROWS = 40_000
PROBE_KEYS = 10_000
PROBE_QUERY = "SELECT k, SUM(v) AS sv, COUNT(*) AS c FROM probe GROUP BY k"


def check_resident_bound(budget: int) -> None:
    """Run the probe unbudgeted and under ``budget``: the external run's
    ``peak_resident_bytes`` — which covers the finish — must stay below
    the size of the table the unbudgeted run finalizes."""
    rng = np.random.default_rng(20180419)
    data = {
        "k": rng.integers(0, PROBE_KEYS, size=PROBE_ROWS),
        "v": rng.normal(size=PROBE_ROWS),
    }
    for mode in MODES:
        runs = []
        # Unbudgeted, the peak is the one table's size.
        for run_budget in (None, budget):
            db = Database(
                sum_mode=mode, morsel_size=min(MORSEL_SIZES),
                memory_budget=run_budget,
            )
            try:
                db.execute("CREATE TABLE probe (k INT, v DOUBLE)")
                db.table("probe").bulk_load(data)
                payload = canonical_bytes(db.execute(PROBE_QUERY))
                runs.append((payload, db.last_pipeline_stats))
            finally:
                db.close()
        (reference, unbudgeted), (payload, stats) = runs
        whole = unbudgeted.peak_resident_bytes
        if payload != reference:
            raise SystemExit(
                f"NON-REPRODUCIBLE: resident-state probe [{mode}] at "
                f"budget {budget} differs from the unbudgeted run"
            )
        if not stats.external:
            raise SystemExit(
                f"resident-state probe [{mode}] at budget {budget} did "
                "not run the external aggregation"
            )
        if stats.peak_resident_bytes >= whole:
            raise SystemExit(
                f"resident-state probe [{mode}] at budget {budget}: "
                f"{stats.peak_resident_bytes} bytes of "
                f"partial state were resident at once, the unbudgeted "
                f"table holds {whole} (is the finish folding every spill "
                "partition back into one table?)"
            )


def parse_workers(text: str) -> list[int]:
    workers = [int(part) for part in text.split(",") if part.strip()]
    if not workers or any(w < 1 for w in workers):
        raise SystemExit(f"bad worker counts {text!r}")
    return workers


def parse_budgets(text: str) -> tuple:
    """Parse the memory-budget sweep: ``unbounded`` / ``none`` / ``0``
    mean no budget; anything else is a byte count."""
    budgets = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part.lower() in ("unbounded", "none", "0"):
            budgets.append(None)
            continue
        try:
            value = int(part)
        except ValueError:
            raise SystemExit(f"bad memory budget {part!r}") from None
        if value < 0:
            raise SystemExit(f"bad memory budget {part!r}")
        budgets.append(value)
    if not budgets:
        raise SystemExit(f"no memory budgets in {text!r}")
    return tuple(budgets)


def canonical_bytes(result):
    """Platform-independent byte form of a query result."""
    pieces = [("|".join(result.names)).encode("utf-8")]
    for arr in result.arrays:
        arr = np.asarray(arr)
        if arr.dtype.kind == "O":
            rendered = "\x1f".join(repr(value) for value in arr.tolist())
            pieces.append(rendered.encode("utf-8"))
        else:
            # Force little-endian so the IEEE bit patterns hash the
            # same on every architecture.
            pieces.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    return b"\x1e".join(pieces)


def _set_knobs(db, config) -> None:
    """Step a loaded database to one knob vector through ``SET``."""
    worker_count, morsel_size, budget = config
    db.execute(f"SET workers = {worker_count}")
    db.execute(f"SET morsel_size = {morsel_size}")
    db.execute(f"SET memory_budget = {budget or 0}")


def digest_lines(workers, budgets=(None,), queries=QUERIES):
    """One digest line per (query, mode); a text query steps one loaded
    database through the knob vectors (see the module docstring)."""
    lines = []
    spill_budget = None if None in budgets else min(budgets)
    for query_id, source, sql in queries:
        for mode in MODES:
            reference = None
            reference_config = None
            configs = itertools.product(workers, MORSEL_SIZES, budgets)
            warm = None
            if not callable(sql):
                warm = Database(sum_mode=mode)
                _load(warm, source)
            try:
                for config in configs:
                    if warm is None:
                        payload = _run_callable(sql, mode, config)
                    else:
                        _set_knobs(warm, config)
                        result = warm.execute(sql)
                        if reference is not None and not (
                            warm.last_pipeline_stats.plan_cache_hit
                        ):
                            raise SystemExit(
                                f"{query_id} [{mode}] at {config} planned "
                                "afresh: a SET must keep the cached plan"
                            )
                        _check_engine_path(
                            query_id, sql, warm, config, spill_budget
                        )
                        payload = canonical_bytes(result)
                    if reference is None:
                        reference = payload
                        reference_config = config
                    elif payload != reference:
                        raise SystemExit(
                            f"NON-REPRODUCIBLE: {query_id} "
                            f"[{mode}] at {config} differs "
                            f"from {reference_config}"
                        )
            finally:
                if warm is not None:
                    warm.close()
            digest = hashlib.sha256(reference).hexdigest()
            lines.append(f"{query_id} {mode} {digest}")
    return lines


def _run_callable(run, mode, config) -> bytes:
    """A callable leg on its own database built at ``config``."""
    worker_count, morsel_size, budget = config
    with Database(
        sum_mode=mode,
        workers=worker_count,
        morsel_size=morsel_size,
        memory_budget=budget,
    ) as db:
        return canonical_bytes(run(db))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        default=os.environ.get("REPRO_DIGEST_WORKERS", "1,2,3"),
        help=(
            "comma-separated worker counts to sweep (1 = one group "
            "table, N = each aggregate split over N partial tables; "
            "default 1,2,3)"
        ),
    )
    parser.add_argument(
        "--memory-budgets",
        default=os.environ.get("REPRO_DIGEST_MEMORY_BUDGETS", "unbounded"),
        help=(
            "comma-separated aggregation memory budgets in bytes to "
            "sweep ('unbounded' disables spilling; 1 is the "
            "pathological spill-every-morsel leg)"
        ),
    )
    parser.add_argument("--out", default="repro_digest.txt")
    args = parser.parse_args(argv)
    workers = parse_workers(args.workers)
    budgets = parse_budgets(args.memory_budgets)

    lines = digest_lines(workers, budgets, QUERIES)
    if None not in budgets and max(budgets) > 1:
        check_resident_bound(max(budgets))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(
        f"\nwrote {args.out} (workers swept: {workers}, "
        f"memory budgets swept: {list(budgets)}, "
        f"tpch scale: {tpch_scale()})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
