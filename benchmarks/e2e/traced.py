"""The traced run: where the time of a statement goes, layer by layer.

Separate from the timed run and never mixed with it.  The same seeded
data is loaded into an embedded ``repro.open()`` database and the
benchmark's own code wraps the public calls into each layer in spans:

* a SELECT is replayed step by step — ``parse`` -> ``bind_select`` ->
  ``optimize`` -> ``plan_physical`` -> ``run_planned`` ->
  ``encode_result`` + ``json.dumps`` -> ``json.loads`` +
  ``decode_result`` — under one root span;
* the write cycles (INSERT, REFRESH, view-served SELECT, DELETE) get
  one root span per statement;
* then each kernel layer is called in isolation on the workload's own
  columns (what happens *inside* ``run_planned`` stays one opaque span
  until the engine carries spans itself).

A span is ``{trace_id, span_id, parent_id, name, start_ns, end_ns,
counts}``; spans of one statement share a ``trace_id``; they stay in
memory and are written to ``_out/trace_<workload>.jsonl`` at the end.
Timestamps are the clock's; the metrics derived from them are at
reference speed like the timed run's (each root span's ``counts``
carries the ``speed_factor`` sampled just before it).
A layer that is not on a workload's path reports 0 for that workload.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

import repro
from repro.aggregation.grouped import GroupedSummation
from repro.core.params import RsumParams
from repro.engine import (
    Batch, HashJoin, Schema, Table, bind_select, evaluate, optimize, parse,
    parse_expression, plan_physical,
)
from repro.engine.executor import run_planned
from repro.engine.plan import Scan, predicate_columns
from repro.server.protocol import decode_result, encode_result
from repro.storage.wal import WriteAheadLog, list_segments, scan_wal

from common import (
    OUT, Sizes, SpeedReference, fresh_dir, load_benchmark_json, median,
)
from durability import FsyncLedger
from served import Served, Tally, build_directory, check_read
from workloads import (
    FILTERED_SQL, OBS_COLUMNS, VIEW_NAME, VIEW_SQL, Mirror, ObsStream,
    Workload, result_bits,
)

MORSEL = 65536          # the served sessions' morsel_size
REPEATS = 5             # repetitions of each isolation call (median kept)


# -- spans ---------------------------------------------------------------------

class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, reference: SpeedReference):
        self.spans: list[dict] = []
        self.enabled = True
        self.reference = reference
        self.factors: dict[int, float] = {}     # trace_id -> speed factor
        self._stack: list[dict] = []
        self._next_span = 1
        self._trace_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Record one span; a span opened with none open starts a new
        statement (``trace_id``).  Yields the span's ``counts``."""
        if not self.enabled:
            yield counts
            return
        if not self._stack:
            self._trace_id += 1
            counts["speed_factor"] = self.reference.scale()
            self.factors[self._trace_id] = counts["speed_factor"]
        record = {
            "trace_id": self._trace_id,
            "span_id": self._next_span,
            "parent_id": self._stack[-1]["span_id"] if self._stack else None,
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "counts": counts,
        }
        self._next_span += 1
        self._stack.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield counts
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    # -- reading the trace -------------------------------------------------
    def durations_ms(self, name: str) -> list[float]:
        """Durations of the ``name`` spans at reference speed."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e6 * self.factors[s["trace_id"]]
            for s in self.spans if s["name"] == name
        ]

    def median_ms(self, name: str) -> float:
        return median(self.durations_ms(name))

    def count(self, name: str, key: str) -> list:
        return [s["counts"][key] for s in self.spans if s["name"] == name]

    def coverage(self, root_name: str) -> float:
        """Share of the ``root_name`` spans' time covered by their child
        spans (1 - coverage is the roots' self time)."""
        roots = {
            s["span_id"]: s["end_ns"] - s["start_ns"]
            for s in self.spans if s["name"] == root_name
        }
        covered = sum(
            s["end_ns"] - s["start_ns"]
            for s in self.spans if s["parent_id"] in roots
        )
        return covered / sum(roots.values())

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["span_id"]):
                handle.write(json.dumps(span))
                handle.write("\n")


class GcWatch:
    """Generation-2 collections seen through ``gc.callbacks`` while the
    statement loops run (GC stays at its defaults, as on the server)."""

    def __init__(self):
        self.pauses_ms: list[float] = []
        self._start = 0

    def _callback(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.pauses_ms.append((time.perf_counter_ns() - self._start) / 1e6)

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)


def _clock_ms(fn) -> float:
    """Milliseconds ``fn()`` takes by the clock."""
    start = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - start) / 1e6


# -- the statement path, step by step ------------------------------------------

def replay_select(tracer: Tracer, session, sql: str):
    """One SELECT along the served path, a span per layer boundary.
    Returns the result as the client would hold it."""
    context = session.execution_context
    with tracer.span("select", sql_bytes=len(sql)):
        with tracer.span("engine.sql.parse", text_bytes=len(sql)):
            stmt = parse(sql)
        snapshot = session.pin_snapshot()
        with tracer.span("engine.plan.bind"):
            logical = bind_select(stmt, session.catalog.get)
        with tracer.span("engine.optimizer.optimize"):
            logical = optimize(logical)
        with tracer.span("engine.physical.lower"):
            physical = plan_physical(logical, context, session.sum_config)
        with tracer.span("engine.executor.run") as counts:
            result = run_planned(physical, context, None, snapshot)
            counts["groups_out"] = len(result)
        with tracer.span("server.protocol.encode") as counts:
            frame = json.dumps(
                {"id": 1, "ok": True, "kind": "result",
                 "result": encode_result(result)},
                separators=(",", ":"),
            ).encode("utf-8")
            counts["reply_bytes"] = 4 + len(frame)
        with tracer.span("client.decode"):
            decoded = decode_result(json.loads(frame.decode("utf-8"))["result"])
    return decoded


def _result_bytes(result) -> int:
    """Bytes of the result itself: numeric arrays raw, strings by length."""
    return sum(
        sum(len(str(v)) for v in arr.tolist()) if arr.dtype == object
        else arr.nbytes
        for arr in result.arrays
    )


class Run:
    """State of one traced run; each ``probe_*`` fills ``metrics``."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes,
                 work: Path):
        self.workload = workload
        self.sizes = sizes
        self.work = work
        self.tally = Tally()
        self.reference = SpeedReference()
        self.tracer = Tracer(self.reference)
        self.gc = GcWatch()
        self.statements = 0     # statements run while the GC was watched
        declared = load_benchmark_json()["per_layer"]
        self.units = {m["name"]: m["unit"] for m in declared}
        self.metrics = {name: 0.0 for name in self.units}
        self.stream = ObsStream(seed, sizes)
        self.tables = workload.read_tables(seed, sizes) + [self.stream.initial()]
        self.by_name = {data.name: data for data in self.tables}
        self.mirror = Mirror(self.tables, seed)
        self.expected = self.mirror.execute(workload.sql)
        self.n = sizes.traced_statements
        self.served = self.db = None    # set_up() makes them

    def timed_ms(self, fn, repeats: int = REPEATS) -> float:
        """Median milliseconds of ``fn()`` over ``repeats`` calls, each
        at the reference speed sampled at most 50 ms before it."""
        times = []
        sampled_at = float("-inf")
        for _ in range(repeats):
            if time.perf_counter() - sampled_at > 0.05:
                factor = self.reference.scale()
                sampled_at = time.perf_counter()
            times.append(_clock_ms(fn) * factor)
        return median(times)

    def put(self, name: str, value: float) -> None:
        if name not in self.metrics:
            raise KeyError(f"{name} is not declared in BENCHMARK.json")
        self.metrics[name] = float(value)

    # -- set-up: durable directory, server child, embedded twin ------------
    def set_up(self) -> None:
        served_dir = self.work / "served"
        checkpoint_s = build_directory(served_dir, self.tables)
        self.put("storage.durable.checkpoint_ms",
                 1e3 * checkpoint_s * self.reference.scale(3))
        user = sum(data.user_bytes() for data in self.tables)
        image = os.path.getsize(served_dir / "checkpoint.bin")
        self.put("storage.durable.checkpoint_bytes_per_user_byte", image / user)
        embedded_dir = self.work / "embedded"
        shutil.copytree(served_dir, embedded_dir)
        self.served = Served(
            served_dir, self.workload.sql, self.expected, self.tally
        )
        self.db, open_s, _ = self.reference.timed(
            lambda: repro.open(str(embedded_dir))
        )
        self.put("storage.durable.open_ms", 1e3 * open_s)
        self.session = self.db.session(sum_mode="repro")

    def close(self) -> None:
        for closer in (self.served, self.db, self.mirror):
            if closer is not None:
                closer.close()

    # -- the statement loops -----------------------------------------------
    def probe_select_path(self) -> None:
        """The workload's statement replayed step by step, traced and
        untraced alternately; their medians differ by the tracing cost."""
        sql, tracer = self.workload.sql, self.tracer
        for _ in range(3):
            replay_select(tracer, self.session, sql)
        tracer.spans.clear()
        untraced = []
        decoded = None
        for _ in range(self.n):
            decoded = replay_select(tracer, self.session, sql)
            tracer.enabled = False
            untraced.append(
                self.reference.scale()
                * _clock_ms(lambda: replay_select(tracer, self.session, sql))
            )
            tracer.enabled = True
        self.statements += 2 * self.n
        self.tally.attempted += 1
        self.tally.expect(
            result_bits(decoded) == result_bits(self.expected),
            "replayed result differs from the oracle's bits",
        )
        for name in ("engine.sql.parse", "engine.plan.bind",
                     "engine.optimizer.optimize", "engine.physical.lower",
                     "engine.executor.run", "server.protocol.encode",
                     "client.decode"):
            self.put(name + "_ms", tracer.median_ms(name))
        rows = sum(data.nrows for data in self.tables[:-1]) or (
            self.mirror.live_rows("obs")
        )
        run_ms = tracer.median_ms("engine.executor.run")
        self.put("engine.executor.rows_in", rows)
        self.put("engine.executor.ns_per_row", 1e6 * run_ms / rows)
        self.put("engine.executor.groups_out",
                 tracer.count("engine.executor.run", "groups_out")[-1])
        reply = tracer.count("server.protocol.encode", "reply_bytes")[-1]
        self.put("server.protocol.reply_bytes", reply)
        self.put("server.protocol.bytes_per_result_byte",
                 reply / _result_bytes(decoded))
        self.put("trace.coverage_frac", tracer.coverage("select"))
        self.put("trace.overhead_frac",
                 median(tracer.durations_ms("select")) / median(untraced) - 1)
        plan = self.session.explain(sql).split("== physical plan ==")[1]
        stages = [line.strip() for line in plan.splitlines()
                  if "Pipeline" in line or "JoinProbe" in line]
        self.put("engine.physical.fused_frac",
                 sum(s.startswith("Fused") for s in stages)
                 / max(1, len(stages)))

    def probe_session(self) -> None:
        """``Session.execute`` with the plan cache warm, and with a
        forced miss (same statement, new text) — the two costs a served
        SELECT can have."""
        session, sql = self.session, self.workload.sql
        context = session.execution_context
        session.execute(sql)
        hits, misses = context.plan_cache_hits, context.plan_cache_misses
        warm_ms = self.timed_ms(lambda: session.execute(sql), self.n)
        if not self.workload.mixed:
            self._cache_counts = (context.plan_cache_hits - hits,
                                  context.plan_cache_misses - misses)
        texts = iter(sql + " " * i for i in range(1, self.n + 1))
        replan_ms = self.timed_ms(lambda: session.execute(next(texts)), self.n)
        self.statements += 2 * self.n
        self.put("engine.session.execute_warm_ms", warm_ms)
        self.put("engine.session.execute_replan_ms", replan_ms)

    def probe_cycles(self) -> None:
        """The write cycles on the embedded durable database, one root
        span per statement; the in-memory mirror runs the same INSERT
        for the durable-minus-memory cost.  On ``durable_mixed`` the
        cycle also runs the filtered SELECT (a plan-cache miss: the
        snapshot moved) and a DELETE every 8th cycle."""
        tracer, session, mirror = self.tracer, self.session, self.mirror
        context = session.execution_context
        view = session.view(VIEW_NAME)
        full = self.workload.mixed
        in_memory_ms, commits = [], 0
        hits, misses = context.plan_cache_hits, context.plan_cache_misses
        with FsyncLedger() as fsyncs:
            for cycle in range(self.n):
                insert = self.stream.insert_sql(cycle)
                with tracer.span("insert", rows=self.sizes.batch_rows) as counts:
                    with tracer.span("engine.sql.parse",
                                     text_bytes=len(insert)):
                        parse(insert)
                    with tracer.span("engine.session.execute_insert"):
                        session.execute(insert)
                in_memory_ms.append(_clock_ms(lambda: mirror.execute(insert))
                                    * counts["speed_factor"])
                commits += 1
                if full:
                    with tracer.span("select_after_write"):
                        result = session.execute(FILTERED_SQL)
                with tracer.span("refresh") as counts:
                    with view.table.lock:
                        counts["delta_rows"] = view.refresh(context)
                commits += 1
                with tracer.span("view_select"):
                    viewed = session.execute(VIEW_SQL)
                delete = self.stream.delete_sql(cycle) if full else None
                if delete is not None:
                    with tracer.span("delete") as counts:
                        counts["rows"] = session.execute(delete)
                    self.tally.expect(counts["rows"] == mirror.execute(delete),
                                      "DELETE row count")
                    commits += 1
        self.statements += (4 + full) * self.n
        self.tally.attempted += 2
        if full:
            check_read(self.tally, "repro", result, mirror.execute(FILTERED_SQL))
            self._cache_counts = (context.plan_cache_hits - hits,
                                  context.plan_cache_misses - misses)
        if delete is None:      # the view is fresh unless a DELETE came last
            check_read(self.tally, "repro", viewed, mirror.execute(VIEW_SQL))
        self.put("storage.wal.fsyncs_per_commit", fsyncs.calls / commits)
        self.put("storage.durable.insert_overhead_ms",
                 tracer.median_ms("engine.session.execute_insert")
                 - median(in_memory_ms))
        refresh_ms = tracer.median_ms("refresh")
        self.put("engine.matview.refresh_ms", refresh_ms)
        self.put("engine.matview.refresh_us_per_delta_row",
                 1e3 * refresh_ms / median(tracer.count("refresh", "delta_rows")))
        self.put("engine.matview.served_select_ms",
                 tracer.median_ms("view_select"))
        if "ViewScan" not in session.explain(VIEW_SQL) and delete is None:
            self.tally.fail("the view-shaped SELECT was not served by the view")
        self.put("engine.sql.parse_us_per_kb",
                 1e3 * sum(tracer.durations_ms("engine.sql.parse"))
                 / (sum(tracer.count("engine.sql.parse", "text_bytes")) / 1024))

    # -- layers in isolation -------------------------------------------------
    def _scan_columns(self):
        """The optimized plan's scans: ``[(Scan node, {key: array})]``
        over full visible columns."""
        logical = optimize(
            bind_select(parse(self.workload.sql), self.session.catalog.get)
        )
        scans, stack = [], [logical]
        while stack:
            node = stack.pop()
            stack.extend(node.children())
            if isinstance(node, Scan):
                keys = node.projected or tuple(node.columns)
                scans.append((node, {
                    key: node.table.column_array(node.columns[key][0])
                    for key in keys
                }))
        return scans

    def probe_table_and_filter(self) -> None:
        scans = self._scan_columns()

        def scan_all():
            for node, columns in scans:
                names = [node.columns[key][0] for key in columns]
                for _ in node.table.morsels(MORSEL, names):
                    pass
        self.put("engine.table.scan_ms", self.timed_ms(scan_all))

        filtered = [(node, cols) for node, cols in scans if node.predicate]

        def filter_all():
            for node, columns in filtered:
                needed = predicate_columns(node.predicate)
                evaluate(node.predicate,
                         {key: columns[key] for key in needed},
                         node.output_columns())
        if filtered:
            self.put("engine.expr.filter_ms", self.timed_ms(filter_all))

        # Writes and what they invalidate, on a scratch copy of obs: 200
        # rows in, the group key's encoding asked for right after (on the
        # read workloads the grouped table never moves, so theirs is the
        # warm call), and — durable_mixed alone DELETEs — the rows masked.
        obs = self.by_name["obs"]
        scratch = Table("obs", Schema(list(OBS_COLUMNS)))
        scratch.bulk_load(obs.arrays)
        n = self.sizes.batch_rows
        batch = [{"k": int(k), "v": float(v)}
                 for k, v in zip(obs.arrays["k"][:n], obs.arrays["v"][:n])]
        grouped = (scratch if self.workload.mixed
                   else self.db.table(self.workload.group_table))
        inserts, encodes, masks = [], [], []
        for _ in range(REPEATS):
            factor = self.reference.scale()
            inserts.append(
                factor * _clock_ms(lambda: scratch.insert_rows(batch)))
            encodes.append(factor * _clock_ms(
                lambda: grouped.key_encodings(self.workload.group_columns)))
            if self.workload.mixed:
                tail = np.arange(scratch.physical_rows - n,
                                 scratch.physical_rows)
                masks.append(
                    factor * _clock_ms(lambda: scratch.mask_rows(tail)))
        self.put("engine.table.insert_rows_ms", median(inserts))
        self.put("engine.table.key_encode_ms", median(encodes))
        if masks:
            self.put("engine.table.mask_rows_ms", median(masks))

    def probe_join(self) -> None:
        """orders |x| lineitem as Q3 runs it: build on the filtered
        orders, probe with the filtered lineitem morsels."""
        if self.workload.name != "q3_join_topk":
            return
        scans = {node.table.name: (node, cols)
                 for node, cols in self._scan_columns()}

        def batches(name):
            node, columns = scans[name]
            keep = np.asarray(evaluate(node.predicate, columns,
                                       node.output_columns()), dtype=bool)
            kept = {key: arr[keep] for key, arr in columns.items()}
            rows = int(keep.sum())
            return [
                Batch({key: arr[at:at + MORSEL] for key, arr in kept.items()},
                      node.output_columns())
                for at in range(0, rows, MORSEL)
            ], kept, node.output_columns()

        _, orders, order_types = batches("orders")
        morsels, _, _ = batches("lineitem")
        build_keys = (parse_expression("o_orderkey"),)
        probe_keys = (parse_expression("l_orderkey"),)

        def build():
            return HashJoin(Batch(orders, order_types), build_keys, probe_keys)
        self.put("engine.join.build_ms", self.timed_ms(build))
        join = build()
        matched = 0

        def probe():
            nonlocal matched
            matched = sum(join.probe(batch).nrows for batch in morsels)
        self.put("engine.join.probe_ms", self.timed_ms(probe))
        probed = sum(batch.nrows for batch in morsels)
        self.put("engine.join.probe_rows", probed)
        self.put("engine.join.match_ratio", matched / probed)

    def probe_aggregation(self) -> None:
        scan = (self.mirror.scan() if self.workload.mixed
                else {data.name: data.arrays for data in self.tables})
        keys, values = self.workload.aggregation_input(scan)
        uniques, gids = np.unique(keys, return_inverse=True)
        gids, ngroups = gids.astype(np.int64), len(uniques)
        values = np.ascontiguousarray(values)
        params = RsumParams.double()
        chunks = [(gids[at:at + MORSEL], values[at:at + MORSEL])
                  for at in range(0, len(gids), MORSEL)]
        runs = []
        for g, v in chunks:
            order = np.argsort(g, kind="stable")
            runs.append((g[order], v[order]))

        def scatter(parts=chunks):
            state = GroupedSummation(params, ngroups)
            for g, v in parts:
                state.add_pairs(g, v)
            return state

        def sorted_runs():
            state = GroupedSummation(params, ngroups)
            for g, v in runs:
                state.add_sorted_runs(g, v)

        def ieee():
            total = np.zeros(ngroups)
            for g, v in chunks:
                total += np.bincount(g, weights=v, minlength=ngroups)

        add_pairs_ms = self.timed_ms(scatter)
        ieee_ms = self.timed_ms(ieee)
        self.put("aggregation.grouped.add_pairs_ms", add_pairs_ms)
        self.put("aggregation.grouped.add_sorted_runs_ms", self.timed_ms(sorted_runs))
        self.put("aggregation.grouped.ieee_ref_ms", ieee_ms)
        self.put("aggregation.grouped.ladder_over_ieee", add_pairs_ms / ieee_ms)
        half = len(chunks) // 2 or 1
        right = scatter(chunks[half:] or chunks)
        lefts = iter([scatter(chunks[:half]) for _ in range(REPEATS)])
        self.put("aggregation.grouped.merge_ms",
                 self.timed_ms(lambda: next(lefts).merge(right)))
        state = scatter()
        self.put("aggregation.grouped.finalize_ms", self.timed_ms(state.finalize))
        self.put("aggregation.grouped.state_bytes", state.nbytes())
        self.put("aggregation.api.group_sum_ms",
                 self.timed_ms(lambda: repro.group_sum(gids, values), 3))
        rsum_ms = self.timed_ms(lambda: repro.reproducible_sum(values))
        self.put("core.rsum.sum_ns_per_el", 1e6 * rsum_ms / len(values))
        self.put("core.rsum.over_numpy",
                 rsum_ms / self.timed_ms(lambda: np.sum(values)))

    def probe_wal(self) -> None:
        """The log alone, fed the workload's own 200-row record."""
        obs = self.by_name["obs"].arrays
        n = self.sizes.batch_rows
        record = {
            "op": "append", "table": "obs", "version": 1,
            "cols": {"k": obs["k"][:n].astype(np.int32), "v": obs["v"][:n]},
        }
        for sync, appends in (("commit", self.n), ("never", 10 * self.n)):
            directory = str(fresh_dir(self.work / f"wal-{sync}"))
            wal = WriteAheadLog(directory, sync=sync)
            try:
                each_ms = self.timed_ms(lambda: wal.append(record), appends)
            finally:
                wal.close()
            if sync == "commit":
                self.put("storage.wal.append_sync_ms", each_ms)
                size = sum(os.path.getsize(path)
                           for _, path in list_segments(directory))
                self.put("storage.wal.bytes_per_row", size / (appends * n))
            else:
                self.put("storage.wal.append_nosync_ms", each_ms)
                replay_ms = self.timed_ms(lambda: scan_wal(directory), 3)
                self.put("storage.wal.replay_rows_per_s",
                         appends * n / (replay_ms / 1e3))

    def probe_wire(self) -> None:
        """What the socket adds: the same statement served by the child
        process and by ``Session.execute`` in this one, alternately (so
        drift and this process's heap hit both), before any write makes
        the two databases differ."""
        address = self.served.server.address

        def connect():
            repro.connect(address, sum_mode="repro").close()
        self.put("client.connect_ms", self.timed_ms(connect, 10))
        conn = self.served.conns["repro"]
        self.put("server.noop_roundtrip_ms",
                 self.timed_ms(lambda: self.tally.timed(conn, "SELECT 1"), 50))
        sql, extra_ms = self.workload.sql, []
        self.session.execute(sql)
        for _ in range(self.n):
            factor = self.reference.scale()
            served_s, _ = self.tally.timed(conn, sql)
            embedded_ms = _clock_ms(lambda: self.session.execute(sql))
            extra_ms.append((1e3 * served_s - embedded_ms) * factor)
        self.put("client.wire_overhead_ms", median(extra_ms))
        self.put("server.rejected", self.tally.rejected)

    def finish(self) -> None:
        hits, misses = self._cache_counts
        self.put("engine.session.plan_cache_hit_ratio", hits / (hits + misses))
        pauses = self.gc.pauses_ms
        self.put("trace.gc_gen2_pause_ms", median(pauses) if pauses else 0.0)
        self.put("trace.gc_gen2_per_100_stmts",
                 100.0 * len(pauses) / self.statements)
        OUT.mkdir(exist_ok=True)
        self.tracer.write(OUT / f"trace_{self.workload.name}.jsonl")


def run_traced(workload: Workload, seed: int, seconds: int, sizes: Sizes,
               work: Path) -> dict:
    """One traced run of one workload; returns the result record.
    Statement counts are fixed by ``sizes`` so that counts repeat;
    ``seconds`` does not stretch them."""
    run = Run(workload, seed, sizes, work)
    try:
        run.set_up()
        run.probe_wire()
        with run.gc:
            run.probe_select_path()
            run.probe_session()
            run.probe_cycles()
        run.probe_table_and_filter()
        run.probe_join()
        run.probe_aggregation()
        run.probe_wal()
        run.finish()
    finally:
        run.close()
    return {
        "tally": run.tally,
        "metrics": {
            name: (value, run.units[name]) for name, value in run.metrics.items()
        },
        "info": {
            "traced_statements": run.statements,
            "spans": len(run.tracer.spans),
            "gc_gen2_collections": len(run.gc.pauses_ms),
        },
    }
