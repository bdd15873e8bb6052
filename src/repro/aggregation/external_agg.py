"""Out-of-core (spill-to-disk) GROUP BY for the morsel pipeline.

The paper's partition-based buffered aggregation is designed so that
reproducible sums survive *any* partitioning of the input; Goodrich &
Eldawy make the same point for parallel splits.  This module turns
that property into an external aggregation operator: when the resident
partial tables exceed the session's ``memory_budget_bytes``, whole
radix partitions are serialized to disk run files
(:mod:`repro.storage.spill`) and re-merged at the end with the
ordinary exact partial-state merge.  Because every spill boundary is a
state round-trip plus an exact merge, the repro-mode result bits are
invariant under the budget, the partition fan-out, and the number of
merge passes — memory is a pure performance knob, exactly like
``workers`` and ``morsel_size``.

Operator shape (per worker)::

    morsel -> route rows to partitions by a stable hash of the group
              key -> update that partition's resident partial table
           -> budget exceeded?  spill largest partitions to run files

    finalize: per partition, exact-merge every worker's resident table
              and every run file (optionally in bounded fan-in passes,
              re-spilling intermediate merges), then fold the partition
              results into one table and finalize canonically.

The final fold means peak memory during finalize is proportional to
the *query output* (one finalized group row per group), while the
heavy intermediate state — rsum ladders, DISTINCT sets, sorted-mode
pair buffers — stays bounded by the budget.

Routing uses a process-independent key hash
(:func:`stable_key_hash`) with the engine's canonical float identity
(every NaN in one bucket, ``-0.0`` with ``0.0``), so a group's rows
always land in one partition.  Even so, correctness never *depends* on
routing: the final fold re-registers keys and exact-merges states, so
any routing would produce the same repro-mode bits.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import struct
import tempfile
import time

import numpy as np

from .grouped import LadderCounters
from ..storage.spill import (
    dump_table,
    load_table_into,
    read_run_file,
    write_run_file,
)

__all__ = [
    "ExternalGroupAggregator",
    "partition_ids_for_batch",
    "run_external_grouped_pipeline",
    "stable_key_hash",
]

#: Radix-combine guard for the router (mirrors the vectorized
#: factorization): beyond this the composite codes could overflow
#: int64, so routing falls back to the first key column alone —
#: coarser but still consistent, and never a correctness issue.
_ROUTE_RADIX_MAX = 1 << 62


def stable_key_hash(key: tuple) -> int:
    """Process-independent 64-bit hash of one group-key tuple.

    Python's built-in ``hash`` is salted per process
    (``PYTHONHASHSEED``), which would make spill partition contents
    differ between runs; this hash is a pure function of the canonical
    key value.  Floats hash by their IEEE bytes after folding ``-0.0``
    into ``0.0`` and every NaN payload into one bucket — the same key
    identity the group tables use.
    """
    digest = hashlib.blake2b(digest_size=8)
    for value in key:
        if isinstance(value, (bool, np.bool_)):
            digest.update(b"\x03" + (b"1" if value else b"0"))
        elif isinstance(value, (float, np.floating)):
            fv = float(value)
            if fv != fv:  # NaN: one bucket for every payload
                digest.update(b"\x01")
            else:
                if fv == 0.0:
                    fv = 0.0  # fold -0.0
                digest.update(b"\x02" + struct.pack("<d", fv))
        elif isinstance(value, (int, np.integer)):
            digest.update(b"\x03" + str(int(value)).encode("ascii"))
        elif isinstance(value, str):
            digest.update(b"\x04" + value.encode("utf-8"))
        elif value is None:
            digest.update(b"\x05")
        else:
            digest.update(b"\x06" + repr(value).encode("utf-8"))
    return int.from_bytes(digest.digest(), "little")


def partition_ids_for_batch(batch, group_exprs, npartitions: int) -> np.ndarray:
    """Per-row spill partition ids for one morsel.

    Factorizes the key columns exactly like the group tables do
    (dictionary encodings ride along when the scan provides them), then
    hashes each *distinct* key once — the per-row cost is one gather.
    """
    if npartitions <= 1 or not group_exprs:
        return np.zeros(batch.nrows, dtype=np.int64)
    from ..engine.expr import evaluate
    from ..engine.sql import ast
    from ..engine.vectorized import VectorizedGroupTable

    parts = []
    total = 1
    for expr in group_exprs:
        encoding = None
        if isinstance(expr, ast.ColumnRef):
            encoding = batch.encoding(expr.name.lower())
        if encoding is not None:
            codes, uniques = encoding
            codes = codes.astype(np.int64, copy=False)
        else:
            arr = np.asarray(evaluate(expr, batch.columns, batch.types))
            if arr.shape == ():
                arr = np.full(batch.nrows, arr)
            codes, uniques = VectorizedGroupTable._encode_values(arr)
        total *= max(len(uniques), 1)
        parts.append((codes, uniques))
        if total >= _ROUTE_RADIX_MAX:
            parts = parts[:1]
            break

    combined = parts[0][0]
    for codes, uniques in parts[1:]:
        combined = combined * max(len(uniques), 1) + codes
    dense, inverse = np.unique(combined, return_inverse=True)
    key_columns = VectorizedGroupTable._decode_columns(
        dense,
        [uniques for _, uniques in parts],
        [max(len(uniques), 1) for _, uniques in parts],
    )
    pids = _hash_key_columns(key_columns, npartitions)
    return pids[inverse.astype(np.int64, copy=False)]


_MIX_C1 = np.uint64(0x9E3779B97F4A7C15)
_MIX_C2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C3 = np.uint64(0x94D049BB133111EB)


def _mix64(lanes: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (wrapping uint64 arithmetic)."""
    lanes = lanes + _MIX_C1
    lanes ^= lanes >> np.uint64(30)
    lanes = lanes * _MIX_C2
    lanes ^= lanes >> np.uint64(27)
    lanes = lanes * _MIX_C3
    lanes ^= lanes >> np.uint64(31)
    return lanes


def _hash_key_columns(key_columns: list, npartitions: int) -> np.ndarray:
    """Partition ids for the distinct keys (one entry per dense key).

    Numeric-only keys take a vectorized splitmix64 over canonical
    lanes; anything else hashes per distinct key with
    :func:`stable_key_hash`.  The two hashes differ — only partition
    *contents* depend on the choice, never result bits.
    """
    if all(
        column.dtype != object and column.dtype.kind in "iubf"
        for column in key_columns
    ):
        from ..engine.operators import canonical_float_bits

        size = len(key_columns[0])
        mixed = np.zeros(size, dtype=np.uint64)
        for column in key_columns:
            if column.dtype.kind == "f":
                lanes = canonical_float_bits(column.astype(np.float64))
            else:
                lanes = column.astype(np.int64).view(np.uint64)
            mixed = _mix64(mixed ^ _mix64(lanes.copy()))
        return (mixed % np.uint64(npartitions)).astype(np.int64)
    pids = np.empty(len(key_columns[0]), dtype=np.int64)
    for j in range(len(pids)):
        key = tuple(column[j] for column in key_columns)
        pids[j] = stable_key_hash(key) % npartitions
    return pids


def _split_batch(batch, pids: np.ndarray):
    """Split one morsel into per-partition pieces.

    One stable sort of the partition ids, then one row selection per
    partition (:meth:`Batch.select`: nothing is gathered until the
    partition's table reads it) — far cheaper than a boolean mask
    filter per partition.  Yields ``(pid, piece)`` in ascending
    partition order; the stable sort preserves row order within each
    partition.
    """
    if pids.size == 0:
        return
    first = int(pids[0])
    if bool((pids == first).all()):
        yield first, batch
        return
    order = np.argsort(pids, kind="stable")
    sorted_pids = pids[order]
    run_starts = np.flatnonzero(
        np.concatenate(([True], sorted_pids[1:] != sorted_pids[:-1]))
    )
    bounds = np.append(run_starts, sorted_pids.size)
    for i, start in enumerate(run_starts.tolist()):
        yield int(sorted_pids[start]), batch.select(
            order[start:int(bounds[i + 1])]
        )


class ExternalGroupAggregator:
    """One worker's radix-partitioned, budget-bounded GROUP BY state.

    ``budget_bytes`` bounds the *resident* partial tables; when an
    update pushes the estimate past it, whole partitions are spilled
    largest-first (down to half the budget, a simple hysteresis) as
    run files under ``spill_dir`` and replaced with fresh tables.
    ``budget_bytes=None`` never spills — the operator then degrades to
    a partitioned in-memory aggregation.
    """

    def __init__(self, group_exprs, specs, make_table, npartitions: int,
                 budget_bytes: int | None, spill_dir: str, tag: str):
        if npartitions < 1:
            raise ValueError("npartitions must be >= 1")
        self.group_exprs = tuple(group_exprs)
        self.specs = specs
        #: Which ladder path this aggregator's rows took, counted where
        #: they are fed: every table it ever holds reports into this one
        #: object, so the count outlives promotion and spilled tables
        #: (a run file does not carry it).
        self.ladder = LadderCounters()
        self.make_table = make_table
        self.npartitions = npartitions
        self.budget_bytes = budget_bytes
        self.spill_dir = spill_dir
        self.tag = tag
        self.partitions = [self._new_table() for _ in range(npartitions)]
        #: run-file paths per partition, in spill order
        self.runs: list[list[str]] = [[] for _ in range(npartitions)]
        #: whole-table runs spilled before partition routing kicked in
        self.preruns: list[str] = []
        #: Until the budget first overflows, everything aggregates into
        #: one unpartitioned table — the router costs nothing when the
        #: planner's (pessimistic) estimate was wrong and the data fits.
        #: The first overflow spills that table as a *pre-partition*
        #: run (merged directly into the final fold) and promotes the
        #: aggregator to routed mode.
        self._single = (
            self._new_table()
            if npartitions > 1 and budget_bytes is not None else None
        )
        self.runs_spilled = 0
        self.bytes_spilled = 0
        self.peak_resident_bytes = 0
        self._seq = 0
        #: cached approx_bytes per partition — only partitions touched
        #: by an update are re-measured, so budget accounting costs
        #: O(touched state), not O(all resident state), per morsel
        self._sizes = [0] * npartitions

    def _new_table(self):
        table = self.make_table(self.group_exprs, self.specs)
        table.ladder = self.ladder
        return table

    # -- consumption -------------------------------------------------------
    def update(self, batch) -> None:
        if batch.nrows == 0:
            return
        if self._single is not None:
            self._single.update(batch)
            self._maybe_promote()
            return
        if self.npartitions == 1:
            self.partitions[0].update(batch)
            self._sizes[0] = self.partitions[0].approx_bytes()
        else:
            pids = partition_ids_for_batch(
                batch, self.group_exprs, self.npartitions
            )
            for p, piece in _split_batch(batch, pids):
                self.partitions[p].update(piece)
                self._sizes[p] = self.partitions[p].approx_bytes()
        self._maybe_spill()

    def _maybe_promote(self) -> None:
        size = self._single.approx_bytes()
        self.peak_resident_bytes = max(self.peak_resident_bytes, size)
        if size <= self.budget_bytes:
            return
        path = os.path.join(
            self.spill_dir, f"{self.tag}-pre-r{self._seq:06d}.run"
        )
        self._seq += 1
        self.bytes_spilled += write_run_file(path, dump_table(self._single))
        self.preruns.append(path)
        self.runs_spilled += 1
        self._single = None  # promoted: route from now on

    def resident_bytes(self) -> int:
        if self._single is not None:
            return self._single.approx_bytes()
        return sum(self._sizes)

    def _maybe_spill(self) -> None:
        if self.budget_bytes is None:
            return
        total = sum(self._sizes)
        self.peak_resident_bytes = max(self.peak_resident_bytes, total)
        if total <= self.budget_bytes:
            return
        order = sorted(
            range(self.npartitions),
            key=lambda p: self._sizes[p],
            reverse=True,
        )
        target = self.budget_bytes // 2
        for p in order:
            if not self.partitions[p].ngroups:
                continue
            total -= self._sizes[p]
            self.spill_partition(p)
            if total <= target:
                break

    def spill_partition(self, p: int) -> str:
        """Serialize partition ``p``'s table to a run file and reset it."""
        path = os.path.join(
            self.spill_dir, f"{self.tag}-p{p:04d}-r{self._seq:06d}.run"
        )
        self._seq += 1
        payload = dump_table(self.partitions[p])
        written = write_run_file(path, payload)
        self.runs[p].append(path)
        self.runs_spilled += 1
        self.bytes_spilled += written
        self.partitions[p] = self._new_table()
        self._sizes[p] = 0
        return path


def _load_run(path: str, make_table, group_exprs, specs):
    fresh = make_table(group_exprs, specs)
    load_table_into(read_run_file(path), fresh)
    return fresh


def _merge_runs_multipass(runs: list[str], fanin: int, make_table,
                          group_exprs, specs, spill_dir: str,
                          partition: int, accounting: dict) -> list[str]:
    """Bounded fan-in merge: while more runs than ``fanin`` exist,
    merge groups of ``fanin`` into intermediate run files (exact, so
    the pass count cannot change any repro-mode bits).  ``fanin < 2``
    means unbounded — a single direct pass."""
    passes = 0
    while fanin >= 2 and len(runs) > fanin:
        merged: list[str] = []
        for start in range(0, len(runs), fanin):
            chunk = runs[start : start + fanin]
            if len(chunk) == 1:
                merged.append(chunk[0])
                continue
            acc = make_table(group_exprs, specs)
            for path in chunk:
                acc.merge(_load_run(path, make_table, group_exprs, specs))
                os.unlink(path)
            out = os.path.join(
                spill_dir,
                f"merge-p{partition:04d}-pass{passes:03d}-{start:06d}.run",
            )
            written = write_run_file(out, dump_table(acc))
            accounting["runs"] += 1
            accounting["bytes"] += written
            merged.append(out)
        runs = merged
        passes += 1
    accounting["passes"] += passes
    return runs


def run_external_grouped_pipeline(
    group_exprs,
    specs,
    morsels,
    context,
    timings=None,
    transform=None,
):
    """External-aggregation twin of
    :func:`repro.engine.pipeline.run_grouped_pipeline`: same signature,
    same ``(key_arrays, result_arrays, ngroups)`` contract, same
    canonical output order — plus spill accounting on
    ``context.last_stats``.  In the repro sum modes the returned bits
    are identical to the in-memory pipeline for every
    ``(memory_budget_bytes, spill_partitions, spill_merge_fanin,
    workers, morsel_size)`` combination.
    """
    from ..engine import pipeline as pipeline_mod
    from ..engine.pipeline import PipelineStats

    wall_started = time.perf_counter()
    stats = PipelineStats(min(context.workers, max(len(morsels), 1)))
    stats.morsel_count = len(morsels)
    stats.external = True
    make_table = pipeline_mod.make_group_table

    npartitions = context.spill_partitions
    fanin = context.spill_merge_fanin
    budget = context.memory_budget_bytes
    per_worker_budget = (
        None if budget is None else max(1, budget // stats.workers)
    )
    stats.spill_partitions = npartitions
    selection_seconds = [0.0] * stats.workers
    aggregation_seconds = [0.0] * stats.workers

    spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
    try:
        def work_one(worker_id: int, assigned: list[int]):
            agg = ExternalGroupAggregator(
                group_exprs, specs, make_table, npartitions,
                per_worker_budget, spill_dir, tag=f"w{worker_id:03d}",
            )
            for index in assigned:
                t0 = time.thread_time()
                batch = morsels[index]
                if transform is not None:
                    batch = transform(batch)
                t1 = time.thread_time()
                agg.update(batch)
                t2 = time.thread_time()
                selection_seconds[worker_id] += t1 - t0
                aggregation_seconds[worker_id] += t2 - t1
            return agg

        aggregators = pipeline_mod._run_workers(
            morsels, context, stats, work_one
        )

        merge_started = time.thread_time()
        accounting = {"runs": 0, "bytes": 0, "passes": 0}
        root = make_table(group_exprs, specs)
        # Pre-partition state first (worker order): the unpartitioned
        # tables of workers that never overflowed, then any whole-table
        # runs spilled before promotion.
        for agg in aggregators:
            if agg._single is not None and agg._single.ngroups:
                root.merge(agg._single)
        for agg in aggregators:
            for path in agg.preruns:
                root.merge(_load_run(path, make_table, group_exprs, specs))
        for p in range(npartitions):
            acc = make_table(group_exprs, specs)
            for agg in aggregators:
                if agg.partitions[p].ngroups:
                    acc.merge(agg.partitions[p])
            runs = [path for agg in aggregators for path in agg.runs[p]]
            runs = _merge_runs_multipass(
                runs, fanin, make_table, group_exprs, specs,
                spill_dir, p, accounting,
            )
            for path in runs:
                acc.merge(_load_run(path, make_table, group_exprs, specs))
            if acc.ngroups:
                root.merge(acc)
        stats.merge_seconds = time.thread_time() - merge_started

        finalize_started = time.thread_time()
        key_arrays, results, ngroups = root.finalize()
        stats.finalize_seconds = time.thread_time() - finalize_started

        stats.spilled_runs = (
            sum(agg.runs_spilled for agg in aggregators) + accounting["runs"]
        )
        stats.spilled_bytes = (
            sum(agg.bytes_spilled for agg in aggregators) + accounting["bytes"]
        )
        stats.merge_passes = accounting["passes"]
        stats.peak_resident_bytes = max(
            (agg.peak_resident_bytes for agg in aggregators), default=0
        )
        ladder = LadderCounters()
        for agg in aggregators:
            ladder.merge(agg.ladder)
        stats.record_ladder(ladder, timings)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    stats.wall_seconds = time.perf_counter() - wall_started
    context.last_stats = stats
    if timings is not None:
        timings.add("selection", sum(selection_seconds))
        timings.add(
            "aggregation",
            sum(aggregation_seconds) + stats.merge_seconds
            + stats.finalize_seconds,
        )
    return key_arrays, results, ngroups
