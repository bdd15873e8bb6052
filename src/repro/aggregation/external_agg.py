"""The spilling sink of the grouped driver: out-of-core GROUP BY.

The paper's partition-based aggregation (§V) aggregates each key
partition *independently* and concatenates the results; Goodrich &
Eldawy make the same point for external-memory sums: partial states
combine exactly in any order, so nothing ever has to hold all of them
at once.  :func:`repro.engine.pipeline.run_grouped_pipeline` feeds its
morsels into one :class:`ExternalGroupAggregator` when the planner
chose the external aggregation::

    morsel -> route rows to SPILL_PARTITIONS partitions by the content
              hash of the group key -> update that partition's table
           -> resident tables past the budget?  spill the largest
              partitions to run files (:mod:`repro.storage.spill`)

    finish -> per partition (:func:`spilled_partitions`): exact-merge
              the resident table and the runs, finalize, release;
              concatenate the outputs in canonical key order

Every spill boundary is a state round-trip plus an exact merge, so the
repro-mode result bits are invariant under the budget — memory is a
pure performance knob.  The budget bounds the resident partial state
*between* morsels and, at the finish, the unspilled residents plus one
partition's merged state; not the growth one morsel causes before the
check runs, nor the result arrays.

Partitions are finalized separately, so correctness *depends* on the
router sending equal keys one way: it hashes under the group tables'
own key identity (:mod:`repro.engine.content_hash`), and the driver's
final sort raises if a key nevertheless shows up twice.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from .grouped import LadderCounters
from ..storage.spill import dump_table, read_run_file, write_run_file

__all__ = [
    "SPILL_PARTITIONS",
    "ExternalGroupAggregator",
    "partition_ids",
    "spilled_partitions",
]

#: Partition fan-out: enough that one partition's merged state is a
#: fraction of the whole, few enough that the per-morsel split and the
#: per-partition update stay cheap (the Python pipeline pays a fixed
#: NumPy dispatch cost per sub-batch, so high fan-outs hurt more here
#: than in the paper's native engine).
SPILL_PARTITIONS = 4


def partition_ids(batch, group_exprs, npartitions: int,
                  dictionaries: dict | None = None) -> np.ndarray:
    """Per-row spill partition ids for one morsel: the content hash of
    the group-key columns (a storage dictionary the scan let ride along
    is hashed once per ``dictionaries`` memo), modulo the fan-out."""
    from ..engine.content_hash import row_hashes
    from ..engine.expr import ExprCache
    from ..engine.sql import ast

    cache = ExprCache(batch.columns, batch.types)
    columns = []
    for expr in group_exprs:
        column = None
        if isinstance(expr, ast.ColumnRef):
            column = batch.encoding(expr.name.lower())
        if column is None:
            column = cache.values(expr, batch.nrows)
        columns.append(column)
    hashes = row_hashes(columns, dictionaries)
    return (hashes % np.uint64(npartitions)).astype(np.int64)


def _split_batch(batch, pids: np.ndarray):
    """Split one morsel into per-partition pieces.

    One stable sort of the partition ids, then one row selection per
    partition (:meth:`Batch.select`: nothing is gathered until the
    partition's table reads it) — far cheaper than a boolean mask
    filter per partition.  Yields ``(pid, piece)`` in ascending
    partition order; the stable sort preserves row order within each
    partition.
    """
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
    """A radix-partitioned, budget-bounded GROUP BY state.

    ``budget_bytes`` bounds the *resident* partial tables; when an
    update pushes the estimate past it, whole partitions are spilled
    largest-first (down to half the budget, a simple hysteresis) as
    run files under ``spill_dir`` and replaced with fresh tables.
    """

    def __init__(self, group_exprs, specs, make_table, budget_bytes: int,
                 spill_dir: str):
        self.group_exprs = tuple(group_exprs)
        self.specs = specs
        #: Which ladder path this aggregator's rows took, counted where
        #: they are fed: every table it ever holds reports into this one
        #: object, so the count outlives spilled tables (a run file does
        #: not carry it).
        self.ladder = LadderCounters()
        self.make_table = make_table
        self.budget_bytes = budget_bytes
        self.spill_dir = spill_dir
        self.partitions = [
            self._new_table() for _ in range(SPILL_PARTITIONS)
        ]
        #: run-file paths per partition, in spill order
        self.runs: list[list[str]] = [[] for _ in self.partitions]
        self.bytes_spilled = 0
        self.peak_resident_bytes = 0
        self._seq = 0
        #: cached approx_bytes per partition — only partitions touched
        #: by an update are re-measured, so budget accounting costs
        #: O(touched state), not O(all resident state), per morsel
        self.sizes = [0] * len(self.partitions)
        #: :func:`~repro.engine.content_hash.row_hashes` memo
        self._dictionaries: dict = {}

    def _new_table(self):
        table = self.make_table(self.group_exprs, self.specs)
        table.ladder = self.ladder
        return table

    # -- consumption -------------------------------------------------------
    def update(self, batch) -> None:
        if batch.nrows == 0:
            # Nothing to route, but one table must see the morsel: an
            # empty input's result takes its dtypes from it.
            self.partitions[0].update(batch)
            return
        pids = partition_ids(
            batch, self.group_exprs, len(self.partitions), self._dictionaries
        )
        for p, piece in _split_batch(batch, pids):
            self.partitions[p].update(piece)
            self.sizes[p] = self.partitions[p].approx_bytes()
        self._maybe_spill()

    def _maybe_spill(self) -> None:
        total = sum(self.sizes)
        self.peak_resident_bytes = max(self.peak_resident_bytes, total)
        if total <= self.budget_bytes:
            return
        order = sorted(
            range(len(self.partitions)),
            key=lambda p: self.sizes[p],
            reverse=True,
        )
        target = self.budget_bytes // 2
        for p in order:
            if not self.partitions[p].ngroups:
                continue
            total -= self.sizes[p]
            self.spill_partition(p)
            if total <= target:
                break

    def spill_partition(self, p: int) -> None:
        """Serialize partition ``p``'s table to a run file and reset it."""
        path = os.path.join(
            self.spill_dir, f"p{p:04d}-r{self._seq:06d}.run"
        )
        self._seq += 1
        self.bytes_spilled += write_run_file(
            path, dump_table(self.partitions[p])
        )
        self.runs[p].append(path)
        self.partitions[p] = self._new_table()
        self.sizes[p] = 0


def spilled_partitions(sink: ExternalGroupAggregator, stats):
    """The external run's ``partitions`` for
    :func:`~repro.engine.pipeline.finish_grouped`: per occupied spill
    partition ``(held, sources)`` — the resident table, then the run
    files in spill order — released before the next is yielded.
    ``held`` is what stays resident beside the partition's accumulator:
    the later partitions' residents.  Also fills in the scan-phase
    accounting of ``stats``.
    """
    stats.spilled_runs = sum(len(runs) for runs in sink.runs)
    stats.spilled_bytes = sink.bytes_spilled
    stats.peak_resident_bytes = sink.peak_resident_bytes
    occupied = [
        p for p, table in enumerate(sink.partitions)
        if table.ngroups or sink.runs[p]
    ]
    # Empty input: partition 0 saw the empty morsels and carries the
    # dtypes the in-memory result would have.
    for p in occupied or [0]:
        resident = sink.partitions[p]
        yield sum(sink.sizes[p + 1:]), (
            [resident] if resident.ngroups or not occupied else []
        ) + [partial(read_run_file, path) for path in sink.runs[p]]
        sink.partitions[p] = resident = None
