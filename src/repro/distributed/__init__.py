"""Sharded multi-process execution: scale-out on exact-mergeable state.

The paper's core result — per-group partial aggregate states merge
*exactly*, so final bits are independent of how work is split — is
what makes distribution safe, and what makes the split itself a
non-decision: at ``workers = N`` shard ``s`` of ``N`` is every
``N``-th visible row from row ``s`` on, and there is one executor
*process* per shard — the engine's one way to use a second core.  Each
runs the local scan -> filter / probe -> partial-aggregate pipeline
over its rows on the engine's one group table and returns the partial
group table over the spill run-file format (:mod:`repro.storage.spill`)
used as a framed, CRC-checked wire protocol.  The coordinator merges
partials in shard order and finalizes once; the worker count and reply
arrival order are invisible in repro-mode result bits.

Layout:

* :mod:`~repro.distributed.worker` — the executor process loop
  (shipped copies, local pipeline, framed replies);
* :mod:`~repro.distributed.pool` — executor fleet lifecycle;
* :mod:`~repro.distributed.coordinator` — ship / run / collect /
  exact-merge / finalize.
"""

from .coordinator import ShardExchangeError, run_sharded_grouped_pipeline
from .pool import ShardWorkerPool

__all__ = [
    "ShardExchangeError",
    "ShardWorkerPool",
    "run_sharded_grouped_pipeline",
]
