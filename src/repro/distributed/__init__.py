"""Sharded multi-process execution: scale-out on exact-mergeable state.

The paper's core result — per-group partial aggregate states merge
*exactly*, so final bits are independent of how work is split — is
what makes distribution safe: this package splits tables into hash
shards across worker *processes* (escaping the GIL entirely), runs the
local scan -> filter / probe -> partial-aggregate pipeline per shard
on the engine's one group table, and exchanges the partial group
tables back over the spill run-file format
(:mod:`repro.storage.spill`) used as a framed, CRC-checked wire
protocol.  The coordinator merges partials in shard order and
finalizes once; shard count, placement, worker count, and reply
arrival order are all invisible in repro-mode result bits — the same
claim the thread pipeline makes, now across process boundaries.

Layout:

* :mod:`~repro.distributed.router` — rows to shards by the engine's
  process-stable content hash (:mod:`repro.engine.content_hash`);
* :mod:`~repro.distributed.worker` — the executor process loop
  (replica cache, local pipeline, framed replies);
* :mod:`~repro.distributed.pool` — executor fleet lifecycle;
* :mod:`~repro.distributed.coordinator` — ship / run / collect /
  exact-merge / finalize.
"""

from .coordinator import ShardExchangeError, run_sharded_grouped_pipeline
from .pool import ShardWorkerPool
from .router import shard_ids

__all__ = [
    "ShardExchangeError",
    "ShardWorkerPool",
    "run_sharded_grouped_pipeline",
    "shard_ids",
]
