"""On-disk storage formats for out-of-core execution.

The engine's aggregation states merge *exactly* (the paper's
horizontal-merge property), so partial aggregates can round-trip
through disk without changing a single result bit.  This package holds
the columnar spill format that makes that practical:
:mod:`repro.storage.spill` serializes dictionary-encoded group keys
plus every partial aggregate state — including the integer-canonical
rsum ladders of :class:`~repro.aggregation.grouped.GroupedSummation` —
into framed, checksummed run files that the external GROUP BY operator
(:mod:`repro.aggregation.external_agg`) spills and re-merges.
"""

from .durable import DurableStore
from .spill import (
    SPILL_MAGIC,
    SpillFormatError,
    dump_grouped_summation,
    dump_table,
    frame_payload,
    load_grouped_summation,
    load_table_into,
    read_run_file,
    unframe_payload,
    write_run_file,
)
from .wal import WriteAheadLog

__all__ = [
    "SPILL_MAGIC",
    "DurableStore",
    "SpillFormatError",
    "WriteAheadLog",
    "dump_grouped_summation",
    "dump_table",
    "frame_payload",
    "load_grouped_summation",
    "load_table_into",
    "read_run_file",
    "unframe_payload",
    "write_run_file",
]
