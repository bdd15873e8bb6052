"""Calibrated analytic cost model of the paper's testbed.

Pure Python cannot reproduce ns-per-element measurements of
hand-vectorised C++ on Haswell-EP, so the figure benches regenerate the
paper's performance series from this model (DESIGN.md §2 documents the
substitution).  The model prices one input element of each algorithm as

    probe + accumulate + cache penalties (+ amortised flush)
    + partitioning passes + result write-back,

with the cache penalties driven by the *same working-set formula* the
paper itself uses for tuning (Section V-C / Equation 4).  The constants
below are calibrated against anchors the paper reports:

* Figure 4's slowdown ratios of ``repro<T,L>`` at 16 groups
  (3.73x .. 12.27x) pin the per-level extraction cost;
* Figure 6's plateaus ("at most 25 % slower than CONV [single], even
  somewhat faster in case of double") and cross-overs ("between c = 12
  and c = 48") pin the RSUM SIMD constants;
* Figure 7/10's partitioning step heights and the ~1 MiB working-set
  cliff pin the partitioning and miss costs;
* the Figure 9 thresholds (2**10 groups per level) emerge from the
  model rather than being encoded.

Everything is per-element CPU time in nanoseconds, matching the
paper's "CPU time [ns] per element" axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..tuning import optimal_buffer_size
from .machine import HASWELL_EP, Machine

__all__ = ["DtypeModel", "CostModel", "DTYPES", "dtype_model"]


@dataclass(frozen=True)
class DtypeModel:
    """Cost-relevant description of an accumulator data type."""

    label: str
    kind: str  # 'int' | 'float' | 'decimal' | 'repro' | 'repro_buf'
    scalar_bytes: int  # width of the *input value* moved around
    add_ns: float  # in-cache operator+= cost
    entry_bytes: int  # hash-table intermediate-aggregate footprint
    levels: int = 0  # repro only
    is_double: bool = True
    buffer_size: int | None = None  # repro_buf only (None: Equation 4)

    def buffered(self, buffer_size: int | None = None) -> "DtypeModel":
        """The buffered variant of a repro type (Figure 5 layout)."""
        if self.kind != "repro":
            raise ValueError("only repro types can be buffered")
        return replace(
            self,
            kind="repro_buf",
            label=self.label + "+buf",
            buffer_size=buffer_size,
        )


# -- calibration constants (ns) ------------------------------------------
_PROBE = 1.2  # hash probe, in cache
_APPEND = 0.8  # store into a summation buffer + offset bump

# Figure 4 fits: repro add cost = A0 + A1 * L  (ratios 3.73..12.27 over
# a 2.0 ns baseline at 16 groups).
_REPRO_A0 = {"float": 1.10, "double": 1.15}
_REPRO_A1 = {"float": 5.21, "double": 5.56}

# Conventional summation (std::accumulate, not fully vectorised).
_CONV_SUM = {"float": 0.75, "double": 1.30}
# RSUM SIMD steady state: max(memory floor, per-level compute).
_SIMD_FLOOR = {"float": 0.88, "double": 1.05}
_SIMD_LEVEL = {"float": 0.30, "double": 0.40}
# RSUM SCALAR per-level compute (serial dependency chain).
_SCALAR_LEVEL = {"float": 2.00, "double": 1.50}
# Per-call state load/store overheads (ns): scalar state is L (S, C)
# pairs; the SIMD state is V times larger plus the horizontal sum.
_CALL_OVH_SCALAR_PER_LEVEL = 9.0
_CALL_OVH_SIMD_FIXED = 30.0

# Cache penalties per random access that misses a given level (ns).
_PEN_L1 = 0.6
_PEN_L2 = 2.0
_PEN_LLC = 18.0
# Buffered aggregates take a second dependent miss (offset + slot).
_BUF_SECOND_MISS = 6.0

# Streaming partitioning pass: fixed work + per-byte traffic (read +
# write through the fill buffers).
_PART_FIXED = 1.2
_PART_PER_BYTE = 0.25

# Result / transfer write-back per byte (streaming to RAM).
_WB_PER_BYTE = 0.10


def _repro_add_ns(scalar: str, levels: int) -> float:
    return _REPRO_A0[scalar] + _REPRO_A1[scalar] * levels


def _repro_entry(levels: int) -> int:
    return 8 + 16 * levels  # key + L * (S, C)


DTYPES: dict[str, DtypeModel] = {
    "uint32": DtypeModel("uint32", "int", 4, 0.80, 16, is_double=False),
    "float": DtypeModel("float", "float", 4, 0.78, 16, is_double=False),
    "double": DtypeModel("double", "float", 8, 1.00, 16, is_double=True),
    "DECIMAL(9)": DtypeModel("DECIMAL(9)", "decimal", 4, 0.80, 16, is_double=False),
    "DECIMAL(18)": DtypeModel("DECIMAL(18)", "decimal", 8, 1.00, 16, is_double=True),
    "DECIMAL(38)": DtypeModel("DECIMAL(38)", "decimal", 16, 2.80, 24, is_double=True),
}
for _scalar, _dbl in (("float", False), ("double", True)):
    for _levels in (1, 2, 3, 4):
        _label = f"repro<{_scalar},{_levels}>"
        DTYPES[_label] = DtypeModel(
            _label,
            "repro",
            4 if _scalar == "float" else 8,
            _repro_add_ns(_scalar, _levels),
            _repro_entry(_levels),
            levels=_levels,
            is_double=_dbl,
        )


def dtype_model(label: str) -> DtypeModel:
    try:
        return DTYPES[label]
    except KeyError:
        raise KeyError(f"unknown dtype label {label!r}; known: {sorted(DTYPES)}") from None


class CostModel:
    """Per-element CPU-time model over a :class:`Machine`."""

    def __init__(self, machine: Machine = HASWELL_EP):
        self.machine = machine

    # -- scalar-precision helpers ----------------------------------------
    @staticmethod
    def _scalar(dtype: DtypeModel) -> str:
        return "double" if dtype.is_double else "float"

    # -- Section III kernels (Figure 6) -----------------------------------
    def conv_sum_ns(self, double: bool = True) -> float:
        """std::accumulate over one long vector."""
        return _CONV_SUM["double" if double else "float"]

    def rsum_scalar_ns(self, levels: int, double: bool = True,
                       chunk: float = float("inf")) -> float:
        """RSUM SCALAR called once per ``chunk`` values (Algorithm 2)."""
        scalar = "double" if double else "float"
        per_element = _SCALAR_LEVEL[scalar] * levels
        call_overhead = _CALL_OVH_SCALAR_PER_LEVEL * levels
        return per_element + call_overhead / max(chunk, 1.0)

    def rsum_simd_ns(self, levels: int, double: bool = True,
                     chunk: float = float("inf")) -> float:
        """RSUM SIMD called once per ``chunk`` values (Algorithm 3)."""
        scalar = "double" if double else "float"
        lanes = self.machine.simd_lanes(8 if double else 4)
        per_element = max(_SIMD_FLOOR[scalar], _SIMD_LEVEL[scalar] * levels)
        call_overhead = (
            _CALL_OVH_SCALAR_PER_LEVEL * levels * lanes / 2.0
            + _CALL_OVH_SIMD_FIXED
        )
        return per_element + call_overhead / max(chunk, 1.0)

    # -- cache penalties ----------------------------------------------------
    def probe_penalty_ns(self, working_set_bytes: float,
                         double_indirection: bool = False) -> float:
        """Expected extra latency of one random probe over ``ws`` bytes."""
        m = self.machine
        miss_l1 = max(0.0, 1.0 - m.l1_bytes / max(working_set_bytes, 1.0))
        miss_l2 = max(0.0, 1.0 - m.l2_bytes / max(working_set_bytes, 1.0))
        miss_llc = max(
            0.0, 1.0 - m.effective_cache_bytes / max(working_set_bytes, 1.0)
        )
        penalty = miss_l1 * _PEN_L1 + miss_l2 * _PEN_L2 + miss_llc * _PEN_LLC
        if double_indirection:
            penalty += miss_llc * _BUF_SECOND_MISS
        return penalty

    # -- aggregation phases ----------------------------------------------------
    def hash_agg_ns(self, dtype: DtypeModel, groups_per_partition: float,
                    records_per_group: float,
                    buffer_size: int | None = None) -> float:
        """Final HASHAGGREGATION phase, per input element."""
        gpp = max(groups_per_partition, 1.0)
        if dtype.kind in ("int", "float", "decimal"):
            ws = gpp * dtype.entry_bytes
            return _PROBE + dtype.add_ns + self.probe_penalty_ns(ws)
        if dtype.kind == "repro":
            ws = gpp * dtype.entry_bytes
            return _PROBE + dtype.add_ns + self.probe_penalty_ns(ws)
        if dtype.kind == "repro_buf":
            bsz = buffer_size if buffer_size is not None else dtype.buffer_size
            if bsz is None:
                bsz = optimal_buffer_size(int(gpp), dtype.scalar_bytes)
            # Working set per Equation 4's own footprint measure,
            # ngroups * sizeof(ScalarT) * bsz (the paper's model ignores
            # the S/C/next header, and its measurements validate that).
            ws = gpp * bsz * dtype.scalar_bytes
            chunk_eff = min(float(bsz), max(records_per_group, 1.0))
            # The engine flushes through whichever routine wins at this
            # chunk size (the paper's own Figure 6 shows SCALAR beats
            # SIMD below the cross-over).
            flush = min(
                self.rsum_simd_ns(dtype.levels, dtype.is_double, chunk_eff),
                self.rsum_scalar_ns(dtype.levels, dtype.is_double, chunk_eff),
            )
            return (
                _PROBE
                + _APPEND
                + self.probe_penalty_ns(ws, double_indirection=True)
                + flush
            )
        raise ValueError(f"unknown dtype kind {dtype.kind!r}")

    def partition_pass_ns(self, dtype: DtypeModel) -> float:
        """One radix-256 partitioning pass over (key, value) records."""
        record_bytes = 4 + dtype.scalar_bytes  # uint32 key + value
        return _PART_FIXED + _PART_PER_BYTE * record_bytes

    def writeback_ns(self, dtype: DtypeModel, ngroups: float, n: float) -> float:
        """Evicting the final result (and buffered transfer) to RAM."""
        out_bytes = dtype.entry_bytes
        per_group = out_bytes * _WB_PER_BYTE
        if dtype.kind == "repro_buf":
            # Local aggregates are flushed and copied into the shared
            # table (Algorithm 4 lines 4-6) before the result is
            # written: one more pass over the group state.
            per_group += (16 * dtype.levels + 8) * _WB_PER_BYTE + 6.0
        return per_group * (ngroups / max(n, 1.0))

    # -- whole algorithms --------------------------------------------------------
    def partition_and_aggregate_ns(
        self,
        dtype: DtypeModel,
        ngroups: int,
        n: int = 2**30,
        depth: int | None = None,
        fanout: int = 256,
        buffer_size: int | None = None,
        threads: int = 8,
    ) -> float:
        """Per-element CPU time of Algorithm 4 (the paper's main metric)."""
        if depth is None:
            depth = self.best_depth(dtype, ngroups, n, fanout, buffer_size)
        nparts = fanout**depth
        gpp = max(1.0, ngroups / nparts)
        rpg = max(1.0, n / max(ngroups, 1))
        agg = self.hash_agg_ns(dtype, gpp, rpg, buffer_size)
        # Idle threads when there are fewer busy partitions than cores
        # (paper footnote 12): aggregation wall time scales up.
        busy = min(nparts, max(ngroups, 1))
        if depth > 0 and busy < threads:
            agg *= threads / busy
        total = depth * self.partition_pass_ns(dtype) + agg
        total += self.writeback_ns(dtype, ngroups, n)
        return total

    def best_depth(self, dtype: DtypeModel, ngroups: int, n: int = 2**30,
                   fanout: int = 256, buffer_size: int | None = None,
                   max_depth: int = 3) -> int:
        """Offline depth tuning (Section V-C): pick the cheapest depth."""
        costs = [
            self.partition_and_aggregate_ns(
                dtype, ngroups, n, depth, fanout, buffer_size
            )
            for depth in range(max_depth + 1)
        ]
        return costs.index(min(costs))

    def hash_agg_total_ns(self, dtype: DtypeModel, ngroups: int,
                          n: int = 2**30,
                          buffer_size: int | None = None) -> float:
        """Plain HASHAGGREGATION (no partitioning), per element."""
        return self.partition_and_aggregate_ns(
            dtype, ngroups, n, depth=0, buffer_size=buffer_size
        )

    def sort_aggregate_ns(self, dtype: DtypeModel, n: int = 2**30) -> float:
        """SORTAGGREGATION baseline: the paper reports "over 60 ns"."""
        record_bytes = 4 + dtype.scalar_bytes
        # ~9 full sort passes (radix + merge fix-ups at ~2 ns fixed work
        # each, heavier than a partition pass) plus the final reduce
        # (Balkesen's tuned sort, paper §VI-A).
        return 9 * (2.0 + _PART_PER_BYTE * record_bytes) + dtype.add_ns + 26.0
