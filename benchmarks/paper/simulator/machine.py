"""Machine descriptor for the performance model.

The paper's testbed (Section VI-A): two Intel Xeon E5-2630 v3
(Haswell-EP), 8 cores/socket at 2.4 GHz, 32 KiB L1D + 256 KiB L2
private, 20 MiB LLC shared, AVX (V = 4 doubles / 8 floats), one socket
used, HyperThreading and frequency scaling off.

Pure Python cannot time that machine, so the figure benches run an
analytic cost model over this descriptor (see
:mod:`paper.simulator.costmodel`), calibrated against the anchor
numbers the paper itself reports.  DESIGN.md §2 documents the
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Machine", "HASWELL_EP"]


@dataclass(frozen=True)
class Machine:
    """Hardware parameters the cost model consumes."""

    name: str = "2x Xeon E5-2630 v3 (Haswell-EP)"
    frequency_ghz: float = 2.4
    cores: int = 8
    l1_bytes: int = 32 * 1024
    l2_bytes: int = 256 * 1024
    llc_bytes: int = 20 * 1024 * 1024
    cache_line: int = 64
    #: AVX register width in bytes (V = 32/sizeof(T) lanes).
    simd_bytes: int = 32
    #: Effective fraction of the per-core LLC share usable as working
    #: set before misses dominate (the paper observes the cliff at
    #: ~1 MiB = 0.4 * 20 MiB / 8).
    llc_effective_fraction: float = 0.4

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    @property
    def llc_per_core(self) -> int:
        return self.llc_bytes // self.cores

    @property
    def effective_cache_bytes(self) -> int:
        """~1 MiB on the paper's machine."""
        return int(self.llc_bytes * self.llc_effective_fraction / self.cores)

    def simd_lanes(self, scalar_bytes: int) -> int:
        return max(1, self.simd_bytes // scalar_bytes)


HASWELL_EP = Machine()
