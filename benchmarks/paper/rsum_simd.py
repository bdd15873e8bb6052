"""RSUM SIMD (paper Algorithm 3, Section III-D).

The SIMD variant keeps ``V`` independent lanes of running sums and
carry counters per level.  Loading a stored scalar state puts it into
lane 1 and initialises the other lanes to the neutral anchor
``1.5 * ufp(S(l))``; a *horizontal summation* (Equations 2 and 3)
collapses the lanes back into one scalar state when the chunk ends:

    S(l) := 1.5*ufp(S_1) (+) sum_v (S_v (-) 1.5*ufp(S_v))     (2)
    C(l) := sum_v C_v                                          (3)

Both are exact (all addends are multiples of the shared level ulp and
bounded), which is why lane count and chunk boundaries do not affect
the final bits — the property Figure 6 exploits by calling the routine
once per buffered chunk.

Our lanes are :class:`SummationState` objects; the horizontal sum is the
states' exact :meth:`~repro.core.state.SummationState.merge`.  The tiling
parameter ``NB`` (one max-check / carry propagation per ``V * NB``
elements) is kept for structural faithfulness and for the cost model,
although integer-canonical carries make it a no-op for correctness.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.params import RsumParams
from repro.core.state import SummationState

__all__ = ["SimdRsum", "default_vector_width"]


def default_vector_width(params: RsumParams) -> int:
    """AVX width on the paper's Haswell testbed: 4 doubles / 8 floats."""
    return 32 // params.fmt.itemsize if params.fmt.dtype is not None else 4


class SimdRsum:
    """V-lane reproducible summation with deferred carry propagation."""

    def __init__(self, params: RsumParams, v: int | None = None, nb: int | None = None):
        self.params = params
        self.v = v if v is not None else default_vector_width(params)
        self.nb = nb if nb is not None else params.nb_max
        if self.v < 1:
            raise ValueError("need at least one lane")
        if not 1 <= self.nb <= params.nb_max:
            raise ValueError(
                f"NB must be in [1, {params.nb_max}] for "
                f"{params.fmt.name} with W={params.w}"
            )
        self._lanes = [SummationState(params) for _ in range(self.v)]

    @classmethod
    def from_state(cls, state: SummationState, v: int | None = None,
                   nb: int | None = None) -> "SimdRsum":
        """Load a stored scalar state: lane 1 takes it, others are neutral."""
        simd = cls(state.params, v, nb)
        simd._lanes[0] = state.copy()
        return simd

    def add_chunk(self, values) -> None:
        """Process one chunk (Algorithm 3 lines 3-7).

        The chunk is consumed in tiles of ``V * NB`` elements.  Each
        tile does one max-check (demoting every lane's ladder together,
        line 4) and then distributes elements round-robin over lanes,
        exactly like a strided SIMD load.
        """
        arr = np.asarray(values, dtype=self._dtype())
        if arr.ndim != 1:
            arr = arr.ravel()
        tile = self.v * self.nb
        for start in range(0, arr.size, tile):
            block = arr[start : start + tile]
            finite = block[np.isfinite(block)]
            if finite.size:
                bmax = float(np.max(np.abs(finite)))
                if bmax > 0.0:
                    eb = math.frexp(bmax)[1] - 1
                    for lane in self._lanes:
                        lane._ensure_capacity(eb)
            for v in range(self.v):
                lane_values = block[v :: self.v]
                if lane_values.size:
                    self._lanes[v].add_array(lane_values)

    def horizontal_state(self) -> SummationState:
        """Equations 2-3: collapse the lanes into one scalar state."""
        merged = self._lanes[0].copy()
        for lane in self._lanes[1:]:
            merged.merge(lane)
        return merged

    def result(self):
        """Finalise the horizontal state per Equation 1."""
        return self.horizontal_state().finalize()

    def _dtype(self):
        fmt = self.params.fmt
        return fmt.dtype if fmt.dtype is not None else np.dtype(np.float64)
