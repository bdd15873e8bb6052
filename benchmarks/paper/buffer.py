"""Summation buffers (paper Section V-A, Figure 5).

A *summation buffer* is the paper's device for making the reproducible
type fast inside GROUP BY: instead of running the expensive multi-level
extraction once per input value, each group's intermediate aggregate
holds

    [ S-vector | C-vector | next | a_0 a_1 ... a_{bsz-1} ]

— a ``repro<ScalarT,L>`` accumulator plus an array of ``bsz`` buffered
input values and the offset ``next`` of the first free slot.  Appends
are a single store + offset increment; only when the buffer fills up is
the whole batch pushed through the vectorised summation routine (RSUM
SIMD), whose start-up cost is thereby amortised over ``bsz`` values.

Because RSUM is order- and batching-independent, the points at which
flushes happen cannot affect the final bits; the tests assert this for
random flush patterns.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import DEFAULT_LEVELS, RsumParams
from repro.core.rsum import params_from_spec

from .repro_type import ReproFloat

__all__ = ["BufferedReproFloat", "DEFAULT_BUFFER_SIZE"]

#: Paper §VI-B: "for bsz >= 2**9 or earlier, the difference to the
#: maximum throughput is negligible".  256 is the Figure 11 default.
DEFAULT_BUFFER_SIZE = 256


class BufferedReproFloat:
    """A ``repro<ScalarT,L>`` accumulator fronted by a summation buffer.

    Drop-in replacement for :class:`~paper.repro_type.ReproFloat`
    in any aggregation algorithm (paper: "we can implement this as [a]
    new data type again ... and use this new data type in any existing
    AGGREGATION algorithm transparently").
    """

    __slots__ = ("accumulator", "buffer", "next")

    def __init__(self, dtype="double", levels: int = DEFAULT_LEVELS,
                 buffer_size: int = DEFAULT_BUFFER_SIZE, w=None,
                 params: RsumParams | None = None):
        if buffer_size < 1:
            raise ValueError("buffer size must be at least 1")
        resolved = params if params is not None else params_from_spec(dtype, levels, w)
        self.accumulator = ReproFloat(params=resolved)
        np_dtype = resolved.fmt.dtype if resolved.fmt.dtype is not None else np.float64
        self.buffer = np.empty(buffer_size, dtype=np_dtype)
        self.next = 0

    @property
    def params(self) -> RsumParams:
        return self.accumulator.params

    @property
    def buffer_size(self) -> int:
        return len(self.buffer)

    # -- appends ----------------------------------------------------------
    def __iadd__(self, other) -> "BufferedReproFloat":
        if isinstance(other, (BufferedReproFloat, ReproFloat)):
            self.merge(other)
        else:
            self.append(other)
        return self

    def append(self, value) -> None:
        """Append one value; flush through RSUM SIMD when full."""
        self.buffer[self.next] = value
        self.next += 1
        if self.next == len(self.buffer):
            self.flush()

    def append_array(self, values) -> None:
        """Append a batch, flushing buffer-sized runs along the way."""
        arr = np.asarray(values, dtype=self.buffer.dtype)
        pos = 0
        while pos < arr.size:
            space = len(self.buffer) - self.next
            take = min(space, arr.size - pos)
            self.buffer[self.next : self.next + take] = arr[pos : pos + take]
            self.next += take
            pos += take
            if self.next == len(self.buffer):
                self.flush()

    def flush(self) -> None:
        """Aggregate the buffered values and reset ``next`` to 0."""
        if self.next:
            self.accumulator.add_array(self.buffer[: self.next])
            self.next = 0

    # -- merging / finalisation -------------------------------------------
    def merge(self, other) -> None:
        """Fold another (buffered) accumulator in; flushes both sides."""
        if isinstance(other, BufferedReproFloat):
            other.flush()
            other = other.accumulator
        self.flush()
        self.accumulator += other

    def to_repro(self) -> ReproFloat:
        """Flush and return the bare reproducible accumulator.

        This is the transfer into the shared hash table (Algorithm 4,
        lines 4-6), whose aggregates "do not use summation buffers"
        because the buffers would waste space in the final result.
        """
        self.flush()
        return self.accumulator.copy()

    @property
    def value(self):
        self.flush()
        return self.accumulator.value

    def __float__(self) -> float:
        return float(self.value)

    def bits(self) -> int:
        self.flush()
        return self.accumulator.bits()

    # -- introspection ------------------------------------------------------
    def footprint_bytes(self) -> int:
        """Approximate memory footprint of one intermediate aggregate.

        Equation 4 models the cache footprint as
        ``bsz * sizeof(ScalarT)`` per group; the S/C/next header is
        small and ignored there, but reported here for completeness.
        """
        header = 8 * (2 * self.params.levels) + 8
        return header + self.buffer.nbytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferedReproFloat({self.accumulator.type_name}, "
            f"bsz={len(self.buffer)}, pending={self.next})"
        )
