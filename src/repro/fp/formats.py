"""Floating-point format descriptors.

The paper (Section II-B) reasons about floating-point numbers as
``x = M * 2**E`` with mantissa ``M`` in ``[1, 2)`` and an ``m``-bit
mantissa.  Everything in :mod:`repro.core` is parameterised over such a
format so the same code runs on IEEE binary32, binary64, and the small
"toy" formats the paper uses in its worked examples (an ``m = 2`` format
in Section II-B and an ``m = 4`` format in Figure 2).

A :class:`FloatFormat` is a *description*; actual arithmetic is done
either natively (for the IEEE formats, through Python floats and NumPy
scalars) or through ``benchmarks/paper/softfloat.py`` (for any format).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "TOY_M2",
    "TOY_M4",
    "format_for_dtype",
    "format_by_name",
]


@dataclass(frozen=True)
class FloatFormat:
    """Description of a binary floating-point format.

    Attributes
    ----------
    name:
        Human-readable identifier (``"binary64"``, ``"toy-m4"``, ...).
    mantissa_bits:
        The paper's ``m``: number of bits *after* the leading one.  A
        value ``x = M * 2**E`` with ``M`` in ``[1, 2)`` stores ``m``
        fractional mantissa bits, i.e. precision ``p = m + 1``.
    min_exponent:
        Smallest normal exponent ``E_min`` (IEEE convention: binary64
        has ``E_min = -1022``).
    max_exponent:
        Largest normal exponent ``E_max`` (binary64: 1023).
    dtype:
        NumPy dtype carrying this format natively, or ``None`` when the
        format is software-only (toy formats).
    """

    name: str
    mantissa_bits: int
    min_exponent: int
    max_exponent: int
    dtype: np.dtype | None = None

    @property
    def precision(self) -> int:
        """Total significand precision ``p = m + 1`` (IEEE counts the hidden bit)."""
        return self.mantissa_bits + 1

    @property
    def machine_epsilon(self) -> float:
        """Unit roundoff ``eps = 2**-m`` (spacing of floats in ``[1, 2)``)."""
        return 2.0 ** (-self.mantissa_bits)

    @property
    def max_value(self) -> float:
        """Largest finite value representable in the format."""
        return (2.0 - self.machine_epsilon) * 2.0**self.max_exponent

    @property
    def min_normal(self) -> float:
        """Smallest positive normal value."""
        return 2.0**self.min_exponent

    @property
    def itemsize(self) -> int:
        """Storage width in bytes (used by the cache-footprint model)."""
        if self.dtype is not None:
            return self.dtype.itemsize
        # Toy formats have no machine representation; charge one byte
        # per 8 bits of sign+exponent+mantissa, rounded up.
        bits = 1 + self.mantissa_bits + 8
        return (bits + 7) // 8

    def representable(self, value: float) -> bool:
        """Return True if ``value`` is exactly representable in this format.

        Zeroes and infinities count as representable; NaN does not (it
        is a payload family, not a single value).
        """
        import math

        if value == 0.0 or math.isinf(value):
            return True
        if math.isnan(value):
            return False
        mantissa, exponent = math.frexp(abs(value))  # mantissa in [0.5, 1)
        exp = exponent - 1  # convention: M in [1, 2)
        if exp > self.max_exponent:
            return False
        # Subnormals lose one mantissa bit per exponent step below E_min.
        effective_bits = self.mantissa_bits
        if exp < self.min_exponent:
            effective_bits -= self.min_exponent - exp
            if effective_bits < 0:
                return False
        scaled = mantissa * 2.0 ** (effective_bits + 1)
        return scaled == int(scaled)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


BINARY16 = FloatFormat("binary16", 10, -14, 15, np.dtype(np.float16))
BINARY32 = FloatFormat("binary32", 23, -126, 127, np.dtype(np.float32))
BINARY64 = FloatFormat("binary64", 52, -1022, 1023, np.dtype(np.float64))

#: Toy format of the paper's Section II-B associativity example (m = 2).
TOY_M2 = FloatFormat("toy-m2", 2, -64, 64)

#: Toy format used in Figure 2's worked RSUM example (m = 4).
TOY_M4 = FloatFormat("toy-m4", 4, -64, 64)

_BY_DTYPE = {
    np.dtype(np.float16): BINARY16,
    np.dtype(np.float32): BINARY32,
    np.dtype(np.float64): BINARY64,
}

_BY_NAME = {
    fmt.name: fmt for fmt in (BINARY16, BINARY32, BINARY64, TOY_M2, TOY_M4)
}
_BY_NAME.update(
    {
        "float": BINARY32,
        "double": BINARY64,
        "half": BINARY16,
        "float16": BINARY16,
        "float32": BINARY32,
        "float64": BINARY64,
    }
)


def format_for_dtype(dtype) -> FloatFormat:
    """Return the :class:`FloatFormat` matching a NumPy dtype.

    Raises ``KeyError`` for non-float dtypes.
    """
    return _BY_DTYPE[np.dtype(dtype)]


def format_by_name(name: str) -> FloatFormat:
    """Look up a format by name; accepts SQL-ish aliases (``"double"``)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown float format {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
