"""Bit-level helpers for IEEE floating-point values.

These implement the quantities the paper defines in Section III-A:

* ``ufp(x)`` — *unit in the first place*: the value of the leading
  mantissa bit.  For ``x = M * 2**E`` with ``M`` in ``[1, 2)``,
  ``ufp(x) = 2**E``.
* ``ulp(x)`` — *unit in the last place*: the value of the trailing
  mantissa bit, ``ulp(x) = 2**(E - m)`` for an ``m``-bit mantissa.

Both are defined per *format*, because the core algorithms run on
binary32 and binary64 (and, through ``benchmarks/paper/softfloat.py``, on toy
formats).  All helpers are exact: they use ``math.frexp`` / ``math.ldexp``
rather than logarithms, so no rounding can leak in.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .formats import BINARY32, BINARY64, FloatFormat

__all__ = [
    "exponent",
    "ufp",
    "ulp",
    "ulp_at",
    "is_multiple_of",
    "float_to_bits",
    "bits_to_float",
    "float32_to_bits",
    "bits_to_float32",
    "same_bits",
    "exact_pow2",
]


def exponent(x: float) -> int:
    """Return ``E`` such that ``|x| = M * 2**E`` with ``M`` in ``[1, 2)``.

    Exact for every finite non-zero float, including subnormals.
    Raises ``ValueError`` for zero, infinity, or NaN, for which the
    exponent is not defined.
    """
    if x == 0.0 or math.isinf(x) or math.isnan(x):
        raise ValueError(f"exponent undefined for {x!r}")
    _, e = math.frexp(abs(x))  # frexp: |x| = f * 2**e, f in [0.5, 1)
    return e - 1


def ufp(x: float) -> float:
    """Unit in the first place: ``2**exponent(x)`` (Goldberg / paper §III-A)."""
    return math.ldexp(1.0, exponent(x))


def ulp(x: float, fmt: FloatFormat = BINARY64) -> float:
    """Unit in the last place of ``x`` in format ``fmt``: ``2**(E - m)``.

    Note this is the ulp of ``x``'s *binade*, i.e. the spacing of
    representable numbers around ``x``, assuming ``x`` is normal.
    """
    return math.ldexp(1.0, exponent(x) - fmt.mantissa_bits)


def ulp_at(exp: int, fmt: FloatFormat = BINARY64) -> float:
    """ulp of the binade with exponent ``exp``: ``2**(exp - m)``."""
    return math.ldexp(1.0, exp - fmt.mantissa_bits)


def is_multiple_of(x: float, unit: float) -> bool:
    """Exact check that ``x`` is an integer multiple of ``unit``.

    Used throughout the tests to verify error-free transformation
    invariants (contributions must be multiples of the extractor ulp).
    Computed with :class:`fractions.Fraction`, so there is no rounding.
    """
    from fractions import Fraction

    if x == 0.0:
        return True
    if unit == 0.0:
        return False
    ratio = Fraction(x) / Fraction(unit)
    return ratio.denominator == 1


def float_to_bits(x: float) -> int:
    """Raw IEEE binary64 bit pattern of ``x`` as an unsigned 64-bit int."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def bits_to_float(bits: int) -> float:
    """Inverse of :func:`float_to_bits`."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def float32_to_bits(x) -> int:
    """Raw IEEE binary32 bit pattern as an unsigned 32-bit int."""
    return struct.unpack("<I", struct.pack("<f", float(np.float32(x))))[0]


def bits_to_float32(bits: int) -> np.float32:
    """Inverse of :func:`float32_to_bits`."""
    return np.float32(struct.unpack("<f", struct.pack("<I", bits))[0])


def same_bits(a, b) -> bool:
    """Bit-identity of two floats (distinguishes -0.0 from +0.0, NaNs by payload).

    This is the paper's definition of reproducibility: "the aggregate of
    each group has exactly the same bit pattern for any execution".
    """
    if isinstance(a, np.float32) or isinstance(b, np.float32):
        return float32_to_bits(np.float32(a)) == float32_to_bits(np.float32(b))
    return float_to_bits(float(a)) == float_to_bits(float(b))


def exact_pow2(exp: int) -> float:
    """``2**exp`` as a float, exact over the binary64 exponent range."""
    return math.ldexp(1.0, exp)
