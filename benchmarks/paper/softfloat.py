"""Software floating-point arithmetic with arbitrary mantissa width.

The paper develops its intuition on small "toy" formats: an ``m = 2``
format with truncation in the associativity example of Section II-B and
an ``m = 4`` format in the worked RSUM example of Figure 2.  This module
implements exact software floating-point values over any
:class:`~repro.fp.formats.FloatFormat` so those examples (and the
property tests) can be executed literally.

Values are held as exact :class:`fractions.Fraction` objects that are
*guaranteed representable* in their format; the only place rounding
happens is :func:`round_to_format`, which implements round-to-nearest-
even (IEEE default) and truncation (the paper's toy example).  Because
the representation is exact, the tests can cross-check native IEEE
arithmetic bit-for-bit against this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro.fp.formats import BINARY64, FloatFormat

__all__ = [
    "RoundingMode",
    "NEAREST_EVEN",
    "TRUNCATE",
    "round_to_format",
    "SoftFloat",
]

Real = Union[int, float, Fraction]


class RoundingMode:
    """Marker class for rounding modes (see module docstring)."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoundingMode({self.name})"


NEAREST_EVEN = RoundingMode("nearest-even")
TRUNCATE = RoundingMode("truncate")


def _to_fraction(value: Real) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if math.isinf(value) or math.isnan(value):
        raise ValueError(f"cannot convert non-finite {value!r} to Fraction")
    return Fraction(value)


def round_to_format(
    value: Real,
    fmt: FloatFormat = BINARY64,
    mode: RoundingMode = NEAREST_EVEN,
) -> Fraction:
    """The paper's rounding function ``rd``: map a real to format ``fmt``.

    Returns the rounded value as an exact Fraction.  Overflow raises
    ``OverflowError`` (the toy examples never overflow; the IEEE paths
    in :mod:`repro.core` use native arithmetic where overflow produces
    infinities instead).  Subnormal results are rounded with the reduced
    precision IEEE prescribes.
    """
    frac = _to_fraction(value)
    if frac == 0:
        return Fraction(0)
    sign = -1 if frac < 0 else 1
    mag = abs(frac)

    # Exponent of the infinitely precise value: 2**e <= mag < 2**(e+1).
    e = _floor_log2(mag)

    # Quantum the result must be a multiple of.  Below the normal range
    # the quantum freezes at 2**(E_min - m) (gradual underflow).
    quantum_exp = max(e, fmt.min_exponent) - fmt.mantissa_bits
    quantum = Fraction(2) ** quantum_exp

    steps = mag / quantum
    lower = steps.numerator // steps.denominator
    remainder = steps - lower

    if mode is TRUNCATE:
        rounded_steps = lower
    else:  # round to nearest, ties to even
        if remainder > Fraction(1, 2):
            rounded_steps = lower + 1
        elif remainder < Fraction(1, 2):
            rounded_steps = lower
        else:
            rounded_steps = lower if lower % 2 == 0 else lower + 1

    result = sign * rounded_steps * quantum
    if result != 0:
        result_exp = _floor_log2(abs(result))
        if result_exp > fmt.max_exponent:
            raise OverflowError(
                f"{float(value)!r} overflows {fmt.name} "
                f"(exponent {result_exp} > {fmt.max_exponent})"
            )
    return result


def _floor_log2(mag: Fraction) -> int:
    """Exact ``floor(log2(mag))`` for a positive Fraction."""
    if mag <= 0:
        raise ValueError("argument must be positive")
    e = mag.numerator.bit_length() - mag.denominator.bit_length()
    # e is now floor(log2) up to an off-by-one; fix up exactly.
    if Fraction(2) ** e > mag:
        e -= 1
    elif Fraction(2) ** (e + 1) <= mag:
        e += 1
    return e


@dataclass(frozen=True)
class SoftFloat:
    """A representable value in a software floating-point format.

    Arithmetic rounds after every operation, exactly as hardware would:
    ``a + b`` is the paper's ``a (+) b = rd(a + b)``.
    """

    fmt: FloatFormat
    frac: Fraction
    mode: RoundingMode = NEAREST_EVEN

    @classmethod
    def from_real(
        cls,
        value: Real,
        fmt: FloatFormat = BINARY64,
        mode: RoundingMode = NEAREST_EVEN,
    ) -> "SoftFloat":
        """Round an arbitrary real into the format (entry point for literals)."""
        return cls(fmt, round_to_format(value, fmt, mode), mode)

    def __post_init__(self):
        rounded = round_to_format(self.frac, self.fmt, TRUNCATE)
        if rounded != self.frac:
            raise ValueError(
                f"{self.frac} is not representable in {self.fmt.name}"
            )

    # -- arithmetic (each op rounds, like hardware) ---------------------
    def _wrap(self, real: Fraction) -> "SoftFloat":
        return SoftFloat(self.fmt, round_to_format(real, self.fmt, self.mode), self.mode)

    def __add__(self, other: "SoftFloat") -> "SoftFloat":
        self._check(other)
        return self._wrap(self.frac + other.frac)

    def __sub__(self, other: "SoftFloat") -> "SoftFloat":
        self._check(other)
        return self._wrap(self.frac - other.frac)

    def __neg__(self) -> "SoftFloat":
        return SoftFloat(self.fmt, -self.frac, self.mode)

    def _check(self, other: "SoftFloat") -> None:
        if other.fmt is not self.fmt:
            raise TypeError(
                f"mixed formats: {self.fmt.name} vs {other.fmt.name}"
            )

    # -- paper §III-A quantities ----------------------------------------
    def ufp(self) -> Fraction:
        """Unit in the first place (exact)."""
        if self.frac == 0:
            raise ValueError("ufp undefined for zero")
        return Fraction(2) ** _floor_log2(abs(self.frac))

    def ulp(self) -> Fraction:
        """Unit in the last place in this format (exact)."""
        if self.frac == 0:
            raise ValueError("ulp undefined for zero")
        return self.ufp() / (Fraction(2) ** self.fmt.mantissa_bits)

    # -- conversions ------------------------------------------------------
    def __float__(self) -> float:
        return float(self.frac)

    def exact(self) -> Fraction:
        """The exact value (no rounding: SoftFloats are representable)."""
        return self.frac

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SoftFloat({float(self.frac)!r}, {self.fmt.name})"
