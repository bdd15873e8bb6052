"""Floating-point substrate: formats, bit-level helpers and fixed-point
DECIMAL types (the exact-rational software float the paper's worked
examples use is ``benchmarks/paper/softfloat.py``).

This package contains everything the reproducible-summation core needs
to reason about number representations, independent of any database
machinery.
"""

from .decimal_fixed import (
    DECIMAL9,
    DECIMAL18,
    DECIMAL38,
    DecimalColumn,
    DecimalOverflowError,
    DecimalType,
    DecimalValue,
)
from .formats import (
    BINARY16,
    BINARY32,
    BINARY64,
    TOY_M2,
    TOY_M4,
    FloatFormat,
    format_by_name,
    format_for_dtype,
)
from .ieee import (
    bits_to_float,
    bits_to_float32,
    exact_pow2,
    exponent,
    float32_to_bits,
    float_to_bits,
    is_multiple_of,
    same_bits,
    ufp,
    ulp,
    ulp_at,
)

__all__ = [
    "BINARY16",
    "BINARY32",
    "BINARY64",
    "TOY_M2",
    "TOY_M4",
    "FloatFormat",
    "format_by_name",
    "format_for_dtype",
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
    "DecimalType",
    "DecimalValue",
    "DecimalColumn",
    "DecimalOverflowError",
    "DECIMAL9",
    "DECIMAL18",
    "DECIMAL38",
]
