"""Error-free transformations (paper Section III-B).

The reproducible summation algorithm rests on one primitive: splitting
an input value ``b`` against an *extractor* ``a`` into a contribution
``q`` that is an exact multiple of ``ulp(a)`` and an exact remainder
``r`` with ``q + r == b``:

    q := (a (+) b) (-) a        r := b (-) q

(Ogita, Rump & Oishi 2004; the paper's Figure 1).  Both subtractions are
exact when ``|b|`` is small enough relative to ``a`` — the calling code
in :mod:`paper.state` guarantees that by managing the extractor ladder
(the engine's vectorised ladder, ``repro.aggregation.grouped``, inlines
the same split).

This module provides the classical EFTs in scalar and NumPy-vectorised
form, for both binary64 (native Python floats) and binary32 (NumPy
scalars).  ``two_sum`` is included as the general-purpose EFT used in
tests to verify exactness claims.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

__all__ = [
    "two_sum",
    "fast_two_sum",
    "extract",
    "extract_array",
    "split_against_anchor",
    "exact_sum_fraction",
]


def two_sum(a: float, b: float) -> Tuple[float, float]:
    """Knuth's TwoSum: return ``(s, e)`` with ``s = fl(a+b)`` and
    ``s + e == a + b`` exactly (no branch, works for any a, b)."""
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb)
    return s, e


def fast_two_sum(a: float, b: float) -> Tuple[float, float]:
    """Dekker's FastTwoSum; requires ``|a| >= |b|`` (checked)."""
    if abs(b) > abs(a):
        a, b = b, a
    s = a + b
    e = b - (s - a)
    return s, e


def extract(a: float, b: float) -> Tuple[float, float]:
    """Paper's error-free transformation against extractor ``a``.

    Returns ``(q, r)`` with ``q = (a (+) b) (-) a`` and ``r = b (-) q``.
    The caller must ensure ``a + b`` stays in ``a``'s binade for the
    operation to be error-free (``|b| <= 0.25 * ufp(a)`` suffices when
    ``a`` is in ``[1.25, 1.75) * ufp(a)``).

    Works on Python floats (binary64) and NumPy float32 scalars alike,
    since both round every operation to their own precision.
    """
    q = (a + b) - a
    r = b - q
    return q, r


def extract_array(a, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`extract` for a whole array of inputs.

    ``a`` is a scalar extractor of the same dtype as ``b``.  NumPy
    applies IEEE arithmetic element-wise, so each lane behaves exactly
    like the scalar version.
    """
    q = (b + a) - a
    r = b - q
    return q, r


def split_against_anchor(b: np.ndarray, anchor, scale_exp: int) -> Tuple[np.ndarray, np.ndarray]:
    """Extract ``b`` against a constant anchor and return integer quanta.

    Returns ``(k, r)`` where ``k = q / 2**scale_exp`` as int64 (exact,
    because ``q`` is a multiple of the level ulp ``2**scale_exp``) and
    ``r`` is the exact remainder array.  This is the vectorised path of
    :meth:`paper.state.SummationState.add_array`.
    """
    q = (b + anchor) - anchor
    r = b - q
    k = np.ldexp(q, -scale_exp).astype(np.int64)
    return k, r


def exact_sum_fraction(values) -> Fraction:
    """Exact sum of floats as a Fraction (test oracle)."""
    total = Fraction(0)
    for v in values:
        f = float(v)
        if math.isnan(f) or math.isinf(f):
            raise ValueError("exact_sum_fraction requires finite values")
        total += Fraction(f)
    return total
