"""Reproducible statistical aggregates and dot products.

The paper (Section I, footnote 2) claims that a reproducible SUM is
sufficient to make every SQL aggregate reproducible: "The remaining
functions offered by the Oracle database can be computed with SUM" —
VARIANCE, STDDEV, covariance, and friends.  Its future work adds
"operators for machine learning, vector manipulation, and series
analysis based on the algorithms presented in this paper".  This
module delivers both:

* :func:`reproducible_dot` — bit-reproducible inner product.  Each
  pairwise product is split exactly into ``hi + lo`` with Dekker/
  Veltkamp two-product (no FMA needed), and both streams feed one
  reproducible summation, so the result is independent of element
  order *and* exact up to the final RSUM bound.
* :func:`reproducible_mean` — one reproducible sum, one divide.
* The second moment behind SQL's VARIANCE / STDDEV family and
  :func:`reproducible_variance` / :func:`reproducible_std`: one state,
  three sums — ``Σx``, and ``Σhi`` / ``Σlo`` of the exact squares
  ``x·x = hi + lo`` (:func:`square_halves`) — combined exactly at
  finalize (:func:`second_moment`) and rounded once (:func:`variance`).

**The exact combine.**  In ``repro`` mode the three sums are ladders
of :data:`MOMENT2_PARAMS` — 4 levels of ``W = 40`` bits, a depth that
belongs to the state, not to the session's ``levels``.  Their
*unrounded* states are integers times powers of two
(:meth:`~repro.aggregation.grouped.GroupedSummation.exact`), so
``n·Σx² − (Σx)²`` is formed in Python integers and divided by
``n·(n − ddof)`` with one correct rounding.  A ladder's top sits
between ``m − W + 2`` and ``m + 1`` bits above its largest input's
binade (``m = 52``) and its bottom unit ``(L − 1)·W = 120`` bits below
the top, so an input is held exactly when it lies within
``(L − 1)·W − m − 1 = 67`` binades of its ladder's largest magnitude
(up to ``L·W − m − 2 = 106``, by where the maximum falls on the
``W``-bit grid).  ``hi`` and ``lo`` carry 53 bits each on ladders of
their own, so every square of a group is held exactly when its ``x``
lies within 33 binades of the group's largest ``|x|`` and
every non-zero ``|x|`` lies in ``[2**-465, 2**493)`` (no square
underflows; a larger one is past the ladder range,
:class:`~repro.errors.LadderOverflowError`).
Inside that band VARIANCE is the correctly rounded exact value, and
the numerator is never negative: an ``x`` below ``2**-33`` of the
group's largest ``|x|`` makes the exact numerator at least a quarter of
the largest square, far above the ``2**-117``-relative bits the ladders
can drop (for any ``n`` below ``2**50``).  Squares that underflow are
the one way out: below ``|x| = 2**-465`` Dekker's ``lo`` and the
ladders' subnormal bottom levels drop bits under ``2**-1034``, and a
near-constant group of such values can read a numerator a few of
those units below 0.  A negative numerator reads 0.

**ieee.**  The same combine runs over the three IEEE float sums.  Each
recursive sum of ``n`` terms is off by at most ``γ = (n−1)·u`` times
the sum of magnitudes (``u = 2**-53``), which bounds
``|VAR − exact| <= 3·(n − 1)·u·Σx² / (n − ddof)`` to first order in
``n·u``, plus the final rounding; STDDEV is within the square root of
that.  Here a negative numerator — the rounded ``(Σx)²`` outgrowing
``n·Σx²`` — is rounding, and reads 0 as well.

A group that saw a NaN, an infinity or a square past the binary64
range has a NaN VARIANCE.  All of these inherit RSUM's guarantee: any
permutation or chunking of the inputs yields the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from ..aggregation.grouped import GroupedSummation, add_blocked_multi
from ..fp.formats import BINARY64
from .params import DEFAULT_LEVELS, RsumParams
from .rsum import ReproducibleSummer

__all__ = [
    "two_product",
    "two_product_array",
    "reproducible_dot",
    "reproducible_mean",
    "reproducible_variance",
    "reproducible_std",
    "MOMENT2_PARAMS",
    "square_halves",
    "exact_float_sums",
    "second_moment",
    "variance",
]

#: The second moment's ladders: 4 levels at binary64's ``W = 40`` hold
#: ``x`` and both halves of ``x·x`` exactly across the band the module
#: docstring derives (3 levels drop bits of near-constant groups).
MOMENT2_PARAMS = RsumParams(BINARY64, 4)

#: Veltkamp splitting factor for binary64: 2**27 + 1.
_SPLIT64 = float(2**27 + 1)


def _split(a: np.ndarray):
    """Veltkamp split: a == hi + lo with hi, lo holding <=26/27 bits."""
    c = _SPLIT64 * a
    hi = c - (c - a)
    lo = a - hi
    return hi, lo


def two_product(a: float, b: float) -> tuple[float, float]:
    """Dekker's TwoProduct: ``(p, e)`` with ``p = fl(a*b)`` and
    ``p + e == a * b`` exactly (for non-over/underflowing products)."""
    p = a * b
    ah, al = _split(np.float64(a))
    bh, bl = _split(np.float64(b))
    e = ((float(ah) * float(bh) - p) + float(ah) * float(bl)
         + float(al) * float(bh)) + float(al) * float(bl)
    return p, e


def two_product_array(a: np.ndarray, b: np.ndarray):
    """Vectorised TwoProduct over float64 arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def reproducible_dot(x, y, levels: int = DEFAULT_LEVELS, w=None) -> float:
    """Bit-reproducible dot product ``sum_i x_i * y_i``.

    Both the rounded products and their exact error terms are summed
    reproducibly, so the result is typically *more* accurate than a
    conventional dot product and identical for any element order.

    >>> import numpy as np
    >>> x = np.array([1e8, 1.0, -1e8]); y = np.array([1e8, 1.0, 1e8])
    >>> reproducible_dot(x, y) == reproducible_dot(x[::-1], y[::-1])
    True
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D arrays")
    products, errors = two_product_array(x, y)
    summer = ReproducibleSummer("double", levels, w)
    summer.add_array(products)
    summer.add_array(errors)
    return float(summer.result())


def reproducible_mean(values, levels: int = DEFAULT_LEVELS) -> float:
    """Reproducible arithmetic mean (one reproducible sum, one divide)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("mean of empty input")
    total = ReproducibleSummer("double", levels)
    total.add_array(values)
    return float(total.result()) / values.size


def square_halves(x: np.ndarray):
    """``(hi, lo)`` with ``hi + lo == x·x`` exactly (Dekker's
    TwoProduct) for every ``x`` whose square neither overflows nor
    underflows.  Where ``hi`` is not finite ``lo`` is 0, so a NaN, an
    infinity or an overflowing square reaches the sums once, as
    ``hi``."""
    with np.errstate(over="ignore", invalid="ignore"):
        hi, lo = two_product_array(x, x)
    lo[~np.isfinite(hi)] = 0.0
    return hi, lo


def exact_float_sums(sums: np.ndarray):
    """IEEE float64 sums in :meth:`~repro.aggregation.grouped.
    GroupedSummation.exact`'s form: ``(integers, exponents,
    nonfinite)`` with ``sums == integers * 2**exponents`` exactly."""
    nonfinite = ~np.isfinite(sums)
    mantissas, exponents = np.frexp(np.where(nonfinite, 0.0, sums))
    integers = np.ldexp(mantissas, 53).astype(np.int64).astype(object)
    return integers, exponents.astype(np.int64) - 53, nonfinite


def second_moment(counts: np.ndarray, sum_x, sum_hi, sum_lo):
    """``n·Σx² − (Σx)²`` per group, exact, from three sums in
    :func:`exact_float_sums` form: ``(numerators, exponents,
    nonfinite)``, each group's numerator ``numerators[g] *
    2**exponents[g]``."""
    (ax, ex, bad_x), (ah, eh, bad_h), (al, el, bad_l) = sum_x, sum_hi, sum_lo
    base = np.minimum(np.minimum(eh, el), 2 * ex)
    numerators = (counts.astype(object) * ((ah << (eh - base))
                                           + (al << (el - base)))
                  - ((ax * ax) << (2 * ex - base)))
    return numerators, base, bad_x | bad_h | bad_l


def _rounded_ratio(numerator: int, exponent: int, denominator: int) -> float:
    """``numerator * 2**exponent / denominator``, correctly rounded
    (Python's integer true division rounds once); a negative numerator
    reads 0 (the module docstring says when one occurs)."""
    if numerator <= 0:
        return 0.0
    try:
        if exponent >= 0:
            return (numerator << exponent) / denominator
        return numerator / (denominator << -exponent)
    except OverflowError:
        return math.inf


def variance(moment, counts: np.ndarray, ddof: int) -> np.ndarray:
    """Per-group variance from :func:`second_moment`: the numerator
    (0 if negative) over ``n·(n − ddof)``, rounded once; ``n <= ddof``
    divides by ``n`` (a one-row sample variance is 0, an empty group's
    0 / 1).  NaN for a group that saw a non-finite value."""
    numerators, exponents, nonfinite = moment
    counts = np.asarray(counts, dtype=np.int64)
    denominators = np.maximum(counts, 1) * np.maximum(counts - ddof, 1)
    out = np.array(
        [_rounded_ratio(a, e, d) for a, e, d in zip(
            numerators.tolist(), exponents.tolist(), denominators.tolist())],
        dtype=np.float64,
    )
    out[nonfinite] = np.nan
    return out


#: Parameters the variance functions no longer take -> why.
_RETIRED = {
    "levels": "the second moment's ladders have a fixed depth of "
              f"{MOMENT2_PARAMS.levels} levels (MOMENT2_PARAMS), which "
              "holds the exact squares; a session's levels no longer "
              "reach it either",
}


def _refuse_retired(function: str, retired: dict) -> None:
    for name in retired:
        if name not in _RETIRED:
            raise TypeError(f"{function}() got an unexpected keyword "
                            f"argument {name!r}")
        raise TypeError(f"{function}() no longer takes {name!r}: "
                        f"{_RETIRED[name]}")


def reproducible_variance(values, ddof: int = 0, **retired) -> float:
    """Reproducible variance: SQL's ``VAR_POP`` (``ddof=0``) /
    ``VARIANCE`` (``ddof=1``) over one group, bit for bit — the same
    three ladders fed by the same :func:`add_blocked_multi` call and
    the same exact combine (see the module docstring)."""
    _refuse_retired("reproducible_variance", retired)
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size <= ddof:
        raise ValueError("not enough values for the requested ddof")
    sums = [GroupedSummation(MOMENT2_PARAMS, 1) for _ in range(3)]
    add_blocked_multi(sums, np.zeros(x.size, dtype=np.int64),
                      [x, *square_halves(x)])
    counts = np.array([x.size], dtype=np.int64)
    moment = second_moment(counts, *(s.exact() for s in sums))
    return float(variance(moment, counts, ddof)[0])


def reproducible_std(values, ddof: int = 0, **retired) -> float:
    """Reproducible standard deviation: SQL's ``STDDEV_POP`` /
    ``STDDEV`` (sqrt is correctly rounded, hence deterministic)."""
    _refuse_retired("reproducible_std", retired)
    return math.sqrt(reproducible_variance(values, ddof))
