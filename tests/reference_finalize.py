"""Equation 1 as NumPy passes: the oracle of the compiled finalize.

:meth:`repro.aggregation.grouped.GroupedSummation.finalize` is one C
loop over the groups (``ladder_finalize`` in ``_ladder.c``).  This is
the vectorised form it replaced, kept as the independent statement of
the same IEEE operations in the same order: per level from the bottom
up, ``res + (ldexp(s, e_l - m) + c * ldexp(0.25, e_l))`` over the
levels whose exponent ``e_l = e0 - l*W`` is at least ``emin``, then the
+inf / -inf / NaN overrides.  ``tests/aggregation/test_finalize.py``
holds the two bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.grouped import _EMPTY_E0

__all__ = ["finalize"]


def finalize(table) -> np.ndarray:
    """Per-group sums of a :class:`GroupedSummation`, vectorised."""
    dtype = table._dtype
    dt = dtype.type
    res = np.zeros(table.ngroups, dtype=dtype)
    valid = table.e0 > _EMPTY_E0
    # float16 casts and products past the format's range overflow to
    # inf, as the compiled loop's rounding does
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(table._L - 1, -1, -1):
            e_l = table.e0 - level * table._w
            active = valid & (e_l >= table._emin)
            exp = np.where(active, e_l, 0).astype(np.int32)
            offset = np.ldexp(table.s[level].astype(dtype), exp - table._m)
            carries = table.c[level].astype(dtype) * np.ldexp(dt(0.25), exp)
            term = offset + carries
            res = np.where(active, res + term, res)
    has_nan = (table.nan_cnt > 0) | ((table.pos_cnt > 0)
                                     & (table.neg_cnt > 0))
    res = np.where(table.pos_cnt > 0, dt(np.inf), res)
    res = np.where(table.neg_cnt > 0, dt(-np.inf), res)
    return np.where(has_nan, dt(np.nan), res)
