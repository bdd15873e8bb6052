"""Stable group-id order for one morsel (the paper's radix partitioners
live with its operators in ``benchmarks/paper/operators``)."""

from __future__ import annotations

import numpy as np

__all__ = ["stable_group_order"]


def stable_group_order(gids: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(gids, kind="stable")``, from one or
    two ``uint16`` radix passes.

    NumPy's stable sort is a radix sort for 16-bit keys and a merge
    sort for wider ones (about 7x slower on a 65 536-row morsel), and
    group ids are small non-negative integers — so sort by the low 16
    bits, then (ids at or past ``2**16`` only) stably by the next 16.
    Least-significant-digit radix passes compose to the one stable
    order, so the result equals the merge sort's element for element;
    negative ids and ids at or past ``2**32`` take the merge sort.
    """
    if gids.size == 0:
        return np.empty(0, dtype=np.intp)
    top = int(gids.max())
    if int(gids.min()) < 0 or top >= 1 << 32:
        return np.argsort(gids, kind="stable")
    if top < 1 << 16:
        return np.argsort(gids.astype(np.uint16), kind="stable")
    order = np.argsort((gids & 0xFFFF).astype(np.uint16), kind="stable")
    high = (gids >> 16).astype(np.uint16)
    return order[np.argsort(high[order], kind="stable")]
