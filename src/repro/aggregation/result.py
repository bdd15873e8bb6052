"""Result container for GROUP BY aggregations."""

from __future__ import annotations

import numpy as np

__all__ = ["GroupByResult"]


def _bit_patterns(arr: np.ndarray) -> list:
    """Floats as the unsigned integers of their bits; anything else as
    its own Python values."""
    if arr.dtype.kind == "f":
        arr = arr.view(np.dtype(f"u{arr.dtype.itemsize}"))
    return arr.tolist()


class GroupByResult:
    """The ``(key, aggregate)`` pairs produced by a GROUP BY SUM.

    ``keys[i]`` is the i-th distinct key, ``sums[i]`` its aggregate.
    Group order depends on who produced it (:func:`repro.group_sum`:
    ascending keys); use :meth:`sorted_by_key` before comparing results
    of different producers.
    """

    __slots__ = ("keys", "sums", "spec_name")

    def __init__(self, keys: np.ndarray, sums: np.ndarray, spec_name: str = ""):
        self.keys = np.asarray(keys)
        self.sums = np.asarray(sums)
        if self.keys.shape != self.sums.shape:
            raise ValueError("keys and sums must have the same length")
        self.spec_name = spec_name

    def __len__(self) -> int:
        return len(self.keys)

    def sorted_by_key(self) -> "GroupByResult":
        """Canonical ordering for cross-algorithm comparison."""
        order = np.argsort(self.keys, kind="stable")
        return GroupByResult(self.keys[order], self.sums[order], self.spec_name)

    def as_dict(self) -> dict:
        return dict(zip(self.keys.tolist(), self.sums))

    def bits(self) -> list[int]:
        """Bit patterns of the aggregates, in key order.

        This is the identity under which the paper defines
        reproducibility: two executions agree iff these lists agree.
        Float sums of any width are compared by their bits, integer
        aggregates by value.
        """
        return _bit_patterns(self.sorted_by_key().sums)

    def bit_equal(self, other: "GroupByResult") -> bool:
        a, b = self.sorted_by_key(), other.sorted_by_key()
        return (
            len(a) == len(b)
            and _bit_patterns(a.keys) == _bit_patterns(b.keys)
            and _bit_patterns(a.sums) == _bit_patterns(b.sums)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupByResult({len(self)} groups, spec={self.spec_name or '?'})"
        )
