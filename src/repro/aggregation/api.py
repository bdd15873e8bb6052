"""``group_sum``: SQL's ``SUM ... GROUP BY`` over two arrays.

    result = group_sum(keys, values)                      # reproducible
    result = group_sum(keys, values, reproducible=False)  # IEEE baseline

It runs the code ``SELECT k, SUM(v) FROM t GROUP BY k`` runs: keys are
factorised once under the engine's key identity (one NaN group, ``-0.0``
joins ``0.0``); repro mode adds into one :class:`GroupedSummation`
through :func:`add_blocked_multi`, the call ``LadderSum`` makes through
``update_ladders``; ieee mode adds in row order with ``np.add.at``, as
``PlainSum.add`` does.  So the two agree bit for bit by construction.
"""

from __future__ import annotations

import numpy as np

from ..core.rsum import params_from_spec, repro_spec_name
from .grouped import GroupedSummation, add_blocked_multi
from .result import GroupByResult

__all__ = ["group_sum"]

_PAPER = "benchmarks/paper/operators, imported as paper.operators"
#: Parameters ``group_sum`` no longer takes -> what replaced them.
RETIRED = {
    **dict.fromkeys(("method", "spec", "depth", "fanout", "threads",
                     "hashing", "engine", "seed"),
                    "the paper's hash / partition / sort / shared operators "
                    f"that took it are in {_PAPER}"),
    **dict.fromkeys(("buffered", "buffer_size"),
                    "summation buffers never change RSUM's bits; "
                    f"BufferedReproSpec is in {_PAPER}"),
    "decimal": "SUM over a DECIMAL column is exact in SQL (repro.open())",
    "sort_output": "groups always come in ascending key order",
}


def group_sum(keys, values, reproducible: bool = True, dtype="double",
              levels: int = 2, **retired) -> GroupByResult:
    """GROUP BY SUM over ``(keys, values)`` pairs, groups in ascending
    key order.  ``dtype`` (``"double"`` / ``"float"``) and ``levels``
    pick the accumulator, as a DOUBLE / FLOAT column and the session's
    ``levels`` do in SQL; ``reproducible=False`` is the IEEE baseline."""
    for name in retired:
        if name not in RETIRED:
            raise TypeError(f"group_sum() got an unexpected keyword "
                            f"argument {name!r}")
        raise TypeError(f"group_sum() no longer takes {name!r}: "
                        f"{RETIRED[name]}")
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.ndim != 1 or values.ndim != 1:
        raise ValueError("group_sum expects 1-D keys and values, got shapes "
                         f"{keys.shape} and {values.shape}")
    if keys.shape != values.shape:
        raise ValueError(f"keys and values must have the same length, got "
                         f"{keys.size} keys and {values.size} values")
    if keys.size == 0:
        raise ValueError("group_sum requires at least one (key, value) pair")
    if keys.dtype.kind == "f":
        keys = np.where(keys == 0, keys.dtype.type(0), keys)
        keys[np.isnan(keys)] = np.nan
    distinct, gids = np.unique(keys, return_inverse=True)
    params = params_from_spec(dtype, levels)
    if reproducible:
        table = GroupedSummation(params, distinct.size)
        add_blocked_multi([table], gids, [values])
        return GroupByResult(distinct, table.finalize(),
                             repro_spec_name(params))
    sums = np.zeros(distinct.size, dtype=params.fmt.dtype)
    with np.errstate(invalid="ignore"):  # +inf + -inf, as in PlainSum.add
        np.add.at(sums, gids, values.astype(sums.dtype, copy=False))
    return GroupByResult(distinct, sums, sums.dtype.name)
