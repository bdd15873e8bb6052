"""RSUM: reproducible summation entry points (paper Algorithm 2).

:func:`reproducible_sum` / :class:`ReproducibleSummer` run the ladder
SQL's SUM runs: one :class:`~repro.aggregation.grouped.GroupedSummation`
group fed through :func:`~repro.aggregation.grouped.add_blocked_multi`,
the call ``LadderSum`` makes.  A library sum therefore equals ``SELECT
SUM(v)`` / ``RSUM(v, L)`` over the same values bit for bit by
construction.  The scalar Algorithm 2 state it is held against, and
the literal transcription of the paper's algorithm, live with the
figure benches (``benchmarks/paper/state.py``, ``rsum_paper.py``).
"""

from __future__ import annotations

import numpy as np

from ..aggregation.grouped import GroupedSummation, add_blocked_multi
from ..fp.formats import FloatFormat, format_by_name
from .params import DEFAULT_LEVELS, RsumParams

__all__ = [
    "reproducible_sum",
    "ReproducibleSummer",
    "params_from_spec",
    "repro_spec_name",
]


def params_from_spec(dtype="double", levels: int = DEFAULT_LEVELS, w=None) -> RsumParams:
    """Resolve a user-facing dtype spec into :class:`RsumParams`.

    ``dtype`` may be a string (``"float"``/``"double"``/``"binary32"``/
    ...), a NumPy dtype, or a :class:`FloatFormat`.
    """
    if isinstance(dtype, FloatFormat):
        fmt = dtype
    elif isinstance(dtype, str):
        fmt = format_by_name(dtype)
    else:
        from ..fp.formats import format_for_dtype

        fmt = format_for_dtype(dtype)
    return RsumParams(fmt, levels, w)


def repro_spec_name(params: RsumParams) -> str:
    """Paper-style type name, e.g. ``repro<float,2>``."""
    scalar = {"binary32": "float", "binary64": "double"}.get(
        params.fmt.name, params.fmt.name
    )
    return f"repro<{scalar},{params.levels}>"


def reproducible_sum(values, dtype="double", levels: int = DEFAULT_LEVELS, w=None):
    """Bit-reproducible sum of ``values``.

    The result has exactly the same bit pattern for any permutation,
    chunking, or parallel split of the input.  With ``levels=2`` the
    accuracy is comparable to a conventional left-to-right sum; each
    further level adds ``W`` bits of accuracy (paper Table II).

    >>> import numpy as np
    >>> x = np.array([2.5e-16, 0.999999999999999, 2.5e-16])
    >>> bool(reproducible_sum(x) == reproducible_sum(x[::-1]))
    True
    """
    summer = ReproducibleSummer(dtype=dtype, levels=levels, w=w)
    summer.add_array(values)
    return summer.result()


class ReproducibleSummer:
    """Streaming reproducible summation (resumable, mergeable).

    The per-group state of SQL's SUM, for one group: values can be
    added one at a time or in batches, summers of different workers
    can be merged, and :meth:`result` finalises per Equation 1.
    """

    def __init__(self, dtype="double", levels: int = DEFAULT_LEVELS, w=None,
                 params: RsumParams | None = None):
        self.params = params if params is not None else params_from_spec(dtype, levels, w)
        self.table = GroupedSummation(self.params, 1)

    def add(self, value) -> None:
        """Add a single value."""
        self.add_array([value])

    def add_array(self, values) -> None:
        """Add a batch of values."""
        values = np.asarray(values, dtype=self.table._dtype).ravel()
        group_ids = np.zeros(values.size, dtype=np.int64)
        add_blocked_multi([self.table], group_ids, [values])

    def merge(self, other: "ReproducibleSummer") -> None:
        """Absorb another summer's state (for parallel reductions)."""
        self.table.merge(other.table)

    def result(self):
        """Finalise: the reproducible floating-point sum."""
        return self.table.finalize()[0]

    def __iadd__(self, value):
        if isinstance(value, ReproducibleSummer):
            self.merge(value)
        else:
            self.add(value)
        return self
