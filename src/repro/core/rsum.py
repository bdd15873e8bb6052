"""RSUM: reproducible summation entry points (paper Algorithm 2).

:func:`reproducible_sum` / :class:`ReproducibleSummer` are built on
:class:`repro.core.state.SummationState` (anchor extraction,
integer-canonical carries; see that module's docstring for why this is
the hardened formulation).  The literal transcription of Algorithm 2
that they are cross-checked against is ``benchmarks/paper/rsum_paper.py``.
"""

from __future__ import annotations

from ..fp.formats import FloatFormat, format_by_name
from .params import DEFAULT_LEVELS, RsumParams
from .state import SummationState

__all__ = [
    "reproducible_sum",
    "ReproducibleSummer",
    "params_from_spec",
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

    This is the object MonetDB-style operators hold per group: values
    can be added one at a time or in batches, states of different
    workers can be merged, and :meth:`result` finalises per Equation 1.
    """

    def __init__(self, dtype="double", levels: int = DEFAULT_LEVELS, w=None,
                 params: RsumParams | None = None):
        self.params = params if params is not None else params_from_spec(dtype, levels, w)
        self.state = SummationState(self.params)

    def add(self, value) -> None:
        """Add a single value (scalar path)."""
        self.state.add(value)

    def add_array(self, values) -> None:
        """Add a batch of values (vectorised path)."""
        self.state.add_array(values)

    def merge(self, other: "ReproducibleSummer") -> None:
        """Absorb another summer's state (for parallel reductions)."""
        self.state.merge(other.state)

    def result(self):
        """Finalise: the reproducible floating-point sum."""
        return self.state.finalize()

    def __iadd__(self, value):
        if isinstance(value, ReproducibleSummer):
            self.merge(value)
        else:
            self.add(value)
        return self
