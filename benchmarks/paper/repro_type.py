"""The reproducible drop-in data type ``repro<ScalarT, L>`` (Section IV).

    "It simply consists of an <S, C> pair [...].  In languages such as
    C++, we can implement this data type as a class with member
    variables S[L] and C[L] and overload its operator+= for summation
    with scalars and instances of that type."

:class:`ReproFloat` is that class.  Any aggregation algorithm that keeps
one accumulator per group can swap its ``float``/``double`` accumulator
for a :class:`ReproFloat` and become bit-reproducible without further
changes — at the 4-12x cost the paper measures in Figure 4, which is
what motivates the summation buffers of Section V.

The only arithmetic operation the type supports is addition (paper
footnote 7): it is an accumulator type for the execution engine, not a
general numeric type.
"""

from __future__ import annotations

from repro.core.params import DEFAULT_LEVELS, RsumParams
from repro.core.rsum import params_from_spec, repro_spec_name
from repro.fp.ieee import float32_to_bits, float_to_bits

from .state import SummationState

__all__ = ["ReproFloat"]


class ReproFloat:
    """Associative floating-point accumulator: ``repro<ScalarT, L>``.

    >>> acc = ReproFloat("double", levels=2)
    >>> acc += 0.1
    >>> acc += 0.2
    >>> float(acc)  # doctest: +ELLIPSIS
    0.30000000000000...

    Addition is associative and commutative up to the bit level::

        a = ReproFloat("double"); a += x; a += y
        b = ReproFloat("double"); b += y; b += x
        assert a.bits() == b.bits()
    """

    __slots__ = ("params", "state")

    def __init__(self, dtype="double", levels: int = DEFAULT_LEVELS, w=None,
                 params: RsumParams | None = None):
        self.params = params if params is not None else params_from_spec(dtype, levels, w)
        self.state = SummationState(self.params)

    # -- the paper's operator+= ----------------------------------------
    def __iadd__(self, other) -> "ReproFloat":
        if isinstance(other, ReproFloat):
            self.state.merge(other.state)
        else:
            self.state.add(other)
        return self

    def add_array(self, values) -> "ReproFloat":
        """Batch variant of ``+=`` (used by the summation buffers)."""
        self.state.add_array(values)
        return self

    # -- value access ----------------------------------------------------
    @property
    def value(self):
        """The reproducible sum in the scalar type (Equation 1)."""
        return self.state.finalize()

    def __float__(self) -> float:
        return float(self.value)

    def bits(self) -> int:
        """Bit pattern of the finalised value (reproducibility identity)."""
        if self.params.fmt.name == "binary32":
            return float32_to_bits(self.value)
        return float_to_bits(float(self.value))

    # -- structural helpers ----------------------------------------------
    def copy(self) -> "ReproFloat":
        clone = ReproFloat(params=self.params)
        clone.state = self.state.copy()
        return clone

    @property
    def type_name(self) -> str:
        return repro_spec_name(self.params)

    def __eq__(self, other) -> bool:
        """Bit-level equality of the finalised values."""
        if isinstance(other, ReproFloat):
            return self.params == other.params and self.bits() == other.bits()
        return NotImplemented

    def __hash__(self):
        raise TypeError("ReproFloat is unhashable (mutable accumulator)")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.type_name}({float(self.value)!r})"
