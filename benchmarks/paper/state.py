"""The scalar Algorithm 2 state: the independent oracle of the engine's
ladder (paper Sections III-C and III-D).

A :class:`SummationState` is the complete state of one reproducible sum:
the *extractor ladder* plus, per level ``l``, the running sum ``S(l)``
and carry-bit counter ``C(l)`` of Algorithm 2.

Representation
--------------
The paper stores ``S(l)`` as a float pinned to ``[1.5, 1.75) * ufp`` and
``C(l)`` as a number of 0.25-ufp carries.  We store the same information
in integer-canonical form, which is exact by construction:

* ``e[l]`` — the level's binade exponent.  Level exponents live on the
  fixed grid ``{k * W}`` and satisfy ``e[l] = e0 - l*W``, so the whole
  ladder is described by ``e0``.  Using a *fixed* grid (rather than
  anchoring at the first input value, which the paper permits) makes the
  final ladder a function of ``max |b|`` alone — independent of input
  order — which is what the reproducibility guarantee rests on.
* ``s[l]`` — offset of ``S(l)`` above the anchor ``1.5 * 2**e[l]``,
  counted in level ulps ``u = 2**(e[l] - m)``; canonically in
  ``[0, 2**(m-2))``, i.e. ``S(l)`` in ``[1.5, 1.75) * ufp`` exactly as
  the paper requires.
* ``C[l]`` — carry counter, an unbounded Python int (the paper's float
  counter can overflow; ours cannot).

The float view is reconstructed exactly: ``S(l) = 1.5*2**e[l] + s[l]*u``.

Extraction
----------
Contributions are extracted against the *anchor* ``A = 1.5 * 2**e[l]``:
``q = (b (+) A) (-) A``, ``r = b (-) q``.  The paper extracts against
the running sum ``S(l)`` itself; the two coincide except when ``b``
falls exactly half-way between two multiples of the level ulp, where
round-to-nearest-even consults the last bit of the accumulator — i.e.
the accumulated *order* of previous inputs.  Anchor extraction removes
that order dependence (Demmel & Nguyen's binned formulation makes the
same choice), so bit-reproducibility holds unconditionally.  The
running-sum variant is kept in :mod:`paper.rsum_paper` for the
ablation study.

Role
----
No query runs this class.  ``repro.reproducible_sum``, SQL's SUM and
``repro.group_sum`` all run ``repro.aggregation.grouped``'s vectorised
ladder; this is the scalar formulation that ladder is held against
group by group in the tests, and the state the paper's accumulator
types (:mod:`paper.repro_type`, :mod:`paper.buffer`), the V-lane
Algorithm 3 (:mod:`paper.rsum_simd`) and the reduction topologies
(:mod:`paper.reduction`) are built on.  :func:`from_grouped` /
:func:`into_grouped` move one group between the two.

Because contributions are accumulated as exact integers, the SIMD block
size ``NB`` is not a correctness constraint here (no float accumulator
can leave its binade); it remains a *performance* parameter of the
paper's native implementation and is modelled in
``benchmarks/paper/simulator/costmodel.py``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.aggregation.grouped import _EMPTY_E0, GroupedSummation
from repro.core.params import RsumParams
from repro.errors import LadderOverflowError
from repro.fp.ieee import exponent as _exponent

from .eft import split_against_anchor

__all__ = ["SummationState", "from_grouped", "into_grouped"]

#: Block size for the vectorised path.  Any value works (see module
#: docstring); 4096 amortises NumPy call overhead nicely and matches the
#: paper's NB bound for binary64 (2**(52-40-1) = 2048) within a factor 2.
_VECTOR_BLOCK = 4096


class SummationState:
    """State of one reproducible sum over a fixed :class:`RsumParams`."""

    __slots__ = (
        "params",
        "e0",
        "s",
        "c",
        "nan_count",
        "posinf_count",
        "neginf_count",
        "_m",
        "_w",
        "_L",
        "_emin_grid",
        "_emax_grid",
        "_np_dtype",
    )

    def __init__(self, params: RsumParams):
        self.params = params
        fmt = params.fmt
        self._m = fmt.mantissa_bits
        self._w = params.w
        self._L = params.levels
        # Grid bounds keeping every anchor a normal number.
        self._emin_grid = -(-fmt.min_exponent // self._w) * self._w
        self._emax_grid = (fmt.max_exponent // self._w) * self._w
        self._np_dtype = fmt.dtype if fmt.dtype is not None else np.dtype(np.float64)
        self.e0: int | None = None
        self.s = [0] * self._L
        self.c = [0] * self._L
        self.nan_count = 0
        self.posinf_count = 0
        self.neginf_count = 0

    # ------------------------------------------------------------------
    # Ladder management
    # ------------------------------------------------------------------
    def _needed_e0(self, eb: int) -> int:
        """Smallest grid exponent whose level-0 threshold covers ``2**eb``.

        No-demotion condition (paper line 4 of Algorithm 2, negated):
        ``|b| < 2**(W-1) * ulp(S(1))`` i.e. ``e0 >= eb + m - W + 2``.
        """
        raw = eb + self._m - self._w + 2
        needed = -(-raw // self._w) * self._w  # ceil to grid
        if needed > self._emax_grid:
            raise LadderOverflowError(
                f"input with exponent {eb} exceeds the {self.params.fmt.name}"
                f" ladder range (max grid exponent {self._emax_grid})"
            )
        return max(needed, self._emin_grid)

    def _ensure_capacity(self, eb: int) -> None:
        """Init or demote the ladder so a value with exponent ``eb`` fits."""
        needed = self._needed_e0(eb)
        if self.e0 is None:
            self.e0 = needed
        elif needed > self.e0:
            self._demote_to(needed)

    def _demote_to(self, new_e0: int) -> None:
        """Paper lines 5-7 of Algorithm 2, jumped in one step.

        Every level moves down ``shift`` positions; the lowest ``shift``
        levels are discarded (their contribution is below the new
        accuracy horizon), and fresh zero levels appear on top.
        """
        shift = (new_e0 - self.e0) // self._w
        L = self._L
        new_s = [0] * L
        new_c = [0] * L
        for j in range(L - shift):
            new_s[j + shift] = self.s[j]
            new_c[j + shift] = self.c[j]
        self.s = new_s
        self.c = new_c
        self.e0 = new_e0

    def _level_exponent(self, level: int) -> int:
        assert self.e0 is not None
        return self.e0 - level * self._w

    def _level_active(self, level: int) -> bool:
        return self._level_exponent(level) >= self.params.fmt.min_exponent

    def _anchor(self, level: int):
        """The constant extractor ``A = 1.5 * 2**e[l]`` in the state dtype."""
        a = math.ldexp(1.5, self._level_exponent(level))
        if self._np_dtype == np.float64:
            return a
        return self._np_dtype.type(a)

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add(self, value) -> None:
        """Add one input value (scalar path, Algorithm 2 lines 2-18)."""
        f = float(value)
        if math.isnan(f):
            self.nan_count += 1
            return
        if math.isinf(f):
            if f > 0:
                self.posinf_count += 1
            else:
                self.neginf_count += 1
            return
        if f == 0.0:
            return
        b = self._np_dtype.type(value) if self._np_dtype != np.float64 else f
        self._ensure_capacity(_exponent(f))
        m = self._m
        r = b
        for level in range(self._L):
            if not self._level_active(level):
                break
            if r == 0:
                break
            a = self._anchor(level)
            q = (r + a) - a
            r = r - q
            k = int(math.ldexp(float(q), m - self._level_exponent(level)))
            self.s[level] += k
            self._propagate(level)

    def add_array(self, values, block_size: int = _VECTOR_BLOCK) -> None:
        """Add a batch of values (vectorised path, Algorithm 3 spirit).

        Processes the input in blocks: one max-check (and possible
        ladder demotion) per block, then per-level anchor extraction
        with NumPy element-wise IEEE arithmetic, then one carry
        propagation.  The final state is bit-identical to element-wise
        :meth:`add` for any block size — that is the reproducibility
        property, and the test suite asserts it.
        """
        arr = np.asarray(values, dtype=self._np_dtype)
        if arr.ndim != 1:
            arr = arr.ravel()
        if arr.size == 0:
            return
        finite = np.isfinite(arr)
        if not finite.all():
            self.nan_count += int(np.isnan(arr).sum())
            self.posinf_count += int(np.sum(arr == np.inf))
            self.neginf_count += int(np.sum(arr == -np.inf))
            arr = arr[finite]
            if arr.size == 0:
                return
        m = self._m
        for start in range(0, arr.size, block_size):
            block = arr[start : start + block_size]
            bmax = float(np.max(np.abs(block)))
            if bmax == 0.0:
                continue
            self._ensure_capacity(_exponent(bmax))
            r = block
            for level in range(self._L):
                if not self._level_active(level):
                    break
                e = self._level_exponent(level)
                k, r = split_against_anchor(r, self._anchor(level), e - m)
                self.s[level] += int(k.sum())
            self._propagate_all()

    def _propagate(self, level: int) -> None:
        """Carry-bit propagation (Algorithm 2 lines 14-18) for one level.

        Canonicalises ``s`` into ``[0, 2**(m-2))`` — equivalently keeps
        ``S(l)`` in ``[1.5, 1.75) * ufp`` — moving whole 0.25-ufp quanta
        into the carry counter.  Python's floor semantics on ``>>`` make
        this exact for negative drift as well.
        """
        quantum_bits = self._m - 2
        s = self.s[level]
        d = s >> quantum_bits
        if d:
            self.s[level] = s - (d << quantum_bits)
            self.c[level] += d

    def _propagate_all(self) -> None:
        for level in range(self._L):
            self._propagate(level)

    # ------------------------------------------------------------------
    # Merging (MIMD reduction / multi-threaded aggregation)
    # ------------------------------------------------------------------
    def merge(self, other: "SummationState") -> None:
        """Fold another state into this one (order-independent).

        Used when private per-thread aggregates are combined into the
        shared hash table (paper Algorithm 4, lines 4-6) and for the
        MIMD-style reduction of Section III-D.
        """
        if other.params != self.params:
            raise ValueError("cannot merge states with different parameters")
        self.nan_count += other.nan_count
        self.posinf_count += other.posinf_count
        self.neginf_count += other.neginf_count
        if other.e0 is None:
            return
        if self.e0 is None:
            self.e0 = other.e0
        elif other.e0 > self.e0:
            self._demote_to(other.e0)
        shift = (self.e0 - other.e0) // self._w
        for j in range(self._L):
            target = j + shift
            if target < self._L:
                self.s[target] += other.s[j]
                self.c[target] += other.c[j]
        self._propagate_all()

    # ------------------------------------------------------------------
    # Finalisation (paper Equation 1)
    # ------------------------------------------------------------------
    def finalize(self):
        """Compute the final result ``Q`` per Equation 1.

        ``Q = sum_l ((S(l) - 1.5*ufp) + 0.25*ufp*C(l))`` evaluated in
        the state dtype, starting from the last (finest) level to avoid
        cancellation, exactly as prescribed.
        """
        dt = self._np_dtype.type
        if self.nan_count or (self.posinf_count and self.neginf_count):
            return dt(math.nan)
        if self.posinf_count:
            return dt(math.inf)
        if self.neginf_count:
            return dt(-math.inf)
        if self.e0 is None:
            return dt(0.0)
        m = self._m
        acc = dt(0.0)
        for level in reversed(range(self._L)):
            if not self._level_active(level):
                continue
            e = self._level_exponent(level)
            offset = dt(math.ldexp(float(self.s[level]), e - m))
            carries = dt(self.c[level]) * dt(math.ldexp(0.25, e))
            term = offset + carries
            acc = acc + term
        return acc

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def running_sum(self, level: int):
        """The paper's ``S(l)`` float view: ``1.5*2**e + s*ulp`` (exact)."""
        if self.e0 is None:
            raise ValueError("summation not initialised")
        e = self._level_exponent(level)
        dt = self._np_dtype.type
        return dt(math.ldexp(1.5, e)) + dt(
            math.ldexp(float(self.s[level]), e - self._m)
        )

    def carry_count(self, level: int) -> int:
        """The paper's ``C(l)``."""
        return self.c[level]

    def state_tuple(self) -> tuple:
        """Canonical state identity (used to assert bit-reproducibility)."""
        return (
            self.e0,
            tuple(self.s),
            tuple(self.c),
            self.nan_count > 0,
            self.posinf_count > 0,
            self.neginf_count > 0,
        )

    def copy(self) -> "SummationState":
        clone = SummationState(self.params)
        clone.e0 = self.e0
        clone.s = list(self.s)
        clone.c = list(self.c)
        clone.nan_count = self.nan_count
        clone.posinf_count = self.posinf_count
        clone.neginf_count = self.neginf_count
        return clone

    def __eq__(self, other) -> bool:
        if not isinstance(other, SummationState):
            return NotImplemented
        return (
            self.params == other.params
            and self.state_tuple() == other.state_tuple()
        )

    def __hash__(self):  # states are mutable; identity hash like list
        raise TypeError("SummationState is unhashable (mutable)")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.e0 is None:
            return f"SummationState(L={self._L}, empty)"
        return (
            f"SummationState(L={self._L}, e0={self.e0}, "
            f"value~{float(self.finalize())!r})"
        )


def from_grouped(table: GroupedSummation, group: int) -> SummationState:
    """One group of the engine's vectorised ladder as a scalar state."""
    state = SummationState(table.params)
    if table.e0[group] > _EMPTY_E0:
        state.e0 = int(table.e0[group])
        state.s = [int(s[group]) for s in table.s]
        state.c = [int(c[group]) for c in table.c]
    state.nan_count = int(table.nan_cnt[group])
    state.posinf_count = int(table.pos_cnt[group])
    state.neginf_count = int(table.neg_cnt[group])
    return state


def into_grouped(table: GroupedSummation, group: int,
                 state: SummationState) -> None:
    """Fold a scalar state into one group of a vectorised ladder (an
    exact merge, like :meth:`SummationState.merge`)."""
    own = from_grouped(table, group)
    own.merge(state)
    if own.e0 is not None:
        table.e0[group] = own.e0
    for level in range(table.params.levels):
        table.s[level][group] = own.s[level]
        table.c[level][group] = own.c[level]
    table.nan_cnt[group] = own.nan_count
    table.pos_cnt[group] = own.posinf_count
    table.neg_cnt[group] = own.neginf_count
