"""Pluggable per-group accumulator specifications.

Every aggregation algorithm in this package (hash, partition+aggregate,
sort, shared) is generic over *how* a group's values are summed.  The
paper compares exactly these choices:

* ``ConventionalFloatSpec`` — built-in float/double accumulators, one
  IEEE add per input value in arrival order.  Fast, order-dependent,
  non-reproducible (the baseline of every figure).
* ``DecimalSpec`` — DECIMAL(p) fixed-point accumulators (exact integer
  adds; reproducible but inflexible, Figures 7 and 10's comparison).
* ``ReproSpec`` — the ``repro<ScalarT,L>`` type of Section IV: one
  multi-level extraction per input value (bit-reproducible, 4-12x
  slower in the paper's Figure 4).
* ``BufferedReproSpec`` — Section V's summation buffers in front of the
  reproducible type: values are buffered per group and flushed through
  the vectorised summation (bit-identical results, amortised cost).

Each spec offers a vectorised ``accumulate`` (the production path) and
an ``accumulate_elementwise`` reference that processes one pair at a
time exactly like the textbook operator; for the reproducible specs the
two are bit-identical by construction, and the tests assert it.
"""

from __future__ import annotations

import numpy as np

from ..core.buffer import DEFAULT_BUFFER_SIZE, BufferedReproFloat
from ..core.params import RsumParams
from ..core.repro_type import ReproFloat, repro_spec_name
from ..core.rsum import params_from_spec
from ..fp.decimal_fixed import DecimalType
from .grouped import GroupedSummation, add_blocked_multi

__all__ = [
    "AggregatorSpec",
    "ConventionalFloatSpec",
    "DecimalSpec",
    "ReproSpec",
    "BufferedReproSpec",
    "spec_from_options",
]


class AggregatorSpec:
    """Interface shared by all accumulator specifications."""

    #: human-readable name used in benchmark tables
    name: str
    #: bytes per intermediate aggregate (cache-footprint models)
    itemsize: int
    #: True if results are bit-identical for any input order
    reproducible: bool

    def make_table(self, ngroups: int):
        raise NotImplementedError

    def accumulate(self, table, group_ids: np.ndarray, values: np.ndarray):
        raise NotImplementedError

    def accumulate_elementwise(self, table, group_ids, values):
        raise NotImplementedError

    def merge(self, table, other_table, mapping: np.ndarray):
        """Fold ``other_table`` into ``table``; ``mapping`` maps gids."""
        raise NotImplementedError

    def finalize(self, table) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


class ConventionalFloatSpec(AggregatorSpec):
    """Order-dependent IEEE accumulation (the non-reproducible baseline)."""

    reproducible = False

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.name = {"float32": "float", "float64": "double"}.get(
            self.dtype.name, self.dtype.name
        )
        self.itemsize = self.dtype.itemsize

    def make_table(self, ngroups: int) -> np.ndarray:
        return np.zeros(ngroups, dtype=self.dtype)

    def accumulate(self, table, group_ids, values):
        # ufunc.at is unbuffered: repeated indices accumulate one
        # element at a time in array order, matching the scalar loop.
        np.add.at(table, group_ids, values.astype(self.dtype, copy=False))

    def accumulate_elementwise(self, table, group_ids, values):
        dt = self.dtype.type
        for gid, val in zip(group_ids, values):
            table[gid] = dt(table[gid] + dt(val))

    def merge(self, table, other_table, mapping):
        np.add.at(table, mapping, other_table)

    def finalize(self, table):
        return table.copy()


class DecimalSpec(AggregatorSpec):
    """Exact fixed-point accumulation (reproducible, fixed scale)."""

    reproducible = True

    def __init__(self, decimal_type: DecimalType):
        self.decimal_type = decimal_type
        self.name = decimal_type.name
        self.itemsize = decimal_type.itemsize

    def make_table(self, ngroups: int) -> np.ndarray:
        # Unscaled integers; object dtype for the 128-bit lane keeps the
        # arithmetic exact (our stand-in for __int128).
        if self.decimal_type.storage_bits <= 64:
            return np.zeros(ngroups, dtype=np.int64)
        return np.array([0] * ngroups, dtype=object)

    def _to_unscaled(self, values) -> np.ndarray:
        if values.dtype.kind in "iu":
            return values.astype(np.int64, copy=False)
        return np.asarray(
            [self.decimal_type.unscaled_from_real(float(v)) for v in values],
            dtype=np.int64,
        )

    def accumulate(self, table, group_ids, values):
        unscaled = self._to_unscaled(np.asarray(values))
        if table.dtype == object:
            for gid, v in zip(group_ids, unscaled):
                table[gid] += int(v)
        else:
            np.add.at(table, group_ids, unscaled)

    def accumulate_elementwise(self, table, group_ids, values):
        unscaled = self._to_unscaled(np.asarray(values))
        for gid, v in zip(group_ids, unscaled):
            table[gid] += int(v)

    def merge(self, table, other_table, mapping):
        if table.dtype == object:
            for tgt, v in zip(mapping, other_table):
                table[tgt] += int(v)
        else:
            np.add.at(table, mapping, other_table)

    def finalize(self, table):
        scale = 10.0**-self.decimal_type.scale
        for total in table:
            self.decimal_type.check(int(total))
        return np.asarray([float(int(v)) * scale for v in table])

    def finalize_unscaled(self, table) -> list:
        """Exact unscaled totals (overflow-checked)."""
        return [self.decimal_type.check(int(v)) for v in table]


class ReproSpec(AggregatorSpec):
    """``repro<ScalarT,L>`` accumulators (Section IV)."""

    reproducible = True

    def __init__(self, dtype="double", levels: int = 2, w=None,
                 params: RsumParams | None = None):
        self.params = params if params is not None else params_from_spec(dtype, levels, w)
        self.name = repro_spec_name(self.params)
        # S[L] + C[L] at 8 bytes each: the paper's Figure 5 layout
        # without the buffer.
        self.itemsize = 16 * self.params.levels

    def make_table(self, ngroups: int) -> GroupedSummation:
        return GroupedSummation(self.params, ngroups)

    def accumulate(self, table, group_ids, values):
        # The blocked kernel (rows on the prevailing ladder scatter, the
        # stragglers take ``add_pairs`` itself) is bit-identical to
        # ``table.add_pairs`` — the repro states being exact under any
        # ordering and chunking — and far faster.
        add_blocked_multi([table], group_ids, [values])

    def accumulate_elementwise(self, table, group_ids, values):
        # One ReproFloat += per pair, exactly like the unmodified
        # HASHAGGREGATION of Figure 4; folded back into the grouped
        # state afterwards (bit-exact merge).
        scratch: dict[int, ReproFloat] = {}
        for gid, val in zip(group_ids, values):
            acc = scratch.get(int(gid))
            if acc is None:
                acc = ReproFloat(params=self.params)
                scratch[int(gid)] = acc
            acc += val
        for gid, acc in scratch.items():
            own = table.to_state(gid)
            own.merge(acc.state)
            table.e0[gid] = own.e0 if own.e0 is not None else table.e0[gid]
            for level in range(self.params.levels):
                table.s[level][gid] = own.s[level]
                table.c[level][gid] = own.c[level]
            table.nan_cnt[gid] = own.nan_count
            table.pos_cnt[gid] = own.posinf_count
            table.neg_cnt[gid] = own.neginf_count

    def merge(self, table, other_table, mapping):
        table.merge(other_table, mapping)

    def finalize(self, table):
        return table.finalize()


class BufferedReproSpec(ReproSpec):
    """Summation buffers in front of ``repro<ScalarT,L>`` (Section V).

    The vectorised path produces bit-identical results to the plain
    reproducible spec (flush points cannot change RSUM's bits), so it
    shares the grouped kernel; what differs is the *element-wise*
    reference (real per-group buffers, as a C++ engine would run) and
    the cache-footprint accounting used by Equation 4 and the cost
    model.
    """

    def __init__(self, dtype="double", levels: int = 2,
                 buffer_size: int = DEFAULT_BUFFER_SIZE, w=None,
                 params: RsumParams | None = None):
        super().__init__(dtype, levels, w, params)
        if buffer_size < 1:
            raise ValueError("buffer size must be at least 1")
        self.buffer_size = buffer_size
        self.name = f"{repro_spec_name(self.params)}+buf{buffer_size}"
        scalar_size = self.params.fmt.itemsize
        # Figure 5 layout: S[L] | C[L] | next | buffer[bsz].
        self.itemsize = 16 * self.params.levels + 8 + scalar_size * buffer_size

    def accumulate_elementwise(self, table, group_ids, values):
        buffers: dict[int, BufferedReproFloat] = {}
        for gid, val in zip(group_ids, values):
            buf = buffers.get(int(gid))
            if buf is None:
                buf = BufferedReproFloat(
                    params=self.params, buffer_size=self.buffer_size
                )
                buffers[int(gid)] = buf
            buf.append(val)
        for gid, buf in buffers.items():
            acc = buf.to_repro()
            own = table.to_state(gid)
            own.merge(acc.state)
            table.e0[gid] = own.e0 if own.e0 is not None else table.e0[gid]
            for level in range(self.params.levels):
                table.s[level][gid] = own.s[level]
                table.c[level][gid] = own.c[level]
            table.nan_cnt[gid] = own.nan_count
            table.pos_cnt[gid] = own.posinf_count
            table.neg_cnt[gid] = own.neginf_count


def spec_from_options(
    dtype="double",
    reproducible: bool = True,
    levels: int = 2,
    buffered: bool = True,
    buffer_size: int | None = None,
    decimal: DecimalType | None = None,
    w=None,
) -> AggregatorSpec:
    """Resolve user-facing options into an accumulator spec."""
    if decimal is not None:
        return DecimalSpec(decimal)
    if not reproducible:
        np_dtype = np.float32 if str(dtype) in ("float", "binary32", "float32") else np.float64
        return ConventionalFloatSpec(np_dtype)
    if buffered:
        return BufferedReproSpec(
            dtype, levels, buffer_size or DEFAULT_BUFFER_SIZE, w
        )
    return ReproSpec(dtype, levels, w)
