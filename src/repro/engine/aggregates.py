"""The physical aggregate states — one definition of each.

The paper's design point (Section IV) is that the reproducible
accumulator is a *drop-in numeric type*: GROUP BY does not care which
accumulator sits behind ``SUM``.  This module is where that holds.  A
group table (:mod:`repro.engine.vectorized`) owns a list of states and
knows nothing about what is inside them; each state class owns its
whole life cycle::

    update(batch, cache, gids, ladders, ngroups)  consume one morsel
    merge(other, mapping, ngroups)   fold a partial in; mapping[g] is the
                                     target group of other's group g
    finalize(ngroups)            per-group results, table gid order
    approx_bytes()               resident size, for the memory budget
    dump() / load(data)          the spill payload tree

``cache`` is the morsel's :class:`~repro.engine.expr.ExprCache` and
``ladders`` the queue the ladder sums fill so the table can feed them
with one call.  Every state updates in place per group by scatter
(``np.bincount``, ``np.add.at``, ``np.minimum.at`` / ``np.maximum.at``);
none sorts the morsel.

``SUM`` picks one of two accumulators from its input type and the
session mode on the first morsel: :class:`PlainSum` (exact int64 for
INT / BOOL / bare DECIMAL columns; IEEE floats in ``ieee`` mode) and
:class:`LadderSum` (the reproducible rsum ladder of ``repro`` mode and
``RSUM``).  For the repro accumulator update and merge are *exact*,
which is what makes a split or spilled GROUP BY — and an
insert-only view refresh — bit-reproducible.  No state subtracts: a
view refresh whose delta deletes a row rebuilds the view
(:mod:`repro.engine.matview`).

AVG, VARIANCE and STDDEV are not states: the table finalizes them from
a shared :class:`SumState` / :class:`Moment2State` and the common
:class:`CountState`.
"""

from __future__ import annotations

import numpy as np

from ..aggregation.grouped import (
    GroupedSummation,
    LadderCounters,
    add_blocked_multi,
)
from ..core.params import RsumParams
from ..core.stats import (
    MOMENT2_PARAMS,
    exact_float_sums,
    second_moment,
    square_halves,
)
from ..errors import SpillFormatError
from ..fp.formats import BINARY32, BINARY64
from ..storage.spill import dump_grouped_summation, load_grouped_summation
from .expr import ExprError
from .operators import canonical_float_bits, distinct_codes, factorize_object
from .sql import ast
from .types import DecimalSqlType

__all__ = [
    "CountState",
    "DistinctState",
    "LadderSum",
    "MinMaxState",
    "Moment2State",
    "PlainSum",
    "SumState",
    "sum_value_kind",
    "update_ladders",
]


def _grown(arr: np.ndarray, n: int) -> np.ndarray:
    """Zero-extend a per-group array to ``n`` groups."""
    if len(arr) >= n:
        return arr
    out = np.zeros(n, dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


#: Payload tags no state writes any more -> the tag that replaced them;
#: a payload carrying one fails typed, naming its successor.
_RETIRED_TAGS = {"moment2": "moment2_exact"}


def _expect_tag(data, tag: str) -> None:
    retired = data.get("tag") if isinstance(data, dict) else None
    if retired in _RETIRED_TAGS:
        raise SpillFormatError(
            f"retired state payload tag {retired!r}: its successor is "
            f"{_RETIRED_TAGS[retired]!r}"
        )
    if not isinstance(data, dict) or data.get("tag") != tag:
        raise SpillFormatError(
            f"state payload tag mismatch: wanted {tag!r}, "
            f"got {data.get('tag') if isinstance(data, dict) else data!r}"
        )


class CountState:
    """COUNT(*) / COUNT(expr): rows per group (also AVG's and the
    VARIANCE family's shared denominator)."""

    tag = "count"

    def __init__(self):
        self.counts = np.zeros(0, dtype=np.int64)

    def update(self, batch, cache, gids, ladders, ngroups: int) -> None:
        self.counts = _grown(self.counts, ngroups)
        if gids.size:
            self.counts += np.bincount(gids, minlength=ngroups)

    def merge(self, other: "CountState", mapping, ngroups: int) -> None:
        self.counts = _grown(self.counts, ngroups)
        np.add.at(self.counts, mapping, _grown(other.counts, len(mapping)))

    def finalize(self, ngroups: int) -> np.ndarray:
        return _grown(self.counts, ngroups)

    def approx_bytes(self) -> int:
        return self.counts.nbytes

    def dump(self) -> dict:
        return {"tag": self.tag, "counts": self.counts}

    def load(self, data: dict) -> None:
        _expect_tag(data, self.tag)
        self.counts = np.array(data["counts"], dtype=np.int64)


# ---------------------------------------------------------------------------
# SUM: two accumulators behind one state
# ---------------------------------------------------------------------------


class PlainSum:
    """Accumulator-array sums: exact for int64 (INT/BOOL columns and
    unscaled DECIMAL storage, with the scale applied at finalize); for
    float dtypes this is the conventional IEEE mode — merge order is
    deterministic but the result depends on how the input was split
    (non-reproducible)."""

    kind = "plain"

    def __init__(self, dtype, scale: int | None = None):
        self.scale = scale
        self.sums = np.zeros(0, dtype=dtype)

    def empty_like(self):
        return PlainSum(self.sums.dtype, self.scale)

    def approx_bytes(self) -> int:
        return self.sums.nbytes

    def add(self, values, gids, ladders, ngroups: int) -> None:
        """Unbuffered accumulation in physical row order, so the
        order-*sensitive* IEEE mode means the same thing under every
        morsel split the reference table is held against."""
        self.sums = _grown(self.sums, ngroups)
        if gids.size:
            # +inf meeting -inf in one IEEE group is NaN: the right
            # answer, not worth a RuntimeWarning.
            with np.errstate(invalid="ignore"):
                np.add.at(self.sums, gids, values)

    def merge(self, other: "PlainSum", mapping, ngroups: int) -> None:
        self.sums = _grown(self.sums, ngroups)
        with np.errstate(invalid="ignore"):  # +inf + -inf, as in add()
            np.add.at(self.sums, mapping, _grown(other.sums, len(mapping)))

    def finalize(self, ngroups: int) -> np.ndarray:
        sums = _grown(self.sums, ngroups)
        if self.scale is not None:
            return sums.astype(np.float64) / 10.0**self.scale
        return sums

    def dump(self) -> dict:
        return {
            "kind": self.kind,
            "dtype": self.sums.dtype.str,
            "scale": self.scale,
            "sums": self.sums,
        }

    @classmethod
    def load(cls, data: dict) -> "PlainSum":
        acc = cls(np.dtype(data["dtype"]), data["scale"])
        acc.sums = np.array(data["sums"])
        return acc


class LadderSum:
    """Reproducible sums: one rsum ladder per group, exact merge."""

    kind = "repro"

    def __init__(self, dtype, levels: int):
        self.dtype = np.dtype(dtype)
        self.levels = levels
        fmt = BINARY32 if self.dtype == np.float32 else BINARY64
        self.params = RsumParams(fmt, levels)
        self.grouped = GroupedSummation(self.params, 0)

    def empty_like(self):
        return LadderSum(self.dtype, self.levels)

    def approx_bytes(self) -> int:
        return self.grouped.nbytes()

    def _grow(self, ngroups: int) -> None:
        if self.grouped.ngroups < ngroups:
            self.grouped.resize(ngroups)

    def add(self, values, gids, ladders, ngroups: int) -> None:
        # Queued, not fed: the table makes one update_ladders call per
        # parameter set when every state has seen the morsel.
        accs, rows = ladders.setdefault(self.params, ([], []))
        accs.append(self)
        rows.append(values)

    def merge(self, other: "LadderSum", mapping, ngroups: int) -> None:
        self._grow(ngroups)
        other._grow(len(mapping))
        self.grouped.merge(other.grouped, np.asarray(mapping, dtype=np.int64))

    def finalize(self, ngroups: int) -> np.ndarray:
        self._grow(ngroups)
        return self.grouped.finalize()

    def dump(self) -> dict:
        return {
            "kind": self.kind,
            "dtype": self.dtype.str,
            "levels": int(self.levels),
            "grouped": dump_grouped_summation(self.grouped),
        }

    @classmethod
    def load(cls, data: dict) -> "LadderSum":
        acc = cls(np.dtype(data["dtype"]), int(data["levels"]))
        acc.grouped = load_grouped_summation(data["grouped"])
        return acc


def update_ladders(accs, rows, gids: np.ndarray, counters: LadderCounters,
                   ngroups: int) -> None:
    """Feed one morsel into ``k`` same-parameter :class:`LadderSum`
    accumulators (``rows[i]`` goes to ``accs[i]``) with one call into
    :func:`~repro.aggregation.grouped.add_blocked_multi` — exact, so
    neither its blocking nor which of its two updates takes a row can
    change the bits; ``counters`` is the group table's account of which
    update took the rows."""
    groupeds = []
    for acc in accs:
        acc._grow(ngroups)
        groupeds.append(acc.grouped)
    add_blocked_multi(groupeds, gids, rows, counters)


_ACCUMULATORS = {cls.kind: cls for cls in (PlainSum, LadderSum)}


def _float_accumulator(dtype, mode: str, levels: int):
    if mode == "ieee":
        return PlainSum(dtype)
    if mode == "repro":
        return LadderSum(dtype, levels)
    raise ValueError(f"unknown sum mode {mode!r}")


def _dump_accumulator(acc) -> dict:
    return {"kind": "none"} if acc is None else acc.dump()


def _load_accumulator(data: dict):
    kind = data.get("kind")
    if kind == "none":
        return None
    if kind not in _ACCUMULATORS:
        raise SpillFormatError(f"unknown sum impl kind {kind!r}")
    return _ACCUMULATORS[kind].load(data)


def sum_value_kind(arg: ast.Expr, types: dict, values_of):
    """``(kind, decimal scale)`` of SUM's input.

    ``"decimal"``: a bare DECIMAL column, summed exactly over its raw
    unscaled int64 storage (the argument is never evaluated);
    ``"int"`` / ``"float"`` by the dtype of ``values_of(arg)``, which
    evaluates the argument over the morsel.
    """
    if isinstance(arg, ast.ColumnRef):
        sql_type = types.get(arg.name.lower())
        if isinstance(sql_type, DecimalSqlType):
            return "decimal", sql_type.scale
    kind = np.asarray(values_of(arg)).dtype.kind
    return ("int" if kind in "iub" else "float"), None


class SumState:
    """SUM / RSUM over one expression (and AVG's numerator); the
    accumulator is chosen from the input on the first morsel."""

    tag = "sum"

    def __init__(self, arg: ast.Expr, mode: str, levels: int):
        self.arg = arg
        self.mode = mode
        self.levels = levels
        self.acc = None

    def new_accumulator(self, kind: str, scale, dtype):
        if kind in ("decimal", "int"):
            return PlainSum(np.int64, scale)
        return _float_accumulator(dtype, self.mode, self.levels)

    def _input(self, batch, cache):
        kind, scale = sum_value_kind(
            self.arg, batch.types, lambda arg: cache.values(arg, batch.nrows)
        )
        if kind == "decimal":
            values = batch.columns[self.arg.name.lower()]
        else:
            values = cache.values(self.arg, batch.nrows)
        if self.acc is None:
            self.acc = self.new_accumulator(kind, scale, values.dtype)
        return values

    def update(self, batch, cache, gids, ladders, ngroups: int) -> None:
        values = self._input(batch, cache)
        self.acc.add(values, gids, ladders, ngroups)

    def merge(self, other: "SumState", mapping, ngroups: int) -> None:
        if other.acc is None:
            return
        if self.acc is None:
            self.acc = other.acc.empty_like()
        self.acc.merge(other.acc, mapping, ngroups)

    def finalize(self, ngroups: int) -> np.ndarray:
        if self.acc is None:
            return np.zeros(ngroups, dtype=np.float64)
        return self.acc.finalize(ngroups)

    def approx_bytes(self) -> int:
        return 0 if self.acc is None else self.acc.approx_bytes()

    def dump(self) -> dict:
        return {"tag": self.tag, "impl": _dump_accumulator(self.acc)}

    def load(self, data: dict) -> None:
        _expect_tag(data, self.tag)
        self.acc = _load_accumulator(data["impl"])


class Moment2State:
    """The second moment behind the VARIANCE / STDDEV family — the
    paper's footnote-2 recipe, made exact.  Three sums per group —
    ``Σx`` and ``Σhi`` / ``Σlo`` of the exact squares ``x·x = hi + lo``
    (:func:`~repro.core.stats.square_halves`) — are ladders of
    :data:`~repro.core.stats.MOMENT2_PARAMS` in ``repro`` mode (4
    levels, whatever the session's ``levels``) and IEEE sums in
    ``ieee`` mode; the squares are element-wise, so they merge and
    spill as exactly as the values do.
    Finalize reads the table's common :class:`CountState` and forms
    ``n·Σx² − (Σx)²`` from the *unrounded* sums in Python integers
    (:func:`~repro.core.stats.second_moment`), once per group; each
    spelling divides it by its own ``n·(n − ddof)`` and rounds once.
    ``repro.reproducible_variance`` runs the same sums and combine
    over one group."""

    #: successor of ``moment2`` (``SUM(x)`` and ``SUM(x*x)`` of the
    #: rounded squares, at the session's ``levels``)
    tag = "moment2_exact"

    def __init__(self, arg: ast.Expr, mode: str, count: CountState):
        self.arg = arg
        self.mode = mode
        self.count = count
        self.sum_x, self.sum_hi, self.sum_lo = (
            _float_accumulator(np.float64, mode, MOMENT2_PARAMS.levels)
            for _ in range(3)
        )

    def _sums(self):
        return self.sum_x, self.sum_hi, self.sum_lo

    def _inputs(self, batch, cache):
        """``(x, hi, lo)`` of one morsel, in :meth:`_sums` order."""
        x = np.asarray(cache.values(self.arg, batch.nrows), dtype=np.float64)
        return (x, *square_halves(x))

    def update(self, batch, cache, gids, ladders, ngroups: int) -> None:
        for acc, values in zip(self._sums(), self._inputs(batch, cache)):
            acc.add(values, gids, ladders, ngroups)

    def merge(self, other: "Moment2State", mapping, ngroups: int) -> None:
        for acc, theirs in zip(self._sums(), other._sums()):
            acc.merge(theirs, mapping, ngroups)

    def finalize(self, ngroups: int):
        """:func:`~repro.core.stats.second_moment` per group, with the
        counts it was formed over: ``(moment, counts)``."""
        exact = []
        for acc in self._sums():
            if isinstance(acc, LadderSum):
                acc._grow(ngroups)
                exact.append(acc.grouped.exact())
            else:
                exact.append(exact_float_sums(acc.finalize(ngroups)))
        counts = self.count.finalize(ngroups)
        return second_moment(counts, *exact), counts

    def approx_bytes(self) -> int:
        return sum(acc.approx_bytes() for acc in self._sums())

    def dump(self) -> dict:
        return {
            "tag": self.tag,
            "sum_x": self.sum_x.dump(),
            "sum_hi": self.sum_hi.dump(),
            "sum_lo": self.sum_lo.dump(),
        }

    def load(self, data: dict) -> None:
        _expect_tag(data, self.tag)
        self.sum_x = _load_accumulator(data["sum_x"])
        self.sum_hi = _load_accumulator(data["sum_hi"])
        self.sum_lo = _load_accumulator(data["sum_lo"])


# ---------------------------------------------------------------------------
# COUNT(DISTINCT), MIN / MAX
# ---------------------------------------------------------------------------


def _canonical_distinct_codes(values: np.ndarray):
    """Dictionary-encode one morsel's values for DISTINCT counting.

    Returns ``(codes, members)``: ``codes[i]`` indexes ``members``, a
    list of hashable canonical representatives — canonical float bit
    patterns (:func:`canonical_float_bits`), plain Python values
    otherwise.
    """
    if values.dtype.kind == "f":
        bits = canonical_float_bits(values)
        uniques, codes = np.unique(bits, return_inverse=True)
        return codes.astype(np.int64, copy=False), uniques.tolist()
    if values.dtype == object:
        codes, uniques = factorize_object(values)
        return codes, uniques.tolist()
    uniques, codes = np.unique(values, return_inverse=True)
    return codes.astype(np.int64, copy=False), uniques.tolist()


class DistinctState:
    """COUNT(DISTINCT expr): one set of canonical values per group.

    The partial state is a plain set per group, so update and merge are
    *exact* for any morsel split, worker count, or join build side —
    the same horizontal-merge property the repro SUM states have, which
    is what keeps COUNT(DISTINCT) in the bit-reproducible family.  Each
    morsel is dictionary-encoded once and the (gid, code) pairs
    deduplicated vectorized before the Python sets are touched.
    """

    tag = "distinct"

    def __init__(self, arg: ast.Expr):
        self.arg = arg
        #: one set per group
        self.groups: list[set] = []
        #: running total of members, maintained incrementally so
        #: :meth:`approx_bytes` is O(1) (budget accounting runs per
        #: morsel)
        self.member_count = 0

    def _grow(self, ngroups: int) -> None:
        while len(self.groups) < ngroups:
            self.groups.append(set())

    def update(self, batch, cache, gids, ladders, ngroups: int) -> None:
        self._grow(ngroups)
        if not gids.size:
            return
        codes, members = _canonical_distinct_codes(
            cache.values(self.arg, batch.nrows)
        )
        # row i holds member members[code % base] in group code // base
        base = max(len(members), 1)
        pairs = distinct_codes(gids.astype(np.int64) * base + codes,
                               ngroups * base)
        # sorted, so each touched group's members are one run
        touched, member_codes = np.divmod(pairs, base)
        cuts = np.flatnonzero(touched[1:] != touched[:-1]) + 1
        bounds = [0, *cuts.tolist(), len(pairs)]
        member_codes = member_codes.tolist()
        for gid, lo, hi in zip(touched[bounds[:-1]].tolist(), bounds,
                               bounds[1:]):
            group = self.groups[gid]
            before = len(group)
            group.update(map(members.__getitem__, member_codes[lo:hi]))
            self.member_count += len(group) - before

    def merge(self, other: "DistinctState", mapping, ngroups: int) -> None:
        self._grow(ngroups)
        for gid, theirs in enumerate(other.groups):
            if not theirs:
                continue
            target = self.groups[mapping[gid]]
            before = len(target)
            target |= theirs
            self.member_count += len(target) - before

    def finalize(self, ngroups: int) -> np.ndarray:
        self._grow(ngroups)
        return np.array(
            [len(group) for group in self.groups[:ngroups]], dtype=np.int64
        )

    def approx_bytes(self) -> int:
        # ~one set header per group plus ~64 bytes per member (slot +
        # boxed value) — a deliberate over-estimate so budgets spill
        # DISTINCT state early rather than late.
        return 64 * len(self.groups) + 64 * self.member_count

    def dump(self) -> dict:
        return {"tag": self.tag, "sets": [set(g) for g in self.groups]}

    def load(self, data: dict) -> None:
        _expect_tag(data, self.tag)
        self.groups = [set(members) for members in data["sets"]]
        self.member_count = sum(len(group) for group in self.groups)


def _fold_extremes(is_min: bool, extremes: np.ndarray, seen: np.ndarray,
                   idx: np.ndarray, values: np.ndarray) -> None:
    """``extremes[idx[i]] = min(extremes[idx[i]], values[i])`` (MAX when
    not ``is_min``) for every ``i`` in arrival order, in place — the
    one update of MIN / MAX, for a morsel (``idx`` its gids) and for a
    merge (``idx`` the mapped groups of the partial's extremes).

    A group not ``seen`` starts at its first-arriving value (the least
    row index, found by ``np.minimum.at`` over the row indices); folding
    that value in once more leaves it as it is.  The first NaN to
    arrive wins, payload and all: ``np.minimum`` keeps a NaN
    accumulator and returns a NaN it meets.  Zeros are ordered as IEEE
    754-2019 ``minimum`` / ``maximum`` order them, ``-0.0 < +0.0``, in
    any arrival order: ``np.minimum`` / ``np.maximum`` may return either
    argument on a tie, so the sign of a zero extreme is set afterwards
    from every zero that met it — a zero MIN is ``-0.0`` when one of
    them was, a zero MAX ``+0.0`` when one was.
    """
    if not seen.all():
        unseen = np.flatnonzero(~seen[idx])
        first = np.full(len(extremes), len(idx), dtype=np.intp)
        np.minimum.at(first, idx[unseen], unseen)
        fresh = np.flatnonzero(first < len(idx))
        extremes[fresh] = values[first[fresh]]
        seen[fresh] = True
    zeros = np.flatnonzero(values == 0) if values.dtype.kind == "f" else []
    if len(zeros):
        groups = idx[zeros]
        before = np.signbit(extremes[groups])
    with np.errstate(invalid="ignore"):  # a NaN meeting a NaN
        (np.minimum if is_min else np.maximum).at(extremes, idx, values)
    if len(zeros):
        # A zero MIN means nothing below zero met it, so a set sign bit
        # marks a -0.0; a zero MAX is -0.0 only when every zero was.
        either = np.logical_or if is_min else np.logical_and
        negative = either(before, np.signbit(values[zeros]))
        tied = extremes[groups] == 0
        groups, negative = groups[tied], negative[tied]
        extremes[groups] = 0.0 if is_min else -0.0
        extremes[groups[negative if is_min else ~negative]] = \
            -0.0 if is_min else 0.0


class MinMaxState:
    """MIN / MAX: one extreme per group, folded in by scatter
    (:func:`_fold_extremes`)."""

    tag = "minmax"

    def __init__(self, arg: ast.Expr, is_min: bool):
        self.arg = arg
        self.is_min = is_min
        self.name = "MIN" if is_min else "MAX"
        self.extremes: np.ndarray | None = None
        self.seen = np.zeros(0, dtype=bool)

    def _grow(self, ngroups: int, dtype) -> None:
        if self.extremes is None:
            self.extremes = np.empty(0, dtype=dtype)
        if len(self.extremes) < ngroups:
            pad = np.empty(ngroups - len(self.extremes),
                           dtype=self.extremes.dtype)
            self.extremes = np.concatenate([self.extremes, pad])
            grown_seen = np.zeros(ngroups, dtype=bool)
            grown_seen[: len(self.seen)] = self.seen
            self.seen = grown_seen

    def add(self, values, gids, ladders, ngroups: int) -> None:
        self._grow(ngroups, values.dtype)
        if gids.size:
            _fold_extremes(self.is_min, self.extremes, self.seen, gids,
                           values)

    def update(self, batch, cache, gids, ladders, ngroups: int) -> None:
        self.add(cache.values(self.arg, batch.nrows), gids, ladders, ngroups)

    def merge(self, other: "MinMaxState", mapping, ngroups: int) -> None:
        if other.extremes is None:
            return
        self._grow(ngroups, other.extremes.dtype)
        src = np.flatnonzero(other.seen)
        if src.size:
            _fold_extremes(self.is_min, self.extremes, self.seen,
                           np.asarray(mapping)[src], other.extremes[src])

    def finalize(self, ngroups: int) -> np.ndarray:
        if (self.extremes is None or len(self.extremes) < ngroups
                or not self.seen[:ngroups].all()):
            raise ExprError(f"{self.name} over empty input")
        return self.extremes[:ngroups]

    def approx_bytes(self) -> int:
        extremes = 0 if self.extremes is None else self.extremes.nbytes
        return extremes + self.seen.nbytes

    def dump(self) -> dict:
        return {"tag": self.tag, "extremes": self.extremes, "seen": self.seen}

    def load(self, data: dict) -> None:
        _expect_tag(data, self.tag)
        extremes = data["extremes"]
        self.extremes = None if extremes is None else np.array(extremes)
        self.seen = np.array(data["seen"], dtype=bool)
