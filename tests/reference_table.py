"""The differential oracle: a row-order reference group table.

:class:`PartialGroupTable` builds exactly the states the query table
builds (same plan, same merge, same finalize, same spill payload — all
inherited) and overrides only *morsel consumption*, replacing every
batched technique with the plainest thing that is obviously right:

* keys: every morsel re-factorizes every key column with ``np.unique``
  over the evaluated arrays — no storage dictionaries, no persistent
  code table;
* arguments: every aggregate re-evaluates its expression with the
  un-cached :func:`~repro.engine.expr.evaluate`;
* ladders: :meth:`GroupedSummation.add_pairs` in row order instead of
  the blocked scatter; IEEE / int / sorted sums already are
  ``np.add.at`` / a pair buffer in row order, so those go through the
  accumulator's own ``add``;
* extremes: a private stable ``argsort`` and one ``reduceat`` per run
  (:func:`reference_extremes`) instead of the engine's scatter, with
  the two rules stated on their own — the sign of a zero MIN / MAX is
  the IEEE 754-2019 one (``-0.0 < +0.0``), not the arrival order's, and
  a group's first-arriving NaN is its extreme, payload and all.

No query can reach it: ``conftest.engine_path("scalar")`` is the only
door.  :func:`grouped_float_sum` is the even older whole-column oracle
the pipeline tests compare against.
"""

import numpy as np

from repro.aggregation.grouped import GroupedSummation
from repro.core.params import RsumParams
from repro.engine.aggregates import (
    LadderSum,
    MinMaxState,
    Moment2State,
    SumState,
)
from repro.engine.expr import evaluate
from repro.engine.operators import factorize_object
from repro.engine.vectorized import VectorizedGroupTable
from repro.fp.formats import BINARY32, BINARY64


def _eval_values(arg, batch) -> np.ndarray:
    values = np.asarray(evaluate(arg, batch.columns, batch.types))
    if values.shape == ():
        values = np.full(batch.nrows, values)
    return values


class _Uncached:
    """``ExprCache`` stand-in that re-evaluates on every request."""

    def __init__(self, batch):
        self.batch = batch

    def values(self, expr, nrows):
        return _eval_values(expr, self.batch)


def _add(acc, values, gids, ngroups) -> None:
    if isinstance(acc, LadderSum):
        acc._grow(ngroups)
        if gids.size:
            acc.grouped.add_pairs(gids, values.astype(acc.params.fmt.dtype))
    else:
        acc.add(values, gids, None, ngroups)


class PartialGroupTable(VectorizedGroupTable):
    #: morsels consumed by any instance (the CI gate's call counter)
    updates = 0

    def update(self, batch) -> None:
        PartialGroupTable.updates += 1
        gids = self._factorize(batch)
        ngroups = self.ngroups
        cache = _Uncached(batch)
        for state in self.states:
            if isinstance(state, SumState):
                values = state._input(batch, cache)
                _add(state.acc, values, gids, ngroups)
            elif isinstance(state, Moment2State):
                # x, and hi / lo of the exact squares
                for acc, values in zip(state._sums(),
                                       state._inputs(batch, cache)):
                    _add(acc, values, gids, ngroups)
            elif isinstance(state, MinMaxState):
                values = _eval_values(state.arg, batch)
                state._grow(ngroups, values.dtype)
                reference_extremes(state, gids, values)
            else:  # counts and DISTINCT sets have one (row-order) update
                state.update(batch, cache, gids, None, ngroups)

    def _factorize(self, batch) -> np.ndarray:
        """Composite morsel keys -> table gids, registering new keys."""
        if not self.group_exprs:
            return np.zeros(batch.nrows, dtype=np.int64)
        inverses = []
        uniques = []
        for expr in self.group_exprs:
            arr = _eval_values(expr, batch)
            try:
                uniq, inverse = np.unique(arr, return_inverse=True)
            except TypeError:
                # Object keys with None entries (a LEFT JOIN's
                # null-introduced column) cannot sort; dictionary-
                # encode instead.
                inverse, uniq = factorize_object(arr)
            inverses.append(inverse.astype(np.int64))
            uniques.append(uniq)
        if self._key_dtypes is None:
            self._key_dtypes = [uniq.dtype for uniq in uniques]
        combined = inverses[0]
        for inv, uniq in zip(inverses[1:], uniques[1:]):
            combined = combined * len(uniq) + inv
        dense_uniq, morsel_gids = np.unique(combined, return_inverse=True)
        lut = self._register_columns(self._decode_columns(
            dense_uniq, uniques, [len(uniq) for uniq in uniques]
        ))
        return lut[morsel_gids.astype(np.int64)]


def _run_extremes(is_min: bool, values: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """MIN (``is_min``) or MAX of each run of ``values`` that begins at
    ``starts``: ``reduceat``, then a zero extreme is ``-0.0`` (MIN) when
    the run holds a ``-0.0`` and ``+0.0`` (MAX) when it holds a
    ``+0.0``, and a run holding a NaN yields its first NaN (``reduceat``
    may return the canonical NaN instead)."""
    with np.errstate(invalid="ignore"):
        out = (np.minimum if is_min else np.maximum).reduceat(values, starts)
    if values.dtype.kind != "f":
        return out
    tied = out == 0
    if tied.any():
        either = np.logical_or if is_min else np.logical_and
        negative = either.reduceat(np.signbit(values), starts)
        out[tied] = np.where(negative[tied], -0.0, 0.0)
    nans = np.flatnonzero(np.isnan(values))
    if nans.size:
        run = np.searchsorted(starts, nans, side="right") - 1
        first = np.concatenate(([True], run[1:] != run[:-1]))
        out[run[first]] = values[nans[first]]
    return out


def reference_extremes(state: MinMaxState, idx: np.ndarray,
                       values: np.ndarray) -> None:
    """Fold ``values[i]`` into group ``idx[i]`` of a grown
    :class:`MinMaxState`: a stable sort by group, one extreme per run
    (:func:`_run_extremes`), and each run's extreme against the group's
    held one as a run of two."""
    if not idx.size:
        return
    order = np.argsort(idx, kind="stable")
    sorted_idx = idx[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], sorted_idx[1:] != sorted_idx[:-1])))
    groups = sorted_idx[starts]
    runs = _run_extremes(state.is_min, values[order], starts)
    known = state.seen[groups]
    state.extremes[groups[~known]] = runs[~known]
    state.seen[groups[~known]] = True
    held = groups[known]
    if held.size:
        pairs = np.stack([state.extremes[held], runs[known]], axis=1)
        state.extremes[held] = _run_extremes(
            state.is_min, pairs.ravel(), np.arange(0, 2 * held.size, 2))


def grouped_float_sum(values: np.ndarray, gids: np.ndarray, ngroups: int,
                      mode: str, levels: int = 2) -> np.ndarray:
    """The two SUM implementations as one-shot whole-column kernels:
    for the repro mode the partial-state pipeline must reproduce these
    bits exactly, for any (workers, morsel_size) split."""
    if mode == "ieee":
        out = np.zeros(ngroups, dtype=values.dtype)
        np.add.at(out, gids, values)
        return out
    if mode == "repro":
        fmt = BINARY32 if values.dtype == np.float32 else BINARY64
        grouped = GroupedSummation.from_pairs(
            RsumParams(fmt, levels), gids, values.astype(fmt.dtype), ngroups
        )
        return grouped.finalize()
    raise ValueError(f"unknown sum mode {mode!r}")
