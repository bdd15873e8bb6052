"""Parallel-pipeline reproducibility: the paper's invariant at the
engine layer.

For repro mode, ``Database.execute`` must return bit-identical
result arrays for every ``(workers, morsel_size)`` combination —
``workers=1`` is one group table, which must match the pre-refactor
serial whole-column kernels (``grouped_float_sum``) bit-for-bit, and
``workers=N`` splits the morsels over ``N`` partial tables merged
exactly.  IEEE mode is *allowed* (and shown) to drift under the same
knobs.  Each worker count is one database whose morsel size is ``SET``
in place.
"""

import numpy as np
import pytest

from reference_table import grouped_float_sum
from repro.engine import Database, ExecutionContext
from repro.engine.pipeline import DEFAULT_MORSEL_SIZE
from repro.engine.sql import ast
from repro.errors import ConfigError

WORKERS = (1, 2)
MORSEL_SIZES = (1, 7, 64, 4096)
#: (mode, ladder levels): repro at the default depth and one deeper
REPRO_CONFIGS = [
    pytest.param("repro", 2, id="repro"),
    pytest.param("repro", 3, id="repro-levels3"),
]

N_ROWS = 240
N_KEYS = 8


def _dataset(key_pool, labels):
    rng = np.random.default_rng(42)
    keys = np.array(key_pool)[rng.integers(0, len(key_pool), size=N_ROWS)]
    labels = np.array(labels, dtype=object)[
        rng.integers(0, len(labels), size=N_ROWS)
    ]
    # ~40 binades with mixed signs: hard enough that IEEE association
    # visibly matters, well inside the repro ladder range.
    exponents = rng.uniform(-20, 20, size=N_ROWS)
    signs = rng.choice([-1.0, 1.0], size=N_ROWS)
    values = signs * rng.uniform(1.0, 2.0, size=N_ROWS) * np.exp2(exponents)
    return keys, labels, values


@pytest.fixture(scope="module")
def dataset():
    return _dataset(range(N_KEYS), ["x", "y", "z"])


#: DOUBLE keys NaN, -0.0 and 0.0 (one group each for NaN and the zeros)
#: beside VARCHAR NULLs
EDGE_DATASET = _dataset([float("nan"), -0.0, 0.0, 1.5], ["x", None, "y"])


def make_db(dataset, sum_mode, workers=1, morsel_size=DEFAULT_MORSEL_SIZE,
            levels=2):
    keys, labels, values = dataset
    db = Database(sum_mode=sum_mode, workers=workers, morsel_size=morsel_size,
                  levels=levels)
    key_type = "DOUBLE" if keys.dtype.kind == "f" else "INT"
    db.execute(f"CREATE TABLE g (k {key_type}, s VARCHAR(1), v DOUBLE)")
    db.table("g").bulk_load(
        {"k": keys.tolist(), "s": labels.tolist(), "v": values.tolist()}
    )
    return db

QUERY = (
    "SELECT k, s, SUM(v), RSUM(v), AVG(v), COUNT(*), MIN(v), MAX(v), "
    "STDDEV(v) FROM g WHERE v > -1e300 GROUP BY k, s ORDER BY k, s"
)


def result_bits(result):
    """Bit-exact encoding; object columns by value (a merged table's
    strings are equal, not the same objects)."""
    return tuple(
        repr(arr.tolist()).encode() if arr.dtype == object else arr.tobytes()
        for arr in map(np.asarray, result.arrays)
    )


class TestReproModesBitIdentical:
    @pytest.mark.parametrize("mode, levels, worker_counts, edge_keys", [
        *(pytest.param(*config.values, WORKERS, False, id=config.id)
          for config in REPRO_CONFIGS),
        # more partial tables than morsels at every morsel size: most
        # tables stay empty and still merge
        pytest.param("repro", 2, (N_ROWS + 1,), False,
                     id="workers-above-morsels"),
        pytest.param("repro", 2, (3,), True,
                     id="workers3-nan-zero-null-keys"),
    ])
    def test_bits_invariant_under_workers_and_morsel_size(
            self, dataset, mode, levels, worker_counts, edge_keys):
        if edge_keys:
            dataset = EDGE_DATASET
        baseline = result_bits(
            make_db(dataset, mode, levels=levels).execute(QUERY)
        )
        for workers in worker_counts:
            with make_db(dataset, mode, workers, levels=levels) as db:
                for morsel_size in MORSEL_SIZES:
                    db.execute(f"SET morsel_size = {morsel_size}")
                    bits = result_bits(db.execute(QUERY))
                    assert bits == baseline, (
                        f"{mode} (levels={levels}) drifted at "
                        f"workers={workers}, "
                        f"morsel_size={morsel_size}"
                    )
                    stats = db.last_pipeline_stats
                    assert stats.workers == workers
                    if workers > N_ROWS:
                        assert stats.morsel_count < workers

    @pytest.mark.parametrize("mode", ("repro",))
    def test_workers1_matches_pre_refactor_serial_kernel(self, dataset, mode):
        """The one-shot whole-column kernel is the pre-pipeline serial
        path; workers=1 (and any other split) must reproduce its bits."""
        keys, _, values = dataset
        _, gids = np.unique(keys, return_inverse=True)
        expected = grouped_float_sum(values, gids, N_KEYS, mode, levels=2)
        for workers, morsel_size in ((1, DEFAULT_MORSEL_SIZE), (2, 7)):
            with make_db(dataset, mode, workers, morsel_size) as db:
                got = db.execute(
                    "SELECT k, SUM(v) AS total FROM g GROUP BY k ORDER BY k"
                ).column("total")
            assert got.tobytes() == expected.tobytes()

    def test_rsum_reproducible_even_in_ieee_session(self, dataset):
        """RSUM(expr) ignores the session mode: bit-stable under any
        split even when the session runs conventional IEEE sums."""
        keys, _, values = dataset
        _, gids = np.unique(keys, return_inverse=True)
        expected = grouped_float_sum(values, gids, N_KEYS, "repro", levels=3)
        for workers in WORKERS:
            with make_db(dataset, "ieee", workers) as db:
                for morsel_size in (13, 4096):
                    db.execute(f"SET morsel_size = {morsel_size}")
                    got = db.execute(
                        "SELECT k, RSUM(v, 3) AS total FROM g GROUP BY k "
                        "ORDER BY k"
                    ).column("total")
                    assert got.tobytes() == expected.tobytes()

    def test_nan_and_signed_zero_keys_split_invariant(self):
        """NaN and -0.0/0.0 group keys must coalesce identically no
        matter how the input is split (np.unique collapses them within
        a morsel; the key table must do the same across morsels)."""

        def runs(workers, morsel_sizes):
            with Database(sum_mode="repro", workers=workers) as db:
                db.execute("CREATE TABLE t (k DOUBLE, v DOUBLE)")
                db.table("t").bulk_load({
                    "k": [float("nan"), 2.0, float("nan"), float("nan"),
                          -0.0, 0.0],
                    "v": [1.0, 1.0, 1.0, 1.0, 5.0, 7.0],
                })
                for morsel_size in morsel_sizes:
                    db.execute(f"SET morsel_size = {morsel_size}")
                    yield result_bits(db.execute(
                        "SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k"
                    ))

        (baseline,) = runs(1, (DEFAULT_MORSEL_SIZE,))
        for workers in WORKERS:
            for bits in runs(workers, (1, 2, 3)):
                assert bits == baseline

    @pytest.mark.parametrize("order", [
        (0.0, 0.0, -0.0), (0.0, -0.0, 0.0), (-0.0, 0.0, 0.0),
    ])
    def test_signed_zero_extremes_split_invariant(self, order):
        """MIN / MAX order zeros as IEEE 754-2019 ``minimum`` /
        ``maximum`` do (-0.0 < +0.0): over a zero tie MIN is -0.0 and
        MAX +0.0 whatever the arrival order, morsel split or worker
        count (``np.minimum`` alone returns its second argument)."""
        for workers in WORKERS:
            with Database(sum_mode="repro", workers=workers) as db:
                db.execute("CREATE TABLE t (k INT, v DOUBLE)")
                db.table("t").bulk_load({"k": [1, 1, 1], "v": list(order)})
                for morsel_size in (1, 65536):
                    db.execute(f"SET morsel_size = {morsel_size}")
                    result = db.execute(
                        "SELECT k, MIN(v) AS lo, MAX(v) AS hi FROM t "
                        "GROUP BY k"
                    )
                    where = f"workers={workers}, morsel_size={morsel_size}"
                    assert np.signbit(result.column("lo")).tolist() == [
                        True
                    ], where
                    assert np.signbit(result.column("hi")).tolist() == [
                        False
                    ], where

    def test_projection_preserves_row_order(self, dataset):
        """Filter + project must gather morsels in scan order at any
        worker count: a projection has no partial tables to split."""
        serial = make_db(dataset, "ieee").execute(
            "SELECT v FROM g WHERE v > 0"
        )
        with make_db(dataset, "ieee", workers=2, morsel_size=11) as db:
            split = db.execute("SELECT v FROM g WHERE v > 0")
            assert db.last_pipeline_stats.workers == 1
            assert db.last_pipeline_stats.morsel_count == -(-N_ROWS // 11)
        assert split.column("v").tobytes() == serial.column("v").tobytes()


class TestIeeeModeCanDiffer:
    def test_ieee_sum_differs_across_splits(self):
        """Companion demonstration: conventional IEEE SUM changes its
        bits when the same rows are aggregated under a different
        parallel split — the engine-layer version of the paper's
        Algorithm 1 experiment.

        Serial order sums (1 + 1e16) + 1 - 1e16 = 0.0 (each +1 is
        absorbed); two partial tables, fed every other one-row morsel,
        sum the small and large values separately, (1 + 1) + (1e16 -
        1e16) = 2.0.  At the default morsel size the four rows are one
        morsel, and the split changes nothing.
        """
        rows = [1.0, 1e16, 1.0, -1e16]

        def ieee_sum(workers, morsel_size):
            with Database(sum_mode="ieee", workers=workers,
                          morsel_size=morsel_size) as db:
                db.execute("CREATE TABLE t (v DOUBLE)")
                db.table("t").bulk_load({"v": rows})
                return db.execute("SELECT SUM(v) FROM t").scalar()

        serial = ieee_sum(1, DEFAULT_MORSEL_SIZE)
        split = ieee_sum(2, 1)
        assert serial == 0.0 == ieee_sum(2, DEFAULT_MORSEL_SIZE)
        assert split == 2.0
        assert serial != split

    def test_repro_mode_closes_the_same_gap(self):
        rows = [1.0, 1e16, 1.0, -1e16]

        def repro_sum(workers, morsel_size):
            with Database(sum_mode="repro", workers=workers,
                          morsel_size=morsel_size) as db:
                db.execute("CREATE TABLE t (v DOUBLE)")
                db.table("t").bulk_load({"v": rows})
                return db.execute("SELECT SUM(v) FROM t").scalar()

        assert repro_sum(1, DEFAULT_MORSEL_SIZE) == repro_sum(2, 1)


#: knob -> ([(accepted value, what the context then holds)], rejected
#: values) — one set, whichever entry point the value comes through
#: (every value here is spellable in SQL: ``SET`` has no negative
#: numbers)
KNOB_VALUES = {
    "workers": ([(1, 1), (3, 3), (2.0, 2), ("2", 2)],
                (0, 2.5, "x", None)),
    "morsel_size": ([(1, 1), (1000, 1000), (1000.0, 1000)],
                    (0, 1000.7, "x", None)),
    "memory_budget": ([(None, None), (0, None), (4096, 4096),
                       ("unbounded", None)],
                      (1.5, "lots")),
}


def _context_through(entry, knob, value):
    """The execution context after ``knob = value`` came in through
    ``entry``: the constructor, ``SET`` or ``db.session(...)``."""
    if entry == "constructor":
        return Database(**{knob: value}).execution_context
    db = Database()
    if entry == "session":
        return db.session(**{knob: value}).execution_context
    literal = "NULL" if value is None else ast.Literal(value).sql()
    db.execute(f"SET {knob} = {literal}")
    return db.execution_context


class TestExecutionContext:
    @pytest.mark.parametrize("entry", ("constructor", "set", "session"))
    def test_every_entry_point_takes_the_same_values(self, entry):
        """One validator per knob behind every entry point: at the
        parent the constructor ran ``workers=2.5`` as 2 and
        ``morsel_size=1000.7`` as 1000 and raised a bare
        ``ValueError`` for ``workers='x'``."""
        for knob, (accepted, rejected) in KNOB_VALUES.items():
            attribute = "memory_budget_bytes" if knob == "memory_budget" \
                else knob
            for value, held in accepted:
                context = _context_through(entry, knob, value)
                assert getattr(context, attribute) == held, (knob, value)
            for value in rejected:
                with pytest.raises(ConfigError, match=knob.split("_")[0]):
                    _context_through(entry, knob, value)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionContext(workers=0)
        with pytest.raises(ValueError):
            ExecutionContext(morsel_size=0)

    def test_pipeline_stats_exposed(self, dataset):
        for workers in WORKERS:
            with make_db(dataset, "repro", workers, morsel_size=16) as db:
                db.execute(QUERY)
                stats = db.last_pipeline_stats
            assert stats is not None
            assert stats.workers == workers
            # the split deals morsels, it does not re-cut them
            assert stats.morsel_count == -(-N_ROWS // 16)
            assert stats.wall_seconds > 0.0
