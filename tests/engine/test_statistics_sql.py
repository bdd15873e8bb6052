"""Tests for the SQL statistical aggregates (VARIANCE/STDDEV family).

The paper's footnote 2: every statistical aggregate reduces to SUM, so
a reproducible SUM makes them all reproducible.  These tests check the
arithmetic against NumPy and an exact ``Fraction`` oracle, the
reproducibility against physical reorderings and every execution knob,
and that the library's ``reproducible_variance`` / ``reproducible_std``
return SQL's bits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.aggregation.grouped import GroupedSummation, add_blocked_multi
from repro.core.stats import MOMENT2_PARAMS, second_moment, square_halves
from repro.engine import Database


def make_db(sum_mode, keys, values, **config):
    db = Database(sum_mode=sum_mode, **config)
    db.execute("CREATE TABLE t (k INT, v DOUBLE)")
    db.table("t").bulk_load({"k": keys.astype(np.int64), "v": values})
    return db


@pytest.fixture
def data(rng):
    keys = rng.integers(0, 8, size=4000).astype(np.int64)
    values = rng.normal(loc=5.0, scale=2.0, size=4000)
    return keys, values


class TestVarianceArithmetic:
    def test_var_samp_matches_numpy(self, data):
        keys, values = data
        db = make_db("repro", keys, values)
        res = db.execute("SELECT k, VAR_SAMP(v) FROM t GROUP BY k ORDER BY k")
        for k, var in res.rows():
            expected = float(np.var(values[keys == k], ddof=1))
            assert var == pytest.approx(expected, rel=1e-9)

    def test_var_pop_matches_numpy(self, data):
        keys, values = data
        db = make_db("repro", keys, values)
        res = db.execute("SELECT k, VAR_POP(v) FROM t GROUP BY k ORDER BY k")
        for k, var in res.rows():
            expected = float(np.var(values[keys == k]))
            assert var == pytest.approx(expected, rel=1e-9)

    def test_variance_is_sample_variance(self, data):
        keys, values = data
        db = make_db("repro", keys, values)
        a = db.execute("SELECT VARIANCE(v) FROM t").scalar()
        b = db.execute("SELECT VAR_SAMP(v) FROM t").scalar()
        assert a == b

    def test_stddev_is_sqrt_of_variance(self, data):
        keys, values = data
        db = make_db("repro", keys, values)
        std = db.execute("SELECT STDDEV(v) FROM t").scalar()
        var = db.execute("SELECT VARIANCE(v) FROM t").scalar()
        assert std == math.sqrt(var)

    def test_stddev_pop(self, data):
        keys, values = data
        db = make_db("repro", keys, values)
        std = db.execute("SELECT STDDEV_POP(v) FROM t").scalar()
        assert std == pytest.approx(float(np.std(values)), rel=1e-9)

    def test_single_row_group(self):
        db = Database(sum_mode="repro")
        db.execute("CREATE TABLE t (k INT, v DOUBLE)")
        db.execute("INSERT INTO t VALUES (1, 5.0)")
        # ddof=1 with one row: denominator clamps to 1 -> variance 0.
        assert db.execute("SELECT VAR_SAMP(v) FROM t").scalar() == 0.0


class TestVarianceReproducibility:
    def test_repro_variance_stable_under_reorder(self, data, rng):
        keys, values = data
        db = make_db("repro", keys, values)
        before = db.execute(
            "SELECT k, VARIANCE(v), STDDEV(v) FROM t GROUP BY k ORDER BY k"
        ).rows()
        order = rng.permutation(len(keys))
        db2 = make_db("repro", keys[order], values[order])
        after = db2.execute(
            "SELECT k, VARIANCE(v), STDDEV(v) FROM t GROUP BY k ORDER BY k"
        ).rows()
        assert before == after  # exact equality, not approx

    def test_ieee_variance_can_differ_under_reorder(self, rng):
        # Adversarial values make the Sum-of-squares cancellation bite.
        keys = np.zeros(4000, dtype=np.int64)
        big = rng.uniform(1e7, 1e8, size=2000)
        values = np.empty(4000)
        values[0::2] = big
        values[1::2] = -big + rng.uniform(0, 1, size=2000)
        db = make_db("ieee", keys, values)
        before = db.execute("SELECT VARIANCE(v) FROM t").scalar()
        diffs = 0
        for seed in range(4):
            order = np.random.default_rng(seed).permutation(4000)
            db2 = make_db("ieee", keys[order], values[order])
            if db2.execute("SELECT VARIANCE(v) FROM t").scalar() != before:
                diffs += 1
        assert diffs > 0

    def test_variance_in_having(self, data):
        keys, values = data
        db = make_db("repro", keys, values)
        res = db.execute(
            "SELECT k FROM t GROUP BY k HAVING VARIANCE(v) > 0 ORDER BY k"
        )
        assert len(res) == 8


# ---------------------------------------------------------------------------
# Exactness against Fractions, under every knob
# ---------------------------------------------------------------------------

#: every spelling, grouped; ``ddof`` and sqrt by position below
FAMILY = ("VAR_SAMP", "VAR_POP", "STDDEV", "STDDEV_POP", "VARIANCE",
          "STDDEV_SAMP")
FAMILY_QUERY = (
    "SELECT k, " + ", ".join(f"{name}(v)" for name in FAMILY)
    + " FROM t GROUP BY k ORDER BY k"
)
U = 2.0**-53

#: one group's draw: ``("normal", log10 mu, log10 sigma)`` is
#: mu + sigma·N(0,1); ``"mixed"`` N(0,1)·10**U{-4..8}; ``"near"``
#: 10**e + 1e-3·N(0,1)
GROUPS = st.lists(
    st.one_of(
        st.tuples(st.just("normal"), st.integers(-3, 12),
                  st.integers(-3, 2)),
        st.tuples(st.just("mixed"), st.just(0), st.just(0)),
        st.tuples(st.just("near"), st.integers(3, 10), st.just(0)),
    ),
    min_size=1, max_size=5,
)
KNOBS = st.fixed_dictionaries({
    "workers": st.sampled_from([1, 2]),
    "morsel_size": st.sampled_from([1, 7, 65536]),
    "memory_budget": st.sampled_from([None, 1, 2048]),
})


def _draw_values(seed, groups, rows):
    rng = np.random.default_rng(seed)
    keys, values = [], []
    for k, (kind, a, b) in enumerate(groups):
        n = int(rng.integers(1, rows + 1))
        if kind == "normal":
            sign = rng.choice([-1.0, 1.0])
            x = sign * 10.0**a + 10.0**b * rng.normal(size=n)
        elif kind == "mixed":
            x = rng.normal(size=n) * 10.0 ** rng.integers(-4, 9, n)
        else:
            x = 10.0**a + 1e-3 * rng.normal(size=n)
        keys.append(np.full(n, k, dtype=np.int64))
        values.append(x)
    return np.concatenate(keys), np.concatenate(values)


def _family(keys, values, **config):
    db = make_db(config.pop("sum_mode"), keys, values, **config)
    try:
        return db.execute(FAMILY_QUERY).arrays
    finally:
        db.close()


def _exact(values):
    """``(VAR_SAMP, VAR_POP, Σx²)`` of one group in ``Fraction``s."""
    rows = [Fraction(v) for v in values.tolist()]
    n, total = len(rows), sum(rows)
    squares = sum(f * f for f in rows)
    numerator = n * squares - total * total
    return numerator / (n * max(n - 1, 1)), numerator / n**2, squares


def _numerators(keys, values):
    """The repro combine's exact numerators ``n·Σx² − (Σx)²`` per group,
    before the final rounding reads a negative one as 0."""
    ngroups = int(keys.max()) + 1
    sums = [GroupedSummation(MOMENT2_PARAMS, ngroups) for _ in range(3)]
    add_blocked_multi(sums, keys, [values, *square_halves(values)])
    counts = np.bincount(keys, minlength=ngroups)
    return second_moment(counts, *(s.exact() for s in sums))[0]


def _rel(got, exact):
    if exact == 0:
        return 0.0 if got == 0 else math.inf
    return float(abs(Fraction(got) - exact) / exact)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), groups=GROUPS,
       rows=st.integers(1, 60), knobs=KNOBS)
def test_variance_family_is_exact_and_knob_free(seed, groups, rows, knobs):
    """repro: within 1e-12 of the exact value (correctly rounded inside
    the exactness band), its exact numerator never negative, the same
    bits under every knob vector and session ``levels``; ieee: within
    the bound the ``repro.core.stats`` docstring states."""
    keys, values = _draw_values(seed, groups, rows)
    base = _family(keys, values, sum_mode="repro")
    bits = [arr.tobytes() for arr in base]
    for config in ({**knobs}, {**knobs, "levels": 3}, {"levels": 3}):
        got = _family(keys, values, sum_mode="repro", **config)
        assert [arr.tobytes() for arr in got] == bits, config
    assert all(numerator >= 0 for numerator in _numerators(keys, values))
    ieee = _family(keys, values, sum_mode="ieee", **knobs)
    for k in range(len(groups)):
        group = values[keys == k]
        n = group.size
        var_samp, var_pop, squares = _exact(group)
        for i, name in enumerate(FAMILY, start=1):
            pop = name.endswith("_POP")
            exact = var_pop if pop else var_samp
            got = float(base[i][k])
            if name.startswith("STDDEV"):
                assert _rel(got, Fraction(math.sqrt(exact))) <= 1e-12, name
            else:
                assert _rel(got, exact) <= 1e-12, name
            # ieee: |VAR - exact| <= 3 (n-1) u Σx² / (n - ddof), to
            # first order, plus the rounding of the result
            bound = (3 * (n - 1) * U * float(squares)
                     / max(n - (0 if pop else 1), 1) * (1 + 1e-9)
                     + 2 * U * float(exact))
            mine = float(ieee[i][k])
            assert mine >= 0, name
            if name.startswith("STDDEV"):
                assert abs(mine - math.sqrt(exact)) <= (
                    math.sqrt(bound) + 2 * U * mine), name
            else:
                assert abs(Fraction(mine) - exact) <= bound, name


#: (values, parent's VAR_SAMP / VAR_POP / STDDEV / STDDEV_POP) for the
#: cases the exact combine must not move, in both modes
EDGES = {
    "nan": ([1.0, math.nan, 2.0], (math.nan,) * 4),
    "pos_inf": ([1.0, math.inf], (math.nan,) * 4),
    "neg_inf": ([1.0, -math.inf], (math.nan,) * 4),
    "square_overflows": ([1e200, 1.0], (math.nan,) * 4),
    "one_row": ([5.0], (0.0,) * 4),
    "empty_global": ([], (0.0,) * 4),
}


@pytest.mark.parametrize("mode", ["repro", "ieee"])
@pytest.mark.parametrize("case", sorted(EDGES))
def test_edge_cases_keep_the_parents_results(case, mode):
    values, expected = EDGES[case]
    db = Database(sum_mode=mode)
    db.execute("CREATE TABLE t (v DOUBLE)")
    if values:
        db.table("t").bulk_load({"v": np.array(values)})
    with np.errstate(all="raise"):
        got = db.execute("SELECT VAR_SAMP(v), VAR_POP(v), STDDEV(v), "
                         "STDDEV_POP(v) FROM t").rows()
    db.close()
    assert len(got) == 1
    np.testing.assert_array_equal(np.array(got[0]), np.array(expected))


def test_underflowing_squares_read_zero_not_nan():
    """Below ``|x| = 2**-465`` squares underflow: this constant group's
    exact numerator lands below 0, and reads 0 — not a NaN STDDEV."""
    values = np.full(3, 1.1 * 2.0**-480)
    assert _numerators(np.zeros(3, dtype=np.int64), values)[0] < 0
    db = make_db("repro", np.zeros(3, dtype=np.int64), values)
    got = db.execute("SELECT VAR_SAMP(v), VAR_POP(v), STDDEV(v), "
                     "STDDEV_POP(v) FROM t").rows()[0]
    db.close()
    assert got == (0.0, 0.0, 0.0, 0.0)


class TestLibraryMatchesSql:
    """``repro.reproducible_variance`` / ``reproducible_std`` run SQL's
    second moment over one group: the same bits by construction."""

    @pytest.mark.parametrize("make", [
        lambda rng: 1e9 + rng.normal(size=3000),
        lambda rng: rng.normal(size=3000) * 10.0 ** rng.integers(-4, 9, 3000),
        lambda rng: rng.exponential(size=5),
    ])
    def test_library_bits_equal_select(self, make, rng):
        values = make(rng)
        db = make_db("repro", np.zeros(values.size, dtype=np.int64), values)
        var_pop, var_samp, std, std_pop = db.execute(
            "SELECT VAR_POP(v), VARIANCE(v), STDDEV(v), STDDEV_POP(v) "
            "FROM t").rows()[0]
        db.close()
        assert repro.reproducible_variance(values).hex() == var_pop.hex()
        assert repro.reproducible_variance(values, ddof=1).hex() \
            == var_samp.hex()
        assert repro.reproducible_std(values, ddof=1).hex() == std.hex()
        assert repro.reproducible_std(values).hex() == std_pop.hex()

    def test_session_levels_do_not_reach_the_moment(self, data):
        keys, values = data
        bits = set()
        for levels in (1, 2, 3):
            db = Database(sum_mode="repro", levels=levels)
            db.execute("CREATE TABLE t (k INT, v DOUBLE)")
            db.table("t").bulk_load({"k": keys, "v": values})
            bits.add(db.execute(FAMILY_QUERY).arrays[1].tobytes())
            db.close()
        assert len(bits) == 1
