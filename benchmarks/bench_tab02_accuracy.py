"""Table II: maximum absolute error of conventional vs RSUM summation.

Fully measured — accuracy is hardware-independent, so this bench
reproduces the paper's numbers exactly: the bound expressions
(Equations 5 and 6) evaluated at the paper's parameters, alongside the
actually measured errors of this implementation against exact oracles.

``test_variance_accuracy_report`` measures the SQL VARIANCE / STDDEV
family on Kamat & Nandi's adversarial inputs for the textbook
one-pass formula — a large mean over a small spread, mixed magnitudes,
near-constant groups — against an exact ``Fraction`` oracle, in both
sum modes, and gates ``repro``: its VARIANCE is within 1e-12 relative
of exact on every input (the exact combine of
:mod:`repro.core.stats` rounds once).  ``ieee`` runs the same combine
over rounded IEEE sums and is reported against nothing but its
documented bound.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from _common import emit, table
from paper.analysis import format_sci, table2_rows
from repro.engine import Database

VARIANCE_ROWS = 5000
#: (label, groups, values): drawn in this order from one
#: ``np.random.default_rng(0)``; row ``i`` is in group ``i % groups``
VARIANCE_INPUTS = (
    *((f"mu=1e{e} + N(0,1)", 1,
       lambda rng, keys, mu=10.0 ** e: mu + rng.normal(size=keys.size))
      for e in (6, 8, 9)),
    ("mixed: N(0,1) * 10**U{-4..8}", 1,
     lambda rng, keys: (rng.normal(size=keys.size)
                        * 10.0 ** rng.integers(-4, 9, keys.size))),
    ("8 near-constant groups: 10**(k+3) + 1e-3 N(0,1)", 8,
     lambda rng, keys: 10.0 ** (keys + 3) + 1e-3 * rng.normal(size=keys.size)),
)


def _exact_var_samp(values) -> Fraction:
    n = len(values)
    total = sum(map(Fraction, values), Fraction(0))
    squares = sum((Fraction(v) ** 2 for v in values), Fraction(0))
    return (n * squares - total * total) / (n * (n - 1))


def _relative(got: float, exact: Fraction) -> float:
    if exact == 0:
        return abs(got)
    return abs(float((Fraction(got) - exact) / exact))


def test_table2_report(benchmark):
    rows = benchmark.pedantic(
        lambda: table2_rows(sizes=(10**3, 10**6), trials=2, seed=42),
        rounds=1,
        iterations=1,
    )
    body = []
    for r in rows:
        body.append(
            [
                r["algorithm"],
                r["n"],
                r["distribution"],
                format_sci(r["bound"]),
                format_sci(r["paper_bound"]),
                format_sci(r["measured"]),
                format_sci(r["state_error"]),
            ]
        )
    emit(
        "tab02_accuracy",
        table(
            ["algorithm", "n", "dist", "our bound", "paper bound",
             "measured |err|", "state |err|"],
            body,
            title="Maximum absolute error, double precision (paper Table II)",
        ),
        "Bounds match the paper's table; measured errors are far below\n"
        "the bounds (the paper: 'up to 2**(W-1) times more pessimistic').\n"
        "'state |err|' excludes the final rounding to one double.",
    )
    # Our bound expressions must reproduce the paper's table (1 digit).
    for r in rows:
        assert r["bound"] == pytest.approx(r["paper_bound"], rel=0.05), r
        # Measured error never exceeds the bound.
        if r["measured"] is not None and r["algorithm"] != "Conventional":
            assert r["measured"] <= r["bound"] + 1e-12 or r[
                "state_error"
            ] <= r["bound"]


def test_table2_conventional_vs_rsum_l2(benchmark):
    """Conclusion of §VI-B1: RSUM with L = 2 has comparable accuracy to
    conventional summation; L = 3 exceeds it."""
    import math

    import numpy as np

    from repro.core import reproducible_sum

    rng = np.random.default_rng(0)
    values = rng.exponential(size=10**6)

    result = benchmark.pedantic(
        lambda: reproducible_sum(values, levels=2), rounds=1, iterations=1
    )
    exact = math.fsum(values)
    conv_err = abs(float(np.sum(values)) - exact)
    rsum_err = abs(float(result) - exact)
    assert rsum_err <= conv_err * 2 + abs(exact) * 2**-52


def test_variance_accuracy_report():
    """VARIANCE / STDDEV relative error against exact rationals, per
    input, in ``repro`` and ``ieee`` (the worst group where grouped);
    repro's VARIANCE must be within 1e-12 of exact on every input."""
    body = []
    worst_repro = []
    rng = np.random.default_rng(0)
    for label, groups, make in VARIANCE_INPUTS:
        keys = np.arange(VARIANCE_ROWS) % groups
        values = make(rng, keys)
        exact = {k: _exact_var_samp(values[keys == k].tolist())
                 for k in range(groups)}
        row = {}
        for mode in ("repro", "ieee"):
            db = Database(sum_mode=mode)
            db.execute("CREATE TABLE obs (k INT, v DOUBLE)")
            db.table("obs").bulk_load({"k": keys.astype(np.int64),
                                       "v": values})
            got = db.execute("SELECT k, VARIANCE(v), STDDEV(v) FROM obs "
                             "GROUP BY k ORDER BY k").rows()
            db.close()
            row[mode] = (
                max(_relative(var, exact[k]) for k, var, _ in got),
                max(_relative(std, Fraction(math.sqrt(exact[k])))
                    for k, _, std in got),
                got[0][1],
            )
        worst_repro.append(row["repro"][0])
        body.append([
            label, f"{float(exact[0]):.6g}",
            f"{row['repro'][2]:.6g}", format_sci(row["repro"][0]),
            format_sci(row["repro"][1]),
            f"{row['ieee'][2]:.6g}", format_sci(row["ieee"][0]),
            format_sci(row["ieee"][1]),
        ])
    emit(
        "tab02_variance_accuracy",
        table(
            ["input", "exact VAR (group 0)", "repro VAR", "repro VAR rel",
             "repro STDDEV rel", "ieee VAR", "ieee VAR rel",
             "ieee STDDEV rel"],
            body,
            title=f"VARIANCE / STDDEV (sample) relative error, "
                  f"{VARIANCE_ROWS} rows per input",
        ),
        "Exact: Fraction arithmetic over the stored doubles; STDDEV's\n"
        "reference is the double nearest sqrt(exact VAR).  rel = worst\n"
        "group.  Both modes form n*SUM(x*x) - SUM(x)**2 exactly, x*x\n"
        "split into hi + lo, and round once: repro over unrounded\n"
        "4-level ladders (exact), ieee over rounded IEEE sums (bound\n"
        "3(n-1)u SUM(x*x)/(n-ddof)), reading 0 when negative (rel 1).",
    )
    assert len(body) == len(VARIANCE_INPUTS)
    for (label, *_), repro_rel in zip(VARIANCE_INPUTS, worst_repro):
        assert repro_rel <= 1e-12, (label, repro_rel)
