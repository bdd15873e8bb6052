"""Error bounds of conventional and reproducible summation (paper §VI-B1).

Equation 5 (Demmel & Nguyen) bounds the conventional floating-point
sum:

    e_conv = (n - 1) * eps * sum_i |b_i|

Equation 6 bounds RSUM (theirs and ours alike):

    e_rsum = n * 2**((1 - L) * W - 1) * max_i |b_i|

Table II evaluates both for uniformly distributed values in [1, 2) and
exponentially distributed values (lambda = 1, max expected value 2**2
per the paper's 0.03 % argument), at n = 10**3 and 10**6, in double
precision.  :func:`table2_rows` reproduces the table and additionally
reports the *measured* error of our implementation against the exact
sum — which the paper notes is "up to 2**(W-1) times" better than the
bound.

The bound this implementation *guarantees* is twice Equation 6,
:func:`grid_aligned_error_bound`: extractor ladders are aligned to
multiples of ``W`` (that is what makes the ladder a function of
``max |b_i|`` alone), so one ladder serves ``W`` binades of maxima and a
maximum in the bottom one sits a full binade below where Equation 6
assumes it.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import RsumParams, default_w
from repro.core.rsum import reproducible_sum
from repro.fp.formats import BINARY64, FloatFormat
from .exact import abs_error, fsum

__all__ = [
    "conventional_error_bound",
    "rsum_error_bound",
    "grid_aligned_error_bound",
    "expected_table2_bound",
    "table2_rows",
    "TABLE2_PAPER",
]

#: Paper Table II, verbatim (maximum absolute error bounds, double).
TABLE2_PAPER = {
    ("Conventional", 10**3, "U[1,2)"): 1.7e-10,
    ("Conventional", 10**3, "Exp(1)"): 1.1e-10,
    ("Conventional", 10**6, "U[1,2)"): 1.7e-4,
    ("Conventional", 10**6, "Exp(1)"): 1.1e-4,
    ("RSUM (L=1)", 10**3, "U[1,2)"): 1.0e3,
    ("RSUM (L=1)", 10**3, "Exp(1)"): 1.1e4,
    ("RSUM (L=1)", 10**6, "U[1,2)"): 1.0e6,
    ("RSUM (L=1)", 10**6, "Exp(1)"): 1.1e7,
    ("RSUM (L=2)", 10**3, "U[1,2)"): 9.1e-10,
    ("RSUM (L=2)", 10**3, "Exp(1)"): 1.0e-8,
    ("RSUM (L=2)", 10**6, "U[1,2)"): 9.1e-7,
    ("RSUM (L=2)", 10**6, "Exp(1)"): 1.0e-5,
    ("RSUM (L=3)", 10**3, "U[1,2)"): 8.3e-22,
    ("RSUM (L=3)", 10**3, "Exp(1)"): 9.1e-21,
    ("RSUM (L=3)", 10**6, "U[1,2)"): 8.3e-19,
    ("RSUM (L=3)", 10**6, "Exp(1)"): 9.1e-18,
}


def conventional_error_bound(n: int, abs_sum: float,
                             fmt: FloatFormat = BINARY64) -> float:
    """Equation 5: ``(n - 1) * eps * sum |b_i|``.

    ``eps`` is the unit roundoff ``2**-(m+1)`` (2**-53 for binary64),
    the "machine constant" of Goldberg that Demmel & Nguyen use —
    reproducing the paper's 1.7e-10 for n = 10**3, U[1,2).
    """
    return (n - 1) * (fmt.machine_epsilon / 2) * abs_sum


def rsum_error_bound(n: int, max_abs: float, levels: int,
                     w: int | None = None,
                     fmt: FloatFormat = BINARY64) -> float:
    """Equation 6: ``n * 2**((1 - L) * W - 1) * max |b_i|``."""
    w = w if w is not None else default_w(fmt)
    return n * 2.0 ** ((1 - levels) * w - 1) * max_abs


def grid_aligned_error_bound(n: int, max_abs: float, levels: int,
                             w: int | None = None,
                             fmt: FloatFormat = BINARY64) -> float:
    """``n * 2**((1 - L) * W) * max |b_i|`` — the bound the grid-aligned
    ladder meets, one binade above Equation 6.

    The ladder with top exponent ``E`` (a multiple of ``W``) serves
    every maximum with ``E - m - 1 <= floor(log2 max|b|) <= E - m + W -
    2``.  Its last level rounds each value to the grid ``2**(E - (L-1)W
    - m)``, dropping at most half of that: ``2**((1-L)W) * 2**(E-m-1)``.
    For a maximum in the ladder's bottom binade ``2**(E-m-1)`` is the
    best available lower bound on it — e.g. ``[1.4913415096091814e-16]``
    at ``L = 2`` errs by ``1.2 * 2**-41 * |b|``, past Equation 6 — so
    per value the guarantee is ``2**((1-L)W) * max|b|``.
    """
    return 2.0 * rsum_error_bound(n, max_abs, levels, w, fmt)


def expected_table2_bound(algorithm: str, n: int, distribution: str) -> float:
    """The bound expressions evaluated with the paper's expectations.

    U[1,2): E[sum |b|] = 1.5 n, max |b| = 2.
    Exp(1): E[sum |b|] = n, max expected |b| = 2**2 = 4... the paper
    uses 22 as "the maximum expected input value" for n = 10**6 and the
    same for the table at both sizes; we follow the table's arithmetic
    (its RSUM rows equal n * 2**((1-L)W - 1) * 22).
    """
    if distribution == "U[1,2)":
        abs_sum, max_abs = 1.5 * n, 2.0
    elif distribution == "Exp(1)":
        abs_sum, max_abs = float(n), 22.0
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    if algorithm == "Conventional":
        return conventional_error_bound(n, abs_sum)
    if algorithm.startswith("RSUM"):
        levels = int(algorithm.split("=")[1].rstrip(")"))
        return rsum_error_bound(n, max_abs, levels)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _sample(distribution: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if distribution == "U[1,2)":
        return rng.uniform(1.0, 2.0, size=n)
    if distribution == "Exp(1)":
        return rng.exponential(1.0, size=n)
    raise ValueError(f"unknown distribution {distribution!r}")


def state_exact_value(state) -> "Fraction":
    """Exact value held by a summation state (before final rounding).

    The RSUM error bound (Equation 6) describes the information kept in
    the L-level state; the final double additionally rounds to one
    ulp of the result.  This helper reconstructs the state's exact sum
    ``sum_l (s_l * 2**(e_l - m) + C_l * 2**(e_l - 2))`` so the bound
    can be checked without the final-rounding floor.
    """
    from fractions import Fraction

    if state.e0 is None:
        return Fraction(0)
    m = state.params.fmt.mantissa_bits
    w = state.params.w
    total = Fraction(0)
    for level in range(state.params.levels):
        e = state.e0 - level * w
        if e < state.params.fmt.min_exponent:
            continue
        total += Fraction(state.s[level]) * Fraction(2) ** (e - m)
        total += Fraction(state.c[level]) * Fraction(2) ** (e - 2)
    return total


def table2_rows(sizes=(10**3, 10**6), trials: int = 3, seed: int = 0,
                measure: bool = True) -> list[dict]:
    """Reproduce Table II: bounds (ours vs paper) and measured errors."""
    rng = np.random.default_rng(seed)
    rows = []
    algorithms = ["Conventional", "RSUM (L=1)", "RSUM (L=2)", "RSUM (L=3)"]
    for algorithm in algorithms:
        for n in sizes:
            for distribution in ("U[1,2)", "Exp(1)"):
                bound = expected_table2_bound(algorithm, n, distribution)
                measured = None
                state_error = None
                if measure:
                    worst = 0.0
                    worst_state = 0.0
                    for _ in range(trials):
                        values = _sample(distribution, n, rng)
                        if algorithm == "Conventional":
                            total = 0.0
                            for chunk in np.array_split(values, 64):
                                total += float(np.sum(chunk))
                            worst = max(worst, abs_error(total, values))
                        else:
                            levels = int(algorithm.split("=")[1].rstrip(")"))
                            from repro.core.rsum import ReproducibleSummer

                            summer = ReproducibleSummer(levels=levels)
                            summer.add_array(values)
                            worst = max(
                                worst, abs_error(summer.result(), values)
                            )
                            from .exact import exact_sum

                            state_err = abs(
                                state_exact_value(summer.state)
                                - exact_sum(values)
                            )
                            worst_state = max(worst_state, float(state_err))
                    measured = worst
                    if algorithm != "Conventional":
                        state_error = worst_state
                rows.append(
                    {
                        "algorithm": algorithm,
                        "n": n,
                        "distribution": distribution,
                        "bound": bound,
                        "paper_bound": TABLE2_PAPER.get(
                            (algorithm, n, distribution)
                        ),
                        "measured": measured,
                        "state_error": state_error,
                    }
                )
    return rows
