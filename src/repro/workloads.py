"""The paper's standard aggregation input (Section VI-A).

``n`` (key, value) pairs, uint32 keys "drawn uniformly at random from
the range [0, ngroups)" — so the realised group count is slightly
below ``ngroups`` when ``ngroups ~ n`` — and values from one of the
named :data:`DISTRIBUTIONS`:

* ``U[1,2)``  — the benign case (Table II);
* ``Exp(1)``  — mild dynamic range (Table II), the benchmarks' default;
* ``wide``    — log-uniform exponents, the "measurements / scientific
  data" regime Section II-C argues cannot use fixed point;
* ``cancel``  — pairs (x, -x) plus noise: adversarial for conventional
  sums, where rounding errors dominate the tiny true sum.

Seeded, so every run (and every permutation of a run) is repeatable.
The end-to-end benchmark's ``groupby_highcard`` table is
``make_pairs(2**18, 2**15, "Exp(1)")``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform12",
    "exponential1",
    "wide_exponent",
    "cancellation",
    "DISTRIBUTIONS",
    "make_pairs",
]


def uniform12(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(1.0, 2.0, size=n)


def exponential1(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.exponential(1.0, size=n)


def wide_exponent(n: int, rng: np.random.Generator,
                  min_exp: int = -40, max_exp: int = 40) -> np.ndarray:
    """Magnitudes spread log-uniformly over many binades, mixed signs."""
    exponents = rng.uniform(min_exp, max_exp, size=n)
    mantissas = rng.uniform(1.0, 2.0, size=n)
    signs = rng.choice([-1.0, 1.0], size=n)
    return signs * mantissas * np.exp2(exponents)


def cancellation(n: int, rng: np.random.Generator,
                 noise_scale: float = 1e-12) -> np.ndarray:
    """Large cancelling pairs plus tiny noise: the true sum is tiny,
    conventional partial sums are huge, so the result is dominated by
    order-dependent rounding."""
    half = n // 2
    big = rng.uniform(1e8, 1e9, size=half)
    noise = rng.normal(scale=noise_scale, size=n - 2 * half + half)
    values = np.concatenate([big, -big, noise[: n - 2 * half]])
    rng.shuffle(values)
    return values[:n]


DISTRIBUTIONS = {
    "U[1,2)": uniform12,
    "Exp(1)": exponential1,
    "wide": wide_exponent,
    "cancel": cancellation,
}


def make_pairs(
    n: int,
    ngroups: int,
    distribution: str = "Exp(1)",
    dtype=np.float64,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's standard (key, value) workload."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, ngroups, size=n, dtype=np.uint32)
    values = DISTRIBUTIONS[distribution](n, rng).astype(dtype)
    return keys, values
