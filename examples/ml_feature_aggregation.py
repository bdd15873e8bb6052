"""Machine-learning feature pipelines on reproducible kernels.

The paper's introduction motivates reproducibility with algorithmic
accountability: models retrained or re-scored on the "same" data should
make the same decisions.  But feature pipelines are full of GROUP BY
SUMs (per-entity totals), means, variances (standardisation), and dot
products (scoring) — all order-dependent under IEEE floats.

This example builds a small credit-scoring-style pipeline twice, on two
physical orderings of the same transaction log, and compares:

* conventional NumPy kernels — features and scores drift, and a
  threshold decision flips for some entities;
* this library's reproducible kernels — bit-identical end to end.

Run:  python examples/ml_feature_aggregation.py
"""

import numpy as np

import repro
from repro.core import reproducible_dot, reproducible_mean, reproducible_std


def make_transactions(rng, n, ncustomers):
    customers = rng.integers(0, ncustomers, size=n).astype(np.uint32)
    # Heavy-tailed amounts, mixed signs (payments/refunds), wide range.
    amounts = rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(3, 2.5, n))
    return customers, amounts


def features_conventional(customers, amounts, ncustomers):
    totals = np.zeros(ncustomers)
    np.add.at(totals, customers, amounts)
    mean = float(np.mean(amounts))
    std = float(np.std(amounts))
    return (totals - mean) / std


def features_reproducible(customers, amounts, ncustomers):
    table = repro.group_sum(customers, amounts, levels=3)
    totals = np.zeros(ncustomers)
    totals[table.keys.astype(np.int64)] = table.sums
    mean = reproducible_mean(amounts, levels=3)
    std = reproducible_std(amounts)
    return (totals - mean) / std


def main():
    rng = np.random.default_rng(7)
    ncustomers = 500
    customers, amounts = make_transactions(rng, 200_000, ncustomers)
    weights = rng.normal(size=ncustomers)
    order = rng.permutation(len(customers))

    print(f"{len(customers)} transactions, {ncustomers} customers")
    print("Re-running the pipeline on a physically reordered log...\n")

    # Conventional pipeline: how many distinct answers do five
    # "identical" runs produce?
    f1 = features_conventional(customers, amounts, ncustomers)
    distinct_scores = set()
    drift = np.zeros(ncustomers)
    for seed in range(5):
        reorder = np.random.default_rng(seed).permutation(len(customers))
        f = features_conventional(
            customers[reorder], amounts[reorder], ncustomers
        )
        drift = np.maximum(drift, np.abs(f - f1))
        distinct_scores.add(float(np.dot(weights, f)))
    print("-- conventional NumPy kernels, 5 reorderings of the log --")
    print(f"feature drift (max abs):    {drift.max():.3e}")
    print(f"distinct portfolio scores:  {len(distinct_scores)}")
    for score in sorted(distinct_scores):
        print(f"    {score!r}")
    print("(same data, same code — answers depend on storage order;")
    print(" a decision threshold in the drift band flips customers)\n")

    # Reproducible pipeline.
    r1 = features_reproducible(customers, amounts, ncustomers)
    r2 = features_reproducible(customers[order], amounts[order], ncustomers)
    identical = bool(np.array_equal(r1.view(np.uint64), r2.view(np.uint64)))
    rscore1 = reproducible_dot(weights, r1, levels=3)
    rscore2 = reproducible_dot(weights, r2, levels=3)
    print("-- reproducible kernels (this library) --")
    print(f"features bit-identical:  {identical}")
    print(f"portfolio score run 1:   {rscore1!r}")
    print(f"portfolio score run 2:   {rscore2!r}")
    print(f"scores bit-identical:    {repro.same_bits(rscore1, rscore2)}")

    assert identical and repro.same_bits(rscore1, rscore2)
    print(
        "\nEvery customer gets the same standardised features and the"
        "\nsame decision, no matter how the storage layer orders the log"
        "\n— the paper's accountability story, end to end."
    )


if __name__ == "__main__":
    main()
