"""Quickstart: bit-reproducible sums and GROUP BY SUM in five minutes.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro


def section(title):
    print(f"\n=== {title} ===")


def main():
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------
    section("The problem: IEEE summation depends on order")
    values = rng.exponential(size=1_000_000)
    forward = float(np.sum(values))
    backward = float(np.sum(values[::-1]))
    print(f"np.sum forward : {forward!r}")
    print(f"np.sum backward: {backward!r}")
    print(f"bit-identical? {repro.same_bits(forward, backward)}")

    # ------------------------------------------------------------------
    section("reproducible_sum: same bits for any order")
    r_forward = repro.reproducible_sum(values)
    r_backward = repro.reproducible_sum(values[::-1])
    r_shuffled = repro.reproducible_sum(rng.permutation(values))
    print(f"repro forward : {float(r_forward)!r}")
    print(f"repro backward: {float(r_backward)!r}")
    print(f"repro shuffled: {float(r_shuffled)!r}")
    assert repro.same_bits(r_forward, r_backward)
    assert repro.same_bits(r_forward, r_shuffled)
    print("bit-identical across permutations: True")

    # ------------------------------------------------------------------
    section("Accuracy: L=2 matches IEEE, L=3 exceeds it")
    import math

    exact = math.fsum(values)
    print(f"exact (fsum)      : {exact!r}")
    print(f"np.sum error      : {abs(forward - exact):.3e}")
    for levels in (1, 2, 3):
        result = repro.reproducible_sum(values, levels=levels)
        print(f"repro L={levels} error   : {abs(float(result) - exact):.3e}")

    # ------------------------------------------------------------------
    section("Streaming and parallel merging")
    left = repro.ReproducibleSummer()
    right = repro.ReproducibleSummer()
    left.add_array(values[:500_000])
    right.add_array(values[500_000:])
    left.merge(right)  # e.g. combining two workers' partial states
    assert repro.same_bits(left.result(), r_forward)
    print("merge(half, half) == whole: True (bitwise)")

    # ------------------------------------------------------------------
    section("GROUP BY SUM: the paper's main subject")
    keys = rng.integers(0, 1024, size=values.size).astype(np.uint32)
    table = repro.group_sum(keys, values)  # reproducible by default
    print(f"{len(table)} groups; first 3:")
    for key, total in list(zip(table.keys, table.sums))[:3]:
        print(f"  key {key}: {total!r}")
    perm = rng.permutation(values.size)
    table2 = repro.group_sum(keys[perm], values[perm])
    print(f"bit-identical after physical reshuffle? {table.bit_equal(table2)}")

    conventional = repro.group_sum(keys, values, reproducible=False)
    conventional2 = repro.group_sum(keys[perm], values[perm], reproducible=False)
    print(
        "conventional floats, same comparison:   "
        f"{conventional.bit_equal(conventional2)}"
    )

    # ------------------------------------------------------------------
    section("An accumulator: += one value at a time")
    acc = repro.ReproducibleSummer("double", levels=2)
    acc += 0.1
    acc += 1e17
    acc += -1e17
    print(f"0.1 + 1e17 - 1e17, reproducible L=2: {float(acc.result())!r}")
    print(f"same via plain floats:               {(0.1 + 1e17) - 1e17!r}")

    print("\nDone.  See examples/algorithm1_sql.py for the SQL-level demo.")


if __name__ == "__main__":
    main()
